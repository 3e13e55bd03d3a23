#include "testbed/supervisor.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#if defined(__GLIBC__)
#include <stdio_ext.h>
#endif

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <stdexcept>

#include "util/json_escape.hpp"

namespace ebrc::testbed {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] std::string errno_message(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

[[nodiscard]] std::string format_seconds(double s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", s);
  return buf;
}

/// Appends to a bounded tail buffer: only the last `limit` bytes survive.
void append_tail(std::string& tail, const char* data, std::size_t n, std::size_t limit) {
  tail.append(data, n);
  if (tail.size() > limit) tail.erase(0, tail.size() - limit);
}

/// Reads everything currently available on a nonblocking fd into the tail.
/// Returns false once the write end is closed (EOF).
bool drain_pipe(int fd, std::string& tail, std::size_t limit) {
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      append_tail(tail, buf, static_cast<std::size_t>(n), limit);
      continue;
    }
    if (n == 0) return false;  // EOF: worker (and any stray children) gone
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    return false;  // unexpected read error: treat as closed
  }
}

/// Re-check cadence for the reap when the kernel offers no pidfd.
constexpr int kFallbackPollMs = 10;

/// A descriptor that polls readable once `pid` has exited, or -1 when the
/// kernel lacks pidfd_open (Linux < 5.3).
int open_pidfd(pid_t pid) {
#ifdef SYS_pidfd_open
  return static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
#else
  (void)pid;
  return -1;
#endif
}

}  // namespace

IsolationMode isolation_from(const std::string& name) {
  if (name == "none" || name == "in-process") return IsolationMode::kInProcess;
  if (name == "process") return IsolationMode::kProcess;
  throw std::invalid_argument("--isolate: unknown mode '" + name +
                              "' (valid: none, process)");
}

const char* isolation_name(IsolationMode mode) noexcept {
  return mode == IsolationMode::kProcess ? "process" : "none";
}

std::string signal_name(int sig) {
  switch (sig) {
    case SIGHUP: return "SIGHUP";
    case SIGINT: return "SIGINT";
    case SIGQUIT: return "SIGQUIT";
    case SIGILL: return "SIGILL";
    case SIGABRT: return "SIGABRT";
    case SIGBUS: return "SIGBUS";
    case SIGFPE: return "SIGFPE";
    case SIGKILL: return "SIGKILL";
    case SIGSEGV: return "SIGSEGV";
    case SIGPIPE: return "SIGPIPE";
    case SIGALRM: return "SIGALRM";
    case SIGTERM: return "SIGTERM";
    case SIGXCPU: return "SIGXCPU";
    case SIGXFSZ: return "SIGXFSZ";
    default: return "signal " + std::to_string(sig);
  }
}

std::string WorkerOutcome::describe() const {
  if (ok) return "exited 0";
  if (killed) {
    return "killed at the cell deadline (SIGKILL) after " + format_seconds(elapsed_s) + " s";
  }
  if (crashed) {
    std::string s = "crashed: " + signal_name(term_signal);
    if (term_signal == SIGKILL) {
      // We did not send it (killed would be set) — the kernel OOM killer is
      // the usual sender of an unexplained SIGKILL.
      s += " (not sent by the supervisor — possibly the kernel OOM killer)";
    }
    return s;
  }
  if (exit_code >= 0) return "exited " + std::to_string(exit_code);
  return "did not start";
}

WorkerOutcome run_supervised(const std::function<int()>& body, const WorkerLimits& limits) {
  WorkerOutcome out;
  int fds[2] = {-1, -1};
  if (::pipe(fds) != 0) {
    out.stderr_tail = errno_message("pipe");
    return out;
  }

  const auto t0 = Clock::now();
  const pid_t pid = ::fork();
  if (pid < 0) {
    out.stderr_tail = errno_message("fork");
    ::close(fds[0]);
    ::close(fds[1]);
    return out;
  }

  if (pid == 0) {
    // ---- worker ----
    // Die with the parent: a crashed supervisor must not leak workers.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::close(fds[0]);
#if defined(__GLIBC__)
    // Discard the parent's not-yet-flushed stdio buffers inherited across
    // the fork: the child's final flush must emit only what the CHILD
    // wrote, not replay half the parent's banner into the stderr tail.
    __fpurge(stdout);
    __fpurge(stderr);
#endif
    // Both stdout and stderr go to the supervision pipe so nothing a dying
    // worker prints can reach the parent's bit-comparable stdout.
    ::dup2(fds[1], STDOUT_FILENO);
    ::dup2(fds[1], STDERR_FILENO);
    if (fds[1] != STDOUT_FILENO && fds[1] != STDERR_FILENO) ::close(fds[1]);
    int code = 1;
    try {
      code = body();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "worker: %s\n", e.what());
    } catch (...) {
      std::fprintf(stderr, "worker: unknown exception\n");
    }
    std::cout.flush();
    std::cerr.flush();
    std::fflush(nullptr);
    ::_exit(code);  // never exit(): inherited stdio buffers must not reflush
  }

  // ---- supervisor ----
  ::close(fds[1]);
  const int rfd = fds[0];
  ::fcntl(rfd, F_SETFL, ::fcntl(rfd, F_GETFL, 0) | O_NONBLOCK);

  const bool has_deadline = limits.deadline_s > 0.0;
  const auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(
                                     has_deadline ? limits.deadline_s : 0.0));
  // One poll() waits on everything that can end a wait: worker output, the
  // worker's exit (its pidfd turns readable), and the deadline (the poll
  // timeout). The worker closes the pipe before it becomes reapable, so EOF
  // alone cannot signal the exit; the pidfd does. Kernels without
  // pidfd_open fall back to re-checking the reap every kFallbackPollMs.
  const int pidfd = open_pidfd(pid);
  std::string tail;
  bool pipe_open = true;
  int status = 0;
  rusage ru{};
  for (;;) {
    const pid_t r = ::wait4(pid, &status, WNOHANG, &ru);
    if (r == pid) break;
    if (r < 0 && errno != EINTR) break;  // ECHILD: nothing left to reap
    int timeout_ms = -1;
    if (has_deadline && !out.killed) {
      const auto left = deadline - Clock::now();
      if (left <= Clock::duration::zero()) {
        ::kill(pid, SIGKILL);
        out.killed = true;
        continue;
      }
      timeout_ms = static_cast<int>(
          std::chrono::ceil<std::chrono::milliseconds>(left).count());
    }
    if (pidfd < 0 && (timeout_ms < 0 || timeout_ms > kFallbackPollMs)) {
      timeout_ms = kFallbackPollMs;
    }
    pollfd fds[2];
    nfds_t n = 0;
    if (pipe_open) fds[n++] = {rfd, POLLIN, 0};
    if (pidfd >= 0) fds[n++] = {pidfd, POLLIN, 0};
    if (::poll(fds, n, timeout_ms) > 0 && pipe_open && fds[0].revents != 0) {
      pipe_open = drain_pipe(rfd, tail, limits.stderr_tail_bytes);
    }
  }
  // The pipe buffer can still hold the worker's last words after the reap.
  if (pipe_open) drain_pipe(rfd, tail, limits.stderr_tail_bytes);
  ::close(rfd);
  if (pidfd >= 0) ::close(pidfd);

  out.elapsed_s = std::chrono::duration<double>(Clock::now() - t0).count();
  out.max_rss_kb = ru.ru_maxrss;
  out.stderr_tail = std::move(tail);
  if (WIFEXITED(status)) {
    out.exit_code = WEXITSTATUS(status);
    out.ok = !out.killed && out.exit_code == 0;
  } else if (WIFSIGNALED(status)) {
    out.term_signal = WTERMSIG(status);
    // A SIGKILL we sent is a deadline kill, not a crash.
    out.crashed = !(out.killed && out.term_signal == SIGKILL);
  }
  return out;
}

namespace {

using util::json_escape_into;

/// Stamps the common line prefix: `{"ts":<wall>,"event":"<event>"`.
void begin_line(std::string& line, std::string_view event) {
  const double ts = std::chrono::duration<double>(
                        std::chrono::system_clock::now().time_since_epoch())
                        .count();
  char buf[64];
  std::snprintf(buf, sizeof(buf), "{\"ts\":%.6f,\"event\":\"", ts);
  line += buf;
  json_escape_into(line, event);
  line += "\"";
}

}  // namespace

SweepEventFeed::SweepEventFeed(const std::filesystem::path& path)
    : out_(path, std::ios::binary | std::ios::trunc) {
  if (!out_) {
    throw std::runtime_error("--events-out: cannot open '" + path.string() + "' for writing");
  }
  // One-time schema header (version 2: schema line + obs fields + sweep
  // events). Event and field lists are space-separated strings, not JSON
  // arrays, so every line stays parseable by util::parse_json too.
  std::lock_guard<std::mutex> lock(mu_);
  std::string line;
  begin_line(line, "schema");
  line +=
      ",\"version\":2,\"events\":\"cell_start cell_done cell_failed cell_crashed "
      "cell_killed retry sweep_done\",\"fields\":\"ts event cell scenario seed attempt "
      "elapsed_s rss_kb detail obs\"}\n";
  out_ << line;
  out_.flush();
}

void SweepEventFeed::emit(std::string_view event, std::size_t cell, std::string_view scenario,
                          std::uint64_t seed, int attempt, double elapsed_s, long rss_kb,
                          std::string_view detail, std::string_view extra_json) {
  // The lock covers the ts stamp in begin_line, not just the write: file
  // order and timestamp order must agree for the feed to be validatable.
  std::lock_guard<std::mutex> lock(mu_);
  std::string line;
  line.reserve(192 + scenario.size() + detail.size() + extra_json.size());
  begin_line(line, event);
  line += ",\"cell\":" + std::to_string(cell) + ",\"scenario\":\"";
  json_escape_into(line, scenario);
  line += "\",\"seed\":" + std::to_string(seed) + ",\"attempt\":" + std::to_string(attempt);
  if (elapsed_s >= 0.0) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), ",\"elapsed_s\":%.6f", elapsed_s);
    line += buf;
  }
  if (rss_kb >= 0) line += ",\"rss_kb\":" + std::to_string(rss_kb);
  if (!detail.empty()) {
    line += ",\"detail\":\"";
    json_escape_into(line, detail);
    line += "\"";
  }
  line += extra_json;
  line += "}\n";
  out_ << line;
  out_.flush();  // per-line: the feed must be tail-able mid-sweep
}

void SweepEventFeed::emit_sweep(std::string_view event, std::string_view extra_json) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string line;
  line.reserve(64 + extra_json.size());
  begin_line(line, event);
  line += extra_json;
  line += "}\n";
  out_ << line;
  out_.flush();
}

}  // namespace ebrc::testbed
