#include "testbed/supervisor.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#if defined(__GLIBC__)
#include <malloc.h>
#include <stdio_ext.h>
#endif

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
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

namespace {

/// A forked child under supervision.
struct Child {
  pid_t pid = -1;
  int pidfd = -1;  // -1 where the kernel lacks pidfd_open
  int out = -1;    // nonblocking read end of the child's stdout+stderr pipe
};

/// Forks a child whose stdout and stderr both go to a fresh pipe, and runs
/// `main` in it; `main` must end the child with _exit(). Returns false with
/// the reason in `error` if the pipe or the fork fails.
template <typename Main>
bool fork_child(Child& child, std::string& error, Main&& main) {
  int fds[2] = {-1, -1};
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    error = errno_message("pipe");
    return false;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    error = errno_message("fork");
    ::close(fds[0]);
    ::close(fds[1]);
    return false;
  }
  if (pid == 0) {
    // Die with the parent: a crashed supervisor must not leak workers.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::close(fds[0]);
#if defined(__GLIBC__)
    // Discard the parent's not-yet-flushed stdio buffers inherited across
    // the fork: the child's flushes must emit only what the CHILD wrote,
    // not replay half the parent's banner into the stderr tail.
    __fpurge(stdout);
    __fpurge(stderr);
#endif
    // Both stdout and stderr go to the supervision pipe so nothing a dying
    // worker prints can reach the parent's bit-comparable stdout.
    ::dup2(fds[1], STDOUT_FILENO);
    ::dup2(fds[1], STDERR_FILENO);
    if (fds[1] != STDOUT_FILENO && fds[1] != STDERR_FILENO) ::close(fds[1]);
    main();
    ::_exit(1);  // unreachable: main() exits
  }
  ::close(fds[1]);
  ::fcntl(fds[0], F_SETFL, ::fcntl(fds[0], F_GETFL, 0) | O_NONBLOCK);
  child.pid = pid;
  child.pidfd = open_pidfd(pid);
  child.out = fds[0];
  return true;
}

/// Flushes every stdio buffer the child wrote to onto the supervision pipe.
void flush_stdio() {
  std::cout.flush();
  std::cerr.flush();
  std::fflush(nullptr);
}

// ---- the persistent worker's channel ----------------------------------------
//
// Request: {u64 cell, i64 attempt}. Reply: {u64 payload bytes, i64 peak rss
// kB} then the payload. Host byte order: both ends are the same binary.

constexpr std::size_t kRequestBytes = 16;
constexpr std::size_t kReplyHeaderBytes = 16;

bool read_exact(int fd, void* data, std::size_t n) {
  auto* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t r = ::read(fd, p, n);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    p += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

bool send_all(int fd, const void* data, std::size_t n) {
  const auto* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t r = ::send(fd, p, n, MSG_NOSIGNAL);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    p += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

/// Starts a new high-water window for this process's resident set: hands
/// the heap earlier cells freed back to the system, then resets VmHWM to
/// the current resident set, so no earlier cell's memory counts toward the
/// next cell's peak.
void reset_peak_rss() {
#if defined(__GLIBC__)
  ::malloc_trim(0);
#endif
  const int fd = ::open("/proc/self/clear_refs", O_WRONLY | O_CLOEXEC);
  if (fd < 0) return;  // then VmHWM is the peak since the worker began
  (void)!::write(fd, "5", 1);
  ::close(fd);
}

/// VmHWM in kB: the peak resident set since the last reset_peak_rss().
long peak_rss_kb() {
  char buf[4096];
  ssize_t n = -1;
  if (const int fd = ::open("/proc/self/status", O_RDONLY | O_CLOEXEC); fd >= 0) {
    n = ::read(fd, buf, sizeof(buf) - 1);
    ::close(fd);
  }
  if (n > 0) {
    buf[n] = '\0';
    if (const char* p = std::strstr(buf, "VmHWM:")) return std::strtol(p + 6, nullptr, 10);
  }
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

/// The persistent worker's loop: one reply per request until the parent
/// closes the channel.
[[noreturn]] void serve_requests(int chan, const SupervisedWorker::Serve& serve) {
  for (;;) {
    unsigned char req[kRequestBytes];
    if (!read_exact(chan, req, sizeof(req))) ::_exit(0);  // channel closed: done
    WorkerRequest request;
    std::memcpy(&request.cell, req, 8);
    std::memcpy(&request.attempt, req + 8, 8);
    reset_peak_rss();
    std::string payload;
    try {
      payload = serve(request);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "worker: %s\n", e.what());
      flush_stdio();
      ::_exit(1);
    } catch (...) {
      std::fprintf(stderr, "worker: unknown exception\n");
      flush_stdio();
      ::_exit(1);
    }
    // Flushed before the reply, so this cell's output is all in the pipe by
    // the time the parent sees the reply, and none of it reaches the next
    // cell's tail.
    flush_stdio();
    unsigned char header[kReplyHeaderBytes];
    const std::uint64_t size = payload.size();
    const std::int64_t rss = peak_rss_kb();
    std::memcpy(header, &size, 8);
    std::memcpy(header + 8, &rss, 8);
    if (!send_all(chan, header, sizeof(header)) ||
        !send_all(chan, payload.data(), payload.size())) {
      ::_exit(1);
    }
  }
}

/// A reply as it arrives on the parent's (nonblocking) end of the channel.
struct Reply {
  int fd = -1;
  bool open = true;
  std::string bytes;

  /// The payload's length, once the header is in.
  [[nodiscard]] std::uint64_t size() const {
    std::uint64_t size = 0;
    std::memcpy(&size, bytes.data(), 8);
    return size;
  }
  [[nodiscard]] bool complete() const {
    return bytes.size() >= kReplyHeaderBytes && bytes.size() - kReplyHeaderBytes >= size();
  }
  [[nodiscard]] long rss_kb() const {
    std::int64_t rss = 0;
    std::memcpy(&rss, bytes.data() + 8, 8);
    return static_cast<long>(rss);
  }
  /// Reads what is available; false once the channel is closed.
  bool read() {
    char buf[65536];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (n > 0) {
        bytes.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
  }
};

/// The one wait behind every supervised request: a poll over the worker's
/// output pipe, its reply channel, and its pidfd, with the time left to the
/// deadline as timeout. Returns true once `reply` is complete while the
/// worker lives; false once the worker has been reaped, with `status` and
/// `ru` filled. SIGKILLs the worker at the deadline (and then only the reap
/// ends the wait, even if a reply races the kill).
bool await_child(const Child& child, Reply& reply, Clock::time_point t0,
                 const WorkerLimits& limits, std::string& tail, WorkerOutcome& out,
                 int& status, rusage& ru) {
  const bool has_deadline = limits.deadline_s > 0.0;
  const auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(
                                     has_deadline ? limits.deadline_s : 0.0));
  // The child closes the pipe before it becomes reapable, so EOF alone
  // cannot signal the exit; the pidfd does. Kernels without pidfd_open fall
  // back to re-checking the reap every kFallbackPollMs.
  bool out_open = true;
  for (;;) {
    if (!out.killed && reply.complete()) {
      // Whatever the worker printed before replying is already in the pipe.
      drain_pipe(child.out, tail, limits.stderr_tail_bytes);
      return true;
    }
    const pid_t r = ::wait4(child.pid, &status, WNOHANG, &ru);
    if (r == child.pid) break;
    if (r < 0 && errno != EINTR) break;  // ECHILD: nothing left to reap
    int timeout_ms = -1;
    if (has_deadline && !out.killed) {
      const auto left = deadline - Clock::now();
      if (left <= Clock::duration::zero()) {
        ::kill(child.pid, SIGKILL);
        out.killed = true;
        continue;
      }
      timeout_ms = static_cast<int>(
          std::chrono::ceil<std::chrono::milliseconds>(left).count());
    }
    if (child.pidfd < 0 && (timeout_ms < 0 || timeout_ms > kFallbackPollMs)) {
      timeout_ms = kFallbackPollMs;
    }
    pollfd fds[3];
    nfds_t n = 0;
    const nfds_t out_at = out_open ? n++ : 3;
    if (out_open) fds[out_at] = {child.out, POLLIN, 0};
    const bool reading = reply.open;
    const nfds_t reply_at = reading ? n++ : 3;
    if (reading) fds[reply_at] = {reply.fd, POLLIN, 0};
    if (child.pidfd >= 0) fds[n++] = {child.pidfd, POLLIN, 0};
    if (::poll(fds, n, timeout_ms) <= 0) continue;
    if (out_open && fds[out_at].revents != 0) {
      out_open = drain_pipe(child.out, tail, limits.stderr_tail_bytes);
    }
    if (reading && fds[reply_at].revents != 0) reply.open = reply.read();
  }
  // The pipe buffer can still hold the child's last words after the reap.
  if (out_open) drain_pipe(child.out, tail, limits.stderr_tail_bytes);
  return false;
}

/// Classifies a reaped child's wait status into `out`.
void set_exit_status(WorkerOutcome& out, int status, const rusage& ru) {
  out.max_rss_kb = ru.ru_maxrss;
  if (WIFEXITED(status)) {
    out.exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    out.term_signal = WTERMSIG(status);
    // A SIGKILL we sent is a deadline kill, not a crash.
    out.crashed = !(out.killed && out.term_signal == SIGKILL);
  }
}

[[nodiscard]] double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

SupervisedWorker::SupervisedWorker(Serve serve) : serve_(std::move(serve)) {}

SupervisedWorker::~SupervisedWorker() { retire(); }

bool SupervisedWorker::spawn(std::string* error) {
  if (pid_ >= 0) return true;
  std::string why;
  int sv[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
    why = errno_message("socketpair");
  } else {
    Child child;
    if (fork_child(child, why, [&] {
          ::close(sv[0]);
          serve_requests(sv[1], serve_);
        })) {
      ::close(sv[1]);
      pid_ = child.pid;
      pidfd_ = child.pidfd;
      out_ = child.out;
      chan_ = sv[0];
      ++spawned_;
      return true;
    }
    ::close(sv[0]);
    ::close(sv[1]);
  }
  if (error != nullptr) *error = why;
  return false;
}

WorkerOutcome SupervisedWorker::call(const WorkerRequest& request, const WorkerLimits& limits,
                                     std::string& reply) {
  WorkerOutcome out;
  if (!spawn(&out.stderr_tail)) return out;
  const auto t0 = Clock::now();
  unsigned char req[kRequestBytes];
  std::memcpy(req, &request.cell, 8);
  std::memcpy(req + 8, &request.attempt, 8);
  // A failed send means the worker is gone; the wait below reaps it.
  (void)send_all(chan_, req, sizeof(req));

  Reply r;
  r.fd = chan_;
  int status = 0;
  rusage ru{};
  const Child child{pid_, pidfd_, out_};
  const bool replied = await_child(child, r, t0, limits, out.stderr_tail, out, status, ru);
  out.elapsed_s = seconds_since(t0);
  if (replied) {
    out.ok = true;
    out.max_rss_kb = r.rss_kb();
    reply.assign(r.bytes, kReplyHeaderBytes, r.size());
    return out;
  }
  forget();
  set_exit_status(out, status, ru);
  if (WIFEXITED(status) && out.exit_code == 0) {
    out.stderr_tail += "worker exited before its reply was complete\n";
  }
  return out;
}

void SupervisedWorker::retire() {
  if (pid_ < 0) return;
  // shutdown() reaches the socket itself, not just this descriptor, so the
  // idle worker reads EOF and exits 0 even if a sibling inherited a copy.
  ::shutdown(chan_, SHUT_RDWR);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  forget();
}

void SupervisedWorker::forget() {
  ::close(out_);
  ::close(chan_);
  if (pidfd_ >= 0) ::close(pidfd_);
  pid_ = pidfd_ = out_ = chan_ = -1;
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
