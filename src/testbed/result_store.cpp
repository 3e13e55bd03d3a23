#include "testbed/result_store.hpp"

#include <unistd.h>

#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "testbed/fault_injection.hpp"
#include "testbed/scenario_io.hpp"
#include "util/binary_io.hpp"

namespace ebrc::testbed {

namespace {

// "EBRCRES1" little-endian.
constexpr std::uint64_t kMagic = 0x3153455243524245ull;
constexpr std::uint64_t kFormatVersion = 1;

// "EBRCIDX1" little-endian: the index sidecar's magic.
constexpr std::uint64_t kIndexMagic = 0x3158444943524245ull;
constexpr std::uint64_t kIndexVersion = 1;
constexpr std::size_t kIndexHeaderBytes = 2 * 8;
constexpr std::size_t kIndexRecordBytes = 4 * 8;  // fp, seed, salt, checksum

[[nodiscard]] std::uint64_t index_record_checksum(std::uint64_t fp, std::uint64_t seed,
                                                  std::uint64_t salt) {
  util::Fnv1a h;
  h.u64(fp);
  h.u64(seed);
  h.u64(salt);
  return h.digest();
}

[[nodiscard]] std::string hex16(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i) {
    s[static_cast<std::size_t>(i)] = digits[v & 0xF];
    v >>= 4;
  }
  return s;
}

/// Inverse of hex16; false on anything that is not exactly 16 hex digits.
[[nodiscard]] bool parse_hex16(std::string_view s, std::uint64_t& out) {
  if (s.size() != 16) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  out = v;
  return true;
}

[[nodiscard]] std::uint64_t payload_hash(std::string_view payload) {
  util::Fnv1a h;
  h.bytes(payload.data(), payload.size());
  return h.digest();
}

[[nodiscard]] std::optional<std::string> read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return std::nullopt;
  return std::move(buf).str();
}

struct Header {
  std::uint64_t fingerprint = 0;
  std::uint64_t seed = 0;
  std::uint64_t salt = 0;
  std::string_view payload;
};

/// Splits and structurally validates a raw file; nullopt on any defect.
[[nodiscard]] std::optional<Header> open_envelope(std::string_view bytes) {
  util::ByteReader r(bytes);
  if (r.u64() != kMagic) return std::nullopt;
  if (r.u64() != kFormatVersion) return std::nullopt;
  Header h;
  h.fingerprint = r.u64();
  h.seed = r.u64();
  h.salt = r.u64();
  const std::uint64_t hash = r.u64();
  const std::uint64_t len = r.u64();
  if (!r.ok()) return std::nullopt;
  constexpr std::size_t kHeaderBytes = 7 * 8;
  if (bytes.size() != kHeaderBytes + len) return std::nullopt;
  h.payload = bytes.substr(kHeaderBytes);
  if (payload_hash(h.payload) != hash) return std::nullopt;
  return h;
}

}  // namespace

std::string encode_result(const ExperimentResult& r) {
  util::ByteWriter w;
  w.str(r.scenario_name);
  w.u64(r.flows.size());
  for (const auto& f : r.flows) {
    w.str(f.kind);
    w.i64(f.flow_id);
    w.f64(f.throughput_pps);
    w.f64(f.p);
    w.f64(f.mean_rtt_s);
    w.f64(f.formula_rate);
    w.f64(f.normalized);
    w.f64(f.cov_theta_thetahat);
    w.f64(f.normalized_cov);
    w.u64(f.loss_events);
  }
  w.f64(r.tfrc_throughput);
  w.f64(r.tcp_throughput);
  w.f64(r.tfrc_p);
  w.f64(r.tcp_p);
  w.f64(r.poisson_p);
  w.f64(r.tfrc_rtt);
  w.f64(r.tcp_rtt);
  w.f64(r.bottleneck_utilization);
  w.f64(r.breakdown.conservativeness);
  w.f64(r.breakdown.loss_rate_ratio);
  w.f64(r.breakdown.rtt_ratio);
  w.f64(r.breakdown.tcp_formula_ratio);
  w.f64(r.breakdown.friendliness);
  w.u64(r.workload_active ? 1 : 0);
  const auto& wl = r.workload;
  w.u64(wl.arrivals);
  w.u64(wl.completions);
  w.u64(wl.rejections);
  w.f64(wl.mean_flows);
  w.f64(wl.mean_flows_tfrc);
  w.f64(wl.mean_flows_tcp);
  w.u64(wl.peak_flows);
  w.f64(wl.tfrc_completion_s);
  w.f64(wl.tcp_completion_s);
  w.f64(wl.tfrc_completion_cov);
  w.f64(wl.tcp_completion_cov);
  w.f64(wl.tfrc_goodput_pps);
  w.f64(wl.tcp_goodput_pps);
  w.f64(wl.tfrc_share);
  w.f64(wl.tfrc_p);
  w.f64(wl.tcp_p);
  w.f64(wl.mean_flows_aimd);
  w.f64(wl.mean_flows_rcp);
  w.f64(wl.aimd_completion_s);
  w.f64(wl.rcp_completion_s);
  w.f64(wl.aimd_completion_cov);
  w.f64(wl.rcp_completion_cov);
  w.f64(wl.aimd_goodput_pps);
  w.f64(wl.rcp_goodput_pps);
  w.f64(wl.aimd_p);
  w.f64(wl.rcp_p);
  w.f64(wl.qdelay_mean_s);
  // PR 10: the deterministic obs snapshot (probe series are deliberately NOT
  // encoded — a cache hit has no simulator to sample).
  w.u64(r.obs.size());
  for (const auto& [name, value] : r.obs) {
    w.str(name);
    w.f64(value);
  }
  return w.take();
}

std::optional<ExperimentResult> decode_result(std::string_view payload) {
  util::ByteReader r(payload);
  ExperimentResult out;
  out.scenario_name = r.str();
  const std::uint64_t n_flows = r.u64();
  for (std::uint64_t i = 0; i < n_flows && r.ok(); ++i) {
    FlowStats f;
    f.kind = r.str();
    f.flow_id = static_cast<int>(r.i64());
    f.throughput_pps = r.f64();
    f.p = r.f64();
    f.mean_rtt_s = r.f64();
    f.formula_rate = r.f64();
    f.normalized = r.f64();
    f.cov_theta_thetahat = r.f64();
    f.normalized_cov = r.f64();
    f.loss_events = r.u64();
    out.flows.push_back(std::move(f));
  }
  out.tfrc_throughput = r.f64();
  out.tcp_throughput = r.f64();
  out.tfrc_p = r.f64();
  out.tcp_p = r.f64();
  out.poisson_p = r.f64();
  out.tfrc_rtt = r.f64();
  out.tcp_rtt = r.f64();
  out.bottleneck_utilization = r.f64();
  out.breakdown.conservativeness = r.f64();
  out.breakdown.loss_rate_ratio = r.f64();
  out.breakdown.rtt_ratio = r.f64();
  out.breakdown.tcp_formula_ratio = r.f64();
  out.breakdown.friendliness = r.f64();
  out.workload_active = r.u64() != 0;
  auto& wl = out.workload;
  wl.arrivals = r.u64();
  wl.completions = r.u64();
  wl.rejections = r.u64();
  wl.mean_flows = r.f64();
  wl.mean_flows_tfrc = r.f64();
  wl.mean_flows_tcp = r.f64();
  wl.peak_flows = r.u64();
  wl.tfrc_completion_s = r.f64();
  wl.tcp_completion_s = r.f64();
  wl.tfrc_completion_cov = r.f64();
  wl.tcp_completion_cov = r.f64();
  wl.tfrc_goodput_pps = r.f64();
  wl.tcp_goodput_pps = r.f64();
  wl.tfrc_share = r.f64();
  wl.tfrc_p = r.f64();
  wl.tcp_p = r.f64();
  wl.mean_flows_aimd = r.f64();
  wl.mean_flows_rcp = r.f64();
  wl.aimd_completion_s = r.f64();
  wl.rcp_completion_s = r.f64();
  wl.aimd_completion_cov = r.f64();
  wl.rcp_completion_cov = r.f64();
  wl.aimd_goodput_pps = r.f64();
  wl.rcp_goodput_pps = r.f64();
  wl.aimd_p = r.f64();
  wl.rcp_p = r.f64();
  wl.qdelay_mean_s = r.f64();
  const std::uint64_t n_obs = r.u64();
  for (std::uint64_t i = 0; i < n_obs && r.ok(); ++i) {
    std::string name = r.str();
    const double value = r.f64();
    out.obs.emplace_back(std::move(name), value);
  }
  if (!r.ok() || !r.exhausted() || out.flows.size() != n_flows ||
      out.obs.size() != n_obs) {
    return std::nullopt;
  }
  return out;
}

ResultStore::ResultStore(std::filesystem::path root, std::uint64_t salt)
    : root_(std::move(root)), salt_(salt) {
  std::filesystem::create_directories(root_);
  load_or_rebuild_index();
}

std::filesystem::path ResultStore::index_path() const { return root_ / "INDEX.ebrcidx"; }

void ResultStore::load_or_rebuild_index() {
  const auto bytes = read_file(index_path());
  if (!bytes) {
    rebuild_index();
    return;
  }
  // Header, then whole records only; a short/foreign file, a bad checksum,
  // or a torn trailing record all abandon the file and rebuild from the
  // entry filenames — the index is never trusted past its first defect.
  util::ByteReader r(*bytes);
  if (r.u64() != kIndexMagic || r.u64() != kIndexVersion || !r.ok() ||
      (bytes->size() - kIndexHeaderBytes) % kIndexRecordBytes != 0) {
    rebuild_index();
    return;
  }
  std::unordered_set<IndexKey, IndexKeyHash> keys;
  const std::size_t records = (bytes->size() - kIndexHeaderBytes) / kIndexRecordBytes;
  for (std::size_t i = 0; i < records; ++i) {
    const std::uint64_t fp = r.u64();
    const std::uint64_t seed = r.u64();
    const std::uint64_t salt = r.u64();
    const std::uint64_t checksum = r.u64();
    if (!r.ok() || checksum != index_record_checksum(fp, seed, salt)) {
      rebuild_index();
      return;
    }
    if (salt == salt_) keys.insert(IndexKey{fp, seed});
  }
  std::lock_guard<std::mutex> lock(index_mu_);
  index_ = std::move(keys);
}

std::size_t ResultStore::rebuild_index() {
  // Presence is recoverable from the filenames alone — <fp>-<seed>-<salt> is
  // the full key — so the rebuild is one directory walk, no payload reads.
  // Records for ALL salts are preserved; only our salt's keys go in memory.
  struct Record {
    std::uint64_t fp, seed, salt;
  };
  std::vector<Record> records;
  std::unordered_set<IndexKey, IndexKeyHash> keys;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(root_)) {
    if (!entry.is_regular_file()) continue;
    const auto& p = entry.path();
    if (p.extension() != result_file_extension()) continue;
    const std::string stem = p.stem().string();
    std::uint64_t fp = 0, seed = 0, salt = 0;
    if (stem.size() != 16 + 1 + 16 + 1 + 16 || stem[16] != '-' || stem[33] != '-' ||
        !parse_hex16(std::string_view(stem).substr(0, 16), fp) ||
        !parse_hex16(std::string_view(stem).substr(17, 16), seed) ||
        !parse_hex16(std::string_view(stem).substr(34, 16), salt)) {
      continue;  // foreign file wearing our extension; not an entry
    }
    records.push_back(Record{fp, seed, salt});
    if (salt == salt_) keys.insert(IndexKey{fp, seed});
  }

  util::ByteWriter w;
  w.u64(kIndexMagic);
  w.u64(kIndexVersion);
  for (const auto& rec : records) {
    w.u64(rec.fp);
    w.u64(rec.seed);
    w.u64(rec.salt);
    w.u64(index_record_checksum(rec.fp, rec.seed, rec.salt));
  }
  // Temp + rename, like the entries themselves: a crashed rebuild leaves the
  // old index (or none) intact, never a half-written one.
  const auto temp = index_path().concat(".tmp" + std::to_string(::getpid()));
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("ResultStore: cannot create " + temp.string());
    out << w.bytes();
    if (!out.flush()) {
      throw std::runtime_error("ResultStore: write failed for " + temp.string());
    }
  }
  std::filesystem::rename(temp, index_path());

  std::lock_guard<std::mutex> lock(index_mu_);
  index_ = std::move(keys);
  return records.size();
}

void ResultStore::append_index_record(std::uint64_t fp, std::uint64_t seed) const {
  util::ByteWriter w;
  w.u64(fp);
  w.u64(seed);
  w.u64(salt_);
  w.u64(index_record_checksum(fp, seed, salt_));
  std::string record = std::move(w).take();
  if (fault::fire(fault::Kind::kTornIndexRecord, append_seq_.fetch_add(1))) {
    record.resize(record.size() / 2);  // crash mid-append: prefix only
  }
  std::lock_guard<std::mutex> lock(index_mu_);
  {
    std::ofstream out(index_path(), std::ios::binary | std::ios::app);
    out << record;
    // An append failure is not fatal: the in-memory set stays correct for
    // this process and the next reader's checksum walk triggers a rebuild.
  }
  index_.insert(IndexKey{fp, seed});
}

bool ResultStore::index_contains(std::uint64_t fp, std::uint64_t seed) const {
  std::lock_guard<std::mutex> lock(index_mu_);
  return index_.count(IndexKey{fp, seed}) != 0;
}

bool ResultStore::probe(const Scenario& s) const { return index_contains(fingerprint(s), s.seed); }

std::filesystem::path ResultStore::path_for(std::uint64_t fp, std::uint64_t seed) const {
  const std::string name =
      hex16(fp) + "-" + hex16(seed) + "-" + hex16(salt_) + std::string(result_file_extension());
  return root_ / hex16(fp).substr(0, 2) / name;
}

std::filesystem::path ResultStore::path_for(const Scenario& s) const {
  return path_for(fingerprint(s), s.seed);
}

std::optional<ExperimentResult> ResultStore::load(const Scenario& s) const {
  const std::uint64_t fp = fingerprint(s);
  if (!index_contains(fp, s.seed)) {
    // The index answers outright misses with zero filesystem operations —
    // this is what keeps a cold probe of a million-cell sweep O(1) per cell
    // instead of a million failed stats.
    index_filtered_.fetch_add(1, std::memory_order_relaxed);
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  const auto path = path_for(fp, s.seed);
  fs_probes_.fetch_add(1, std::memory_order_relaxed);
  const auto bytes = read_file(path);
  if (!bytes) {
    // Stale index verdict: the entry was quarantined or deleted since the
    // index was read. Degrades to an ordinary miss.
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  const auto quarantine = [&] {
    // A file that exists but does not verify is a damaged entry, not a miss:
    // count it, move it aside for forensics (the re-simulation then stores a
    // fresh entry instead of silently overwriting the evidence), and say so
    // on stderr — stdout stays bit-comparable.
    corrupt_.fetch_add(1, std::memory_order_relaxed);
    misses_.fetch_add(1, std::memory_order_relaxed);
    auto dest = path;
    dest += quarantine_suffix();
    std::error_code ec;
    std::filesystem::rename(path, dest, ec);
    if (!ec) {
      quarantined_.fetch_add(1, std::memory_order_relaxed);
      std::cerr << "[cache] quarantined " << path.string() << "\n";
    }
  };
  const auto envelope = open_envelope(*bytes);
  if (!envelope || envelope->fingerprint != fp || envelope->seed != s.seed ||
      envelope->salt != salt_) {
    quarantine();
    return std::nullopt;
  }
  auto result = decode_result(envelope->payload);
  if (!result) {
    quarantine();
    return std::nullopt;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return result;
}

void ResultStore::store(const Scenario& s, const ExperimentResult& r) const {
  const std::string payload = encode_result(r);
  const std::uint64_t fp = fingerprint(s);
  util::ByteWriter w;
  w.u64(kMagic);
  w.u64(kFormatVersion);
  w.u64(fp);
  w.u64(s.seed);
  w.u64(salt_);
  w.u64(payload_hash(payload));
  w.u64(payload.size());
  const auto path = path_for(fp, s.seed);
  std::filesystem::create_directories(path.parent_path());

  // Temp name unique across threads (counter) AND processes (pid): shards
  // sharing one cache directory may race on the same key, and each writer
  // must own its in-flight bytes until the atomic POSIX rename.
  static std::atomic<std::uint64_t> temp_counter{0};
  const auto temp =
      path.parent_path() /
      (path.filename().string() + ".tmp" + std::to_string(::getpid()) + "." +
       std::to_string(temp_counter.fetch_add(1)));
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("ResultStore: cannot create " + temp.string());
    out << w.bytes() << payload;
    if (!out.flush()) {
      throw std::runtime_error("ResultStore: write failed for " + temp.string());
    }
  }
  std::filesystem::rename(temp, path);
  if (fault::fire(fault::Kind::kTornCacheWrite, write_seq_.fetch_add(1))) {
    // Post-crash corruption model: the rename landed but the data did not.
    std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);
  }
  append_index_record(fp, s.seed);
  stored_.fetch_add(1, std::memory_order_relaxed);
}

ResultStore::Counters ResultStore::counters() const noexcept {
  return Counters{hits_.load(std::memory_order_relaxed),
                  misses_.load(std::memory_order_relaxed),
                  corrupt_.load(std::memory_order_relaxed),
                  stored_.load(std::memory_order_relaxed),
                  quarantined_.load(std::memory_order_relaxed),
                  index_filtered_.load(std::memory_order_relaxed),
                  fs_probes_.load(std::memory_order_relaxed)};
}

bool validate_result_file(const std::filesystem::path& path) {
  const auto bytes = read_file(path);
  if (!bytes) return false;
  const auto envelope = open_envelope(*bytes);
  return envelope && decode_result(envelope->payload).has_value();
}

std::string_view result_file_extension() { return ".ebrcres"; }

std::string_view quarantine_suffix() { return ".corrupt"; }

}  // namespace ebrc::testbed
