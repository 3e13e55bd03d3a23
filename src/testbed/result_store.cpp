#include "testbed/result_store.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <shared_mutex>
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

/// Appends the top `digits` hex digits of v, most significant first.
void append_hex(std::string& out, std::uint64_t v, int digits = 16) {
  static constexpr char kDigits[] = "0123456789abcdef";
  for (int shift = 60; digits > 0; shift -= 4, --digits) out += kDigits[(v >> shift) & 0xF];
}

/// "-<salt as 16 hex digits>.ebrcres": the tail every entry name of a store shares.
[[nodiscard]] std::string entry_suffix(std::uint64_t salt) {
  std::string out;
  out.reserve(1 + 16 + result_file_extension().size());
  out += '-';
  append_hex(out, salt);
  out += result_file_extension();
  return out;
}

/// Inverse of append_hex over 16 digits; false on anything that is not exactly 16 hex digits.
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

/// Reads the whole file into `buf`, sized by fstat, with plain POSIX calls:
/// every cache hit pays this, so no stream or path objects, and a caller
/// that keeps `buf` reuses its capacity. False when the file is absent, not
/// a regular file, or a read fails. A file that shrinks mid-read comes back
/// short, and the envelope check rejects it.
[[nodiscard]] bool read_file(const char* path, std::string& buf) {
  const int fd = ::open(path, O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  struct stat st {};
  bool ok = ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode);
  std::size_t got = 0;
  if (ok) buf.resize(static_cast<std::size_t>(st.st_size));
  while (ok && got < buf.size()) {
    const ssize_t n = ::read(fd, buf.data() + got, buf.size() - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ok = n == 0;
      break;
    }
    got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  buf.resize(got);
  return ok;
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

// ---- the payload codec: visit_result's traversal, written or read ----------

using workload::FieldName;

struct PayloadWriter {
  util::ByteWriter w;

  void field(FieldName, const std::string& v) { w.str(v); }
  void field(FieldName, double v) { w.f64(v); }
  void field(FieldName, std::uint64_t v) { w.u64(v); }
  void field(FieldName, int v) { w.i64(v); }
  void field(FieldName, bool v) { w.u64(v ? 1 : 0); }
  template <class T, class Fn>
  void list(FieldName, const std::vector<T>& items, Fn elem) {
    w.u64(items.size());
    for (const T& item : items) elem(*this, item);
  }
};

/// The writer's inverse. `canonical` drops on a word the writer cannot
/// produce (a flag other than 0/1, an i64 outside int), so an accepted
/// payload always re-encodes to itself.
struct PayloadReader {
  util::ByteReader r;
  bool canonical = true;

  void field(FieldName, std::string& v) { v = r.str(); }
  void field(FieldName, double& v) { v = r.f64(); }
  void field(FieldName, std::uint64_t& v) { v = r.u64(); }
  void field(FieldName, int& v) {
    const std::int64_t x = r.i64();
    v = static_cast<int>(x);
    canonical = canonical && v == x;
  }
  void field(FieldName, bool& v) {
    const std::uint64_t x = r.u64();
    v = x != 0;
    canonical = canonical && x <= 1;
  }
  template <class T, class Fn>
  void list(FieldName, std::vector<T>& items, Fn elem) {
    const std::uint64_t n = r.u64();
    // One allocation per list instead of a doubling series. Each element
    // takes at least one word, so a count the bytes left cannot hold (a
    // corrupt payload) never sizes the reservation.
    items.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(n, r.remaining() / 8)));
    for (std::uint64_t i = 0; i < n && r.ok(); ++i) elem(*this, items.emplace_back());
  }
};

}  // namespace

std::string encode_result(const ExperimentResult& r) {
  PayloadWriter out;
  visit_result(out, r);
  return out.w.take();
}

std::optional<ExperimentResult> decode_result(std::string_view payload) {
  PayloadReader in{util::ByteReader(payload)};
  ExperimentResult out;
  visit_result(in, out);
  if (!in.r.ok() || !in.r.exhausted() || !in.canonical) return std::nullopt;
  return out;
}

ResultStore::ResultStore(std::filesystem::path root, std::uint64_t salt)
    : root_(std::move(root)),
      salt_(salt),
      prefix_((root_ / "").string()),
      entry_suffix_(entry_suffix(salt_)) {
  std::filesystem::create_directories(root_);
  load_or_rebuild_index();
}

std::filesystem::path ResultStore::index_path() const { return root_ / "INDEX.ebrcidx"; }

void ResultStore::load_or_rebuild_index() {
  std::string bytes;
  if (!read_file(index_path().c_str(), bytes)) {
    rebuild_index();
    return;
  }
  // Header, then whole records only; a short/foreign file, a bad checksum,
  // or a torn trailing record all abandon the file and rebuild from the
  // entry filenames — the index is never trusted past its first defect.
  util::ByteReader r(bytes);
  if (r.u64() != kIndexMagic || r.u64() != kIndexVersion || !r.ok() ||
      (bytes.size() - kIndexHeaderBytes) % kIndexRecordBytes != 0) {
    rebuild_index();
    return;
  }
  const std::size_t records = (bytes.size() - kIndexHeaderBytes) / kIndexRecordBytes;
  std::unordered_set<IndexKey, IndexKeyHash> keys;
  keys.reserve(records);
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
  const std::unique_lock lock(index_mu_);
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

  const std::unique_lock lock(index_mu_);
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
  const std::unique_lock lock(index_mu_);
  {
    std::ofstream out(index_path(), std::ios::binary | std::ios::app);
    out << record;
    // An append failure is not fatal: the in-memory set stays correct for
    // this process and the next reader's checksum walk triggers a rebuild.
  }
  index_.insert(IndexKey{fp, seed});
}

bool ResultStore::index_contains(std::uint64_t fp, std::uint64_t seed) const {
  const std::shared_lock lock(index_mu_);
  return index_.count(IndexKey{fp, seed}) != 0;
}

bool ResultStore::probe(const Scenario& s) const { return index_contains(fingerprint(s), s.seed); }

void ResultStore::entry_path(std::uint64_t fp, std::uint64_t seed, std::string& out) const {
  out.clear();
  out += prefix_;
  append_hex(out, fp, 2);
  out += '/';
  append_hex(out, fp);
  out += '-';
  append_hex(out, seed);
  out += entry_suffix_;
}

std::filesystem::path ResultStore::path_for(const Scenario& s) const {
  std::string path;
  entry_path(fingerprint(s), s.seed, path);
  return path;
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
  // One path and one file buffer per thread, kept across hits: entries are
  // all about the same size, so after a thread's first hit a read allocates
  // nothing.
  thread_local std::string path;
  thread_local std::string bytes;
  entry_path(fp, s.seed, path);
  fs_probes_.fetch_add(1, std::memory_order_relaxed);
  if (!read_file(path.c_str(), bytes)) {
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
    const std::string dest = path + std::string(quarantine_suffix());
    if (std::rename(path.c_str(), dest.c_str()) == 0) {
      quarantined_.fetch_add(1, std::memory_order_relaxed);
      std::cerr << "[cache] quarantined " << path << "\n";
    }
  };
  const auto envelope = open_envelope(bytes);
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
  std::string entry;
  entry_path(fp, s.seed, entry);
  const std::filesystem::path path = entry;
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
  std::string bytes;
  if (!read_file(path.c_str(), bytes)) return false;
  const auto envelope = open_envelope(bytes);
  return envelope && decode_result(envelope->payload).has_value();
}

std::string_view result_file_extension() { return ".ebrcres"; }

std::string_view quarantine_suffix() { return ".corrupt"; }

}  // namespace ebrc::testbed
