// Content-addressed on-disk cache of ExperimentResults.
//
// A run is keyed by (scenario fingerprint, derived seed, code-version salt):
// the fingerprint covers every Scenario field except the seed
// (scenario_io.hpp), the seed is the per-replication derived seed assigned
// before the batch launches, and the salt hashes the simulator's behavioral
// version (bumped by hand) with the result schema (hashed from visit_result),
// so every stale entry silently becomes a miss.
//
// Files are self-contained: a header carrying the magic, format version, the
// full key, and an FNV-1a checksum of the payload, then the payload with
// every double stored as its IEEE bit pattern. The decoder accepts only
// payloads the encoder can write, so an accepted payload re-encodes to the
// same bytes. Loads therefore return bit-identical results, and ANY defect —
// truncation, flipped bytes, a foreign file — fails validation and reads as
// a miss (the runner falls back to re-simulating; it never crashes on a bad
// cache). Writes go through a temp file + rename so concurrent readers and
// crashed writers cannot observe a half-written entry.
//
// Layout under root(): <2 hex of fingerprint>/<fingerprint>-<seed>-<salt>.ebrcres
//
// A sidecar index (root()/INDEX.ebrcidx) makes warm probes O(1): an
// append-only file of 32-byte checksummed (fingerprint, seed, salt) records,
// loaded into memory once at construction, answers "is this key cached?"
// without touching the filesystem — a 10^6-cell sweep against a partial
// cache costs one index read instead of 10^6 failed stats. Every store()
// appends a record; a missing, foreign, or torn index (crash mid-append) is
// detected by the per-record checksum and REBUILT from the entry filenames,
// so the index is a pure accelerator — it can always be deleted. Entries
// that fail validation at load are quarantined to <entry>.corrupt (kept for
// forensics, diagnosed on stderr) rather than silently overwritten; the
// runner then re-simulates and stores a fresh entry.
//
// A hit is the read side of every warm rerun, resume and shard merge, so it
// costs one index probe under a shared lock (appends and rebuilds take it
// exclusively), one open/fstat/read/close of the entry into a per-thread
// buffer sized by fstat, the FNV-1a checksum and the decode. The entry path
// is built as one string; no stream or std::filesystem::path is made per
// hit. The checksum and the scenario fingerprint take about half of a hit's
// time; neither can change without changing the file format or cache keys.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "testbed/experiment.hpp"
#include "testbed/scenario.hpp"

namespace ebrc::testbed {

/// Behavioral version of the simulator: bump by hand on any change that
/// alters sample paths, metric definitions or any cached value (new RNG,
/// packet-path reorder, metric redefinition, a different kernel event count
/// in the kernel_* obs, ...). Result schema changes are salted on their own.
inline constexpr std::uint64_t kBehaviorVersion = 10;

/// FNV-1a over the result schema as visit_result walks it: each field's wire
/// kind and name in order, list elements included.
struct SchemaHash {
  std::uint64_t h = 14695981039346656037ull;

  constexpr void byte(std::uint64_t b) { h = (h ^ (b & 0xff)) * 1099511628211ull; }
  constexpr void text(std::string_view s) {  // NUL-terminated: no two texts alias
    for (const char c : s) byte(static_cast<unsigned char>(c));
    byte(0);
  }
  template <class T>
  constexpr void field(workload::FieldName n, const T&) {
    text(std::is_same_v<T, std::string> ? "str"
         : std::is_same_v<T, double>    ? "f64"
         : std::is_same_v<T, int>       ? "i64"
         : std::is_same_v<T, bool>      ? "flag"
                                        : "u64");
    text(n.str());
  }
  template <class T, class Fn>
  constexpr void list(workload::FieldName n, const std::vector<T>&, Fn elem) {
    text("list");
    text(n.str());
    T item{};
    elem(*this, item);
    text("end");
  }
};

/// The salt: kBehaviorVersion's eight bytes, then the schema.
[[nodiscard]] constexpr std::uint64_t schema_salt(std::uint64_t version) {
  SchemaHash hash;
  for (int i = 0; i < 64; i += 8) hash.byte(version >> i);
  ExperimentResult schema;
  visit_result(hash, schema);
  return hash.h;
}

/// The salt baked into every cache key, so a schema change cannot miss it.
inline constexpr std::uint64_t kResultCacheSalt = schema_salt(kBehaviorVersion);

class ResultStore {
 public:
  /// Creates `root` (and parents) if absent.
  explicit ResultStore(std::filesystem::path root, std::uint64_t salt = kResultCacheSalt);

  [[nodiscard]] const std::filesystem::path& root() const noexcept { return root_; }
  [[nodiscard]] std::uint64_t salt() const noexcept { return salt_; }

  /// Cache probe; nullopt on miss or on a malformed/corrupt file (which also
  /// bumps counters().corrupt and quarantines the file). Keys absent from
  /// the index answer without touching the filesystem. Thread-safe.
  [[nodiscard]] std::optional<ExperimentResult> load(const Scenario& s) const;

  /// Pure in-memory existence probe against the index: zero filesystem
  /// operations, O(1). A true verdict can be stale (entry quarantined or
  /// deleted since the index was read) — load() degrades that to a miss.
  [[nodiscard]] bool probe(const Scenario& s) const;

  /// Persists the result under the scenario's key (temp file + rename; the
  /// last writer of identical content wins harmlessly) and appends its index
  /// record. Thread-safe.
  void store(const Scenario& s, const ExperimentResult& r) const;

  /// Where the scenario's entry lives (exposed for tests and tooling).
  [[nodiscard]] std::filesystem::path path_for(const Scenario& s) const;

  /// Rescans root() for entry files and rewrites the index from their
  /// filenames (all salts preserved), then reloads the in-memory set.
  /// Returns the number of records written. Use after placing entries
  /// without going through store() (merge_results does).
  std::size_t rebuild_index();

  struct Counters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t corrupt = 0;
    std::uint64_t stored = 0;
    std::uint64_t quarantined = 0;      // corrupt entries renamed to *.corrupt
    std::uint64_t index_filtered = 0;   // misses answered by the index alone
    std::uint64_t fs_probes = 0;        // load() calls that touched the filesystem
  };
  [[nodiscard]] Counters counters() const noexcept;

  /// The index sidecar's location (root()/INDEX.ebrcidx).
  [[nodiscard]] std::filesystem::path index_path() const;

 private:
  /// Writes the entry's path into `out` as one string (prefix_, fanout,
  /// name, entry_suffix_), for the fingerprint load() and store() compute
  /// once.
  void entry_path(std::uint64_t fp, std::uint64_t seed, std::string& out) const;

  /// Loads the index file into index_; any structural defect (missing file,
  /// bad header, torn record) falls through to rebuild_index().
  void load_or_rebuild_index();
  void append_index_record(std::uint64_t fp, std::uint64_t seed) const;
  [[nodiscard]] bool index_contains(std::uint64_t fp, std::uint64_t seed) const;

  std::filesystem::path root_;
  std::uint64_t salt_;
  std::string prefix_;        // root_ with a trailing separator
  std::string entry_suffix_;  // "-<salt hex>.ebrcres"
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  mutable std::atomic<std::uint64_t> corrupt_{0};
  mutable std::atomic<std::uint64_t> stored_{0};
  mutable std::atomic<std::uint64_t> quarantined_{0};
  mutable std::atomic<std::uint64_t> index_filtered_{0};
  mutable std::atomic<std::uint64_t> fs_probes_{0};
  mutable std::atomic<std::uint64_t> write_seq_{0};   // fault-injection ordinal
  mutable std::atomic<std::uint64_t> append_seq_{0};  // fault-injection ordinal

  struct IndexKey {
    std::uint64_t fp = 0;
    std::uint64_t seed = 0;
    bool operator==(const IndexKey&) const = default;
  };
  struct IndexKeyHash {
    std::size_t operator()(const IndexKey& k) const noexcept {
      // splitmix64-style mix keeps the table balanced even though fp and
      // seed are themselves hash-like.
      std::uint64_t x = k.fp ^ (k.seed + 0x9e3779b97f4a7c15ull);
      x ^= x >> 30;
      x *= 0xbf58476d1ce4e5b9ull;
      x ^= x >> 27;
      return static_cast<std::size_t>(x);
    }
  };
  /// Probes take it shared; appends and rebuilds take it exclusively.
  mutable std::shared_mutex index_mu_;
  mutable std::unordered_set<IndexKey, IndexKeyHash> index_;
};

/// The raw payload codec, exposed for the merge tool and tests.
[[nodiscard]] std::string encode_result(const ExperimentResult& r);
[[nodiscard]] std::optional<ExperimentResult> decode_result(std::string_view payload);

/// True when `path` holds a structurally valid result file (any key):
/// magic, version, length, and checksum all verify. merge_results uses this
/// to skip corrupt shard entries instead of propagating them.
[[nodiscard]] bool validate_result_file(const std::filesystem::path& path);

/// The store's file extension (".ebrcres").
[[nodiscard]] std::string_view result_file_extension();

/// The quarantine suffix appended to corrupt entries (".corrupt").
[[nodiscard]] std::string_view quarantine_suffix();

}  // namespace ebrc::testbed
