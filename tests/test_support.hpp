// Test support shared across test binaries: a temporary directory that
// cleans up after itself, and the format-independent moves of the mutation
// fuzzers.
#pragma once

#include <unistd.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "sim/random.hpp"

namespace ebrc::testing {

/// A fresh directory under the system temp dir, removed on destruction.
/// Named by process id and a per-process counter, so concurrent test
/// binaries and several live instances in one test never share one.
struct TempDir {
  std::filesystem::path path;
  TempDir() {
    static std::atomic<int> counter{0};
    path = std::filesystem::temp_directory_path() /
           ("ebrc_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter.fetch_add(1)));
    std::filesystem::remove_all(path);  // a stale directory of a recycled pid
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
};

/// Byte-string mutations over one fixed-seed sim::Rng. A fuzzer keeps its
/// seed, its operator mix and its format-specific operators, and calls
/// these for the moves every format shares, so each run replays the same
/// mutants. Each move draws in the order it is written here; reordering the
/// draws changes every fuzzer's mutant stream.
class MutationRng {
 public:
  explicit MutationRng(std::uint64_t seed) : rng_(seed) {}

  /// Uniform in [0, n); 0 when n is 0.
  std::size_t below(std::size_t n) {
    if (n == 0) return 0;
    return static_cast<std::size_t>(rng_.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  }

  /// Flips one bit of one byte (no-op on an empty string).
  void flip_bit(std::string& s) {
    if (s.empty()) return;
    const auto bit = static_cast<char>(1u << below(8));
    s[below(s.size())] ^= bit;
  }

  /// Sets one byte to `byte()` (no-op, and no draw, on an empty string).
  template <class ByteFn>
  void set_byte(std::string& s, ByteFn&& byte) {
    if (s.empty()) return;
    const char c = byte();
    s[below(s.size())] = c;
  }

  /// Inserts `count` copies of `c` at a uniform position.
  void insert(std::string& s, std::size_t count, char c) {
    s.insert(below(s.size() + 1), count, c);
  }

  /// Cuts `s` to a uniform length in [0, size].
  void truncate(std::string& s) { s.resize(below(s.size() + 1)); }

  /// A prefix of `s` followed by the tail of one of `seeds`.
  void splice(std::string& s, const std::vector<std::string>& seeds) {
    const std::string& other = seeds[below(seeds.size())];
    const std::size_t cut = below(s.size() + 1);
    s = s.substr(0, cut) + other.substr(below(other.size() + 1));
  }

 private:
  sim::Rng rng_;
};

}  // namespace ebrc::testing
