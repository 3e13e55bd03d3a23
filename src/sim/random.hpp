// Random-number utilities.
//
// One Rng per stochastic component, split deterministically from a root seed,
// keeps experiments reproducible and components decoupled (adding a flow does
// not perturb another flow's sample path).
//
// The engine is xoshiro256++ (Blackman & Vigna): 32 bytes of state and a
// handful of xor/rotate ops per draw, versus the 2.5 KB state and tempering
// pipeline of the std::mt19937_64 it replaced. Every stochastic component —
// RED's per-packet coin, the Poisson probes' inter-send gaps, the loss
// interval processes — embeds an Rng by value, so the swap shrinks those
// objects to cache-line size and makes the common draws (uniform,
// exponential) header-inline. Per-component seed derivation (hash_seed over
// the component name, splitmix64 avalanche) is unchanged; sample paths shift
// only because the engine's output stream differs.
#pragma once

#include <cstdint>
#include <string_view>

namespace ebrc::sim {

/// Deterministic 64-bit hash (FNV-1a) used to derive per-component seeds
/// from a root seed and a component name.
[[nodiscard]] std::uint64_t hash_seed(std::uint64_t root, std::string_view component);

/// xoshiro256++ engine. Satisfies UniformRandomBitGenerator, so the std
/// distributions the cold paths still use (geometric, uniform_int) plug in
/// directly.
class Xoshiro256pp {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  /// Seeds the 256-bit state from a splitmix64 stream over `seed`, the
  /// initialization the xoshiro authors recommend (an all-zero state, which
  /// the engine cannot leave, is impossible from splitmix64 output).
  explicit Xoshiro256pp(std::uint64_t seed) noexcept {
    std::uint64_t x = seed;
    for (auto& word : s_) word = splitmix64(x);
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

 private:
  [[nodiscard]] static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  static constexpr std::uint64_t splitmix64(std::uint64_t& x) noexcept {
    std::uint64_t z = (x += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  std::uint64_t s_[4];
};

/// Wrapper around the engine exposing the distributions the paper's
/// experiments need. The per-packet draws are defined inline below.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : engine_(seed) {}

  /// Child generator for a named component; independent-looking stream.
  [[nodiscard]] Rng split(std::string_view component) const;

  /// U(0,1), open at 1.
  double uniform() noexcept;
  /// U(lo,hi).
  double uniform(double lo, double hi) noexcept;
  /// Exponential with given mean (NOT rate). mean > 0.
  double exponential_mean(double mean);
  /// Shifted exponential: x0 + Exp(a), the density of Section V-A.1:
  /// mu(x) = a exp(-a (x - x0)), x >= x0. Mean x0 + 1/a.
  double shifted_exponential(double x0, double a);
  /// Bernoulli with success probability p in [0,1].
  bool bernoulli(double p);
  /// Pareto with shape alpha > 1 and given mean (used for on/off cross traffic).
  double pareto_mean(double mean, double alpha);
  /// Uniform integer in [lo, hi].
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Underlying engine (for std distributions on cold paths and in tests).
  Xoshiro256pp& engine() noexcept { return engine_; }

 private:
  Xoshiro256pp engine_;
};

/// Parameters (x0, a) of the shifted exponential that realize a target
/// loss-event rate p = 1/mean and the PAPER's coefficient of variation cv,
/// per Section V-A.1: mean = x0 + 1/a and cv^2 = (1/a)/(x0 + 1/a).
///
/// Convention note: since the distribution's standard deviation is 1/a, the
/// conventional coefficient of variation sd/mean equals the paper's cv^2.
/// All cv arguments in this library follow the paper's convention so the
/// figure axes match (cv in (0, 1], cv = 1 the pure exponential).
struct ShiftedExpParams {
  double x0;
  double a;
};
[[nodiscard]] ShiftedExpParams shifted_exp_for(double p, double cv);

// ---- inline fast paths ------------------------------------------------------

inline double Rng::uniform() noexcept {
  // 53 mantissa bits of one draw: uniform on [0, 1), open at 1.
  return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
}

inline double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

}  // namespace ebrc::sim
