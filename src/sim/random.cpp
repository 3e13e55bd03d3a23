#include "sim/random.hpp"

#include <cassert>
#include <cmath>
#include <random>
#include <stdexcept>

namespace ebrc::sim {

std::uint64_t hash_seed(std::uint64_t root, std::string_view component) {
  // FNV-1a over the component name, folded with the root seed.
  std::uint64_t h = 14695981039346656037ull ^ root;
  for (unsigned char c : component) {
    h ^= c;
    h *= 1099511628211ull;
  }
  // Final avalanche (splitmix64 finalizer) so nearby roots diverge.
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

Rng Rng::split(std::string_view component) const {
  // Derive a child seed from this engine's *initial* configuration: we use a
  // copy so splitting never disturbs this generator's own stream.
  Xoshiro256pp probe = engine_;
  const std::uint64_t salt = probe();
  return Rng(hash_seed(salt, component));
}

double Rng::exponential_mean(double mean) {
  if (mean <= 0) throw std::invalid_argument("exponential_mean: mean must be > 0");
  // Inverse CDF on 1-u with u in [0,1): log1p(-u) is finite and <= 0.
  return -std::log1p(-uniform()) * mean;
}

double Rng::shifted_exponential(double x0, double a) {
  if (x0 < 0 || a <= 0) throw std::invalid_argument("shifted_exponential: need x0 >= 0, a > 0");
  return x0 - std::log1p(-uniform()) / a;
}

bool Rng::bernoulli(double p) {
  if (p < 0 || p > 1) throw std::invalid_argument("bernoulli: p outside [0,1]");
  return uniform() < p;
}

double Rng::pareto_mean(double mean, double alpha) {
  if (alpha <= 1) throw std::invalid_argument("pareto_mean: alpha must be > 1");
  const double xm = mean * (alpha - 1.0) / alpha;  // scale for the target mean
  const double u = uniform();
  return xm / std::pow(1.0 - u, 1.0 / alpha);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
}

ShiftedExpParams shifted_exp_for(double p, double cv) {
  if (p <= 0) throw std::invalid_argument("shifted_exp_for: p must be > 0");
  if (cv <= 0 || cv > 1) {
    // cv^2 = (1/a) / (x0 + 1/a) <= 1, with equality iff x0 = 0 (pure
    // exponential). cv -> 0 degenerates to the constant x0.
    throw std::invalid_argument("shifted_exp_for: cv must lie in (0, 1]");
  }
  const double mean = 1.0 / p;
  const double inv_a = cv * cv * mean;  // 1/a = cv^2 * mean
  return ShiftedExpParams{mean - inv_a, 1.0 / inv_a};
}

}  // namespace ebrc::sim
