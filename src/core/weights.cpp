#include "core/weights.hpp"

#include <cmath>
#include <map>
#include <mutex>
#include <numeric>
#include <stdexcept>

namespace ebrc::core {
namespace {

std::vector<double> normalized(std::vector<double> w) {
  const double sum = std::accumulate(w.begin(), w.end(), 0.0);
  for (double& v : w) v /= sum;
  return w;
}

}  // namespace

std::vector<double> tfrc_weights(std::size_t L) {
  if (L == 0) throw std::invalid_argument("tfrc_weights: L must be >= 1");
  std::vector<double> w(L);
  const double half = static_cast<double>(L) / 2.0;
  for (std::size_t l = 1; l <= L; ++l) {
    const double lf = static_cast<double>(l);
    w[l - 1] = lf <= std::ceil(half) ? 1.0 : 1.0 - (lf - half) / (half + 1.0);
  }
  return normalized(std::move(w));
}

std::shared_ptr<const std::vector<double>> shared_tfrc_weights(std::size_t L) {
  static std::mutex mu;
  static std::map<std::size_t, std::shared_ptr<const std::vector<double>>> profiles;
  const std::lock_guard<std::mutex> lock(mu);
  auto& w = profiles[L];
  if (!w) w = std::make_shared<const std::vector<double>>(tfrc_weights(L));
  return w;
}

std::vector<double> uniform_weights(std::size_t L) {
  if (L == 0) throw std::invalid_argument("uniform_weights: L must be >= 1");
  return std::vector<double>(L, 1.0 / static_cast<double>(L));
}

std::vector<double> geometric_weights(std::size_t L, double rho) {
  if (L == 0) throw std::invalid_argument("geometric_weights: L must be >= 1");
  if (!(rho > 0.0 && rho <= 1.0)) throw std::invalid_argument("geometric_weights: rho in (0,1]");
  std::vector<double> w(L);
  double v = 1.0;
  for (std::size_t l = 0; l < L; ++l) {
    w[l] = v;
    v *= rho;
  }
  return normalized(std::move(w));
}

void validate_weights(const std::vector<double>& w) {
  if (w.empty()) throw std::invalid_argument("weights: empty");
  if (!(w.front() > 0.0)) throw std::invalid_argument("weights: w1 must be > 0");
  double sum = 0.0;
  for (double v : w) {
    if (v < 0.0) throw std::invalid_argument("weights: negative entry");
    sum += v;
  }
  if (std::abs(sum - 1.0) > 1e-9) throw std::invalid_argument("weights: must sum to 1");
}

}  // namespace ebrc::core
