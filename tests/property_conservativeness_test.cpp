// Property sweep (Theorem 1 / Corollary 1): for every simplified-family
// throughput function, every loss-event rate, every interval variability and
// every estimator window, i.i.d. loss-event intervals (cov[theta, hat-theta]
// = 0) plus convex g must yield a conservative basic control. This is the
// paper's central guarantee, swept over a parameter grid.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/analyzer.hpp"
#include "core/weights.hpp"
#include "loss/loss_process.hpp"
#include "model/throughput_function.hpp"

namespace {

using namespace ebrc::core;

struct Case {
  const char* function;
  double p;
  double cv;
  std::size_t L;
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  const auto& c = info.param;
  std::string s = std::string(c.function) + "_p" + std::to_string(int(c.p * 1000)) + "_cv" +
                  std::to_string(int(c.cv * 100)) + "_L" + std::to_string(c.L);
  for (char& ch : s) {
    if (ch == '-' || ch == '.') ch = '_';
  }
  return s;
}

class ConservativenessSweep : public ::testing::TestWithParam<Case> {};

TEST_P(ConservativenessSweep, BasicControlIsConservativeUnderIidLosses) {
  const auto& c = GetParam();
  auto f = ebrc::model::make_throughput_function(c.function, 1.0);
  ebrc::loss::ShiftedExponentialProcess proc(c.p, c.cv, 1234 + c.L);
  const auto r =
      run_basic_control(*f, proc, tfrc_weights(c.L), {.events = 150000, .warmup = 200});
  // Corollary 1 is exact in expectation; allow small Monte-Carlo slack.
  EXPECT_LE(r.normalized, 1.01) << "normalized throughput exceeded 1";
  // Unbiasedness (E) holds across the sweep.
  EXPECT_NEAR(r.mean_thetahat / r.mean_theta, 1.0, 0.02);
}

TEST_P(ConservativenessSweep, ComprehensiveStaysBelowPropositionFourCap) {
  // Prop. 2 says comprehensive >= basic; combined with Claim 1 the
  // comprehensive control still respects conservativeness under (C1) for
  // convex-g functions, up to the Prop-4 deviation cap (== 1 here).
  const auto& c = GetParam();
  auto f = ebrc::model::make_throughput_function(c.function, 1.0);
  ebrc::loss::ShiftedExponentialProcess proc(c.p, c.cv, 4321 + c.L);
  const auto r = run_comprehensive_control(*f, proc, tfrc_weights(c.L),
                                           {.events = 150000, .warmup = 200});
  EXPECT_LE(r.normalized, 1.02) << "comprehensive control overshot";
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ConservativenessSweep,
    ::testing::Values(
        Case{"sqrt", 0.01, 0.5, 1}, Case{"sqrt", 0.01, 0.999, 8}, Case{"sqrt", 0.1, 0.7, 4},
        Case{"sqrt", 0.3, 0.999, 2}, Case{"sqrt", 0.3, 0.3, 16},
        Case{"pftk-simplified", 0.01, 0.5, 1}, Case{"pftk-simplified", 0.01, 0.999, 8},
        Case{"pftk-simplified", 0.05, 0.7, 4}, Case{"pftk-simplified", 0.1, 0.999, 2},
        Case{"pftk-simplified", 0.2, 0.7, 8}, Case{"pftk-simplified", 0.3, 0.999, 16},
        Case{"pftk-simplified", 0.3, 0.3, 1}),
    case_name);

// Estimator-window monotonicity (Claim 1, second bullet) swept over p.
class WindowMonotonicity : public ::testing::TestWithParam<double> {};

TEST_P(WindowMonotonicity, NormalizedThroughputIncreasesWithL) {
  const double p = GetParam();
  auto f = ebrc::model::make_throughput_function("pftk-simplified", 1.0);
  double prev = 0.0;
  for (std::size_t L : {1u, 2u, 4u, 8u, 16u}) {
    ebrc::loss::ShiftedExponentialProcess proc(p, 1.0 - 1.0 / 1000.0, 777);
    const auto r =
        run_basic_control(*f, proc, tfrc_weights(L), {.events = 200000, .warmup = 200});
    EXPECT_GT(r.normalized, prev - 0.01) << "L=" << L << " p=" << p;
    prev = r.normalized;
  }
}

INSTANTIATE_TEST_SUITE_P(PSweep, WindowMonotonicity, ::testing::Values(0.02, 0.05, 0.1, 0.2),
                         [](const ::testing::TestParamInfo<double>& info) {
                           std::string name = "p";
                           name += std::to_string(int(info.param * 1000));
                           return name;
                         });

}  // namespace
