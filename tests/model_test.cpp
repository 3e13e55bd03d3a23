#include <gtest/gtest.h>

#include <cmath>

#include "model/aimd.hpp"
#include "model/convex_closure.hpp"
#include "model/convexity.hpp"
#include "model/quadrature.hpp"
#include "model/solvers.hpp"
#include "model/throughput_function.hpp"
#include "util/math.hpp"

namespace {

using namespace ebrc::model;

constexpr double kR = 1.0;  // paper's Figure 1 normalization: r = 1, q = 4r

TEST(Formulas, Constants) {
  EXPECT_NEAR(pftk_c1(2), std::sqrt(4.0 / 3.0), 1e-12);
  EXPECT_NEAR(pftk_c2(2), 1.5 * std::sqrt(3.0), 1e-12);
}

TEST(Formulas, SqrtValue) {
  SqrtFormula f(kR);
  // f(p) = 1/(c1 r sqrt(p))
  EXPECT_NEAR(f.rate(0.01), 1.0 / (pftk_c1(2) * 0.1), 1e-12);
  EXPECT_NEAR(f.rate_from_interval(100.0), f.rate(0.01), 1e-12);
  EXPECT_NEAR(f.g(100.0), 1.0 / f.rate(0.01), 1e-12);
}

TEST(Formulas, StandardEqualsSimplifiedBelowClamp) {
  PftkStandard fs(kR);
  PftkSimplified fm(kR);
  const double split = fs.clamp_threshold();
  EXPECT_NEAR(split, 1.0 / ebrc::util::sq(pftk_c2(2)), 1e-12);
  for (double p : {1e-4, 1e-3, 1e-2, 0.9 * split}) {
    EXPECT_NEAR(fs.rate(p), fm.rate(p), 1e-12 * fs.rate(p)) << "p=" << p;
  }
  // Above the clamp the simplified formula is SMALLER (paper, Sec. II-C).
  for (double p : {1.05 * split, 0.3, 0.6, 1.0}) {
    EXPECT_LT(fm.rate(p), fs.rate(p)) << "p=" << p;
  }
}

TEST(Formulas, SqrtIsRareLossLimitOfPftk) {
  SqrtFormula fsqrt(kR);
  PftkSimplified fpftk(kR);
  // As p -> 0 the PFTK retransmission term vanishes.
  EXPECT_NEAR(fpftk.rate(1e-8) / fsqrt.rate(1e-8), 1.0, 1e-3);
}

TEST(Formulas, DomainChecks) {
  SqrtFormula f(kR);
  EXPECT_THROW((void)f.rate(0.0), std::invalid_argument);
  EXPECT_THROW((void)f.rate(-0.1), std::invalid_argument);
  // p > 1 is unphysical but permitted (estimator transients).
  EXPECT_GT(f.rate(1.5), 0.0);
  EXPECT_THROW(SqrtFormula(-1.0), std::invalid_argument);
}

TEST(Formulas, AnalyticDerivativesMatchNumeric) {
  SqrtFormula fs(kR);
  PftkSimplified fp(kR);
  for (double p : {0.001, 0.01, 0.05, 0.2, 0.5}) {
    const double h = 1e-7 * p;
    const double numeric_s = (fs.rate(p + h) - fs.rate(p - h)) / (2 * h);
    const double numeric_p = (fp.rate(p + h) - fp.rate(p - h)) / (2 * h);
    EXPECT_NEAR(fs.drate_dp(p), numeric_s, 1e-4 * std::abs(numeric_s));
    EXPECT_NEAR(fp.drate_dp(p), numeric_p, 1e-4 * std::abs(numeric_p));
  }
}

TEST(Formulas, AntiderivativeDifferentiatesToG) {
  // G'(x) == g(x) for all three formulas (incl. the piecewise PFTK-standard
  // branch stitch at x = c2^2).
  SqrtFormula fs(kR);
  PftkSimplified fm(kR);
  PftkStandard fd(kR);
  const double split = ebrc::util::sq(pftk_c2(2));
  for (const ThroughputFunction* f :
       std::initializer_list<const ThroughputFunction*>{&fs, &fm, &fd}) {
    for (double x : {2.0, 4.0, split - 0.5, split + 0.5, 20.0, 200.0}) {
      const double h = 1e-5 * x;
      const double dG = (*f->g_antiderivative(x + h) - *f->g_antiderivative(x - h)) / (2 * h);
      EXPECT_NEAR(dG, f->g(x), 1e-5 * std::abs(f->g(x)))
          << f->name() << " at x=" << x;
    }
  }
}

TEST(Formulas, AntiderivativeContinuousAtClampSplit) {
  PftkStandard f(kR);
  const double split = ebrc::util::sq(pftk_c2(2));
  const double below = *f.g_antiderivative(split * (1 - 1e-9));
  const double above = *f.g_antiderivative(split * (1 + 1e-9));
  EXPECT_NEAR(below, above, 1e-6 * std::abs(above));
}

TEST(Formulas, Factory) {
  EXPECT_EQ(make_throughput_function("sqrt", 0.05)->name(), "SQRT");
  EXPECT_EQ(make_throughput_function("PFTK", 0.05)->name(), "PFTK-standard");
  EXPECT_EQ(make_throughput_function("pftk-simplified", 0.05)->name(), "PFTK-simplified");
  EXPECT_THROW(make_throughput_function("bogus", 0.05), std::invalid_argument);
}

// --- Convexity: the paper's Figure 1 claims ---------------------------------

TEST(Convexity, F1HoldsForSqrtAndSimplified) {
  SqrtFormula fs(kR);
  PftkSimplified fm(kR);
  // g(x) = 1/f(1/x) convex over a wide interval range (x in packets).
  EXPECT_TRUE(is_convex_on([&](double x) { return fs.g(x); }, 1.5, 500.0));
  EXPECT_TRUE(is_convex_on([&](double x) { return fm.g(x); }, 1.5, 500.0));
}

TEST(Convexity, F1AlmostHoldsForStandard) {
  // PFTK-standard is NOT convex (the min() kink), but nearly so.
  PftkStandard fd(kR);
  const auto rep = probe_convexity([&](double x) { return fd.g(x); }, 1.5, 500.0, 4096);
  EXPECT_FALSE(rep.convex);
  // The violation is tiny relative to the function scale.
  EXPECT_GT(rep.min_second_difference, -5e-4);
}

TEST(Convexity, F2SqrtConcaveEverywhere) {
  SqrtFormula fs(kR);
  // h(x) = f(1/x) = sqrt(x)/(c1 r): concave on all of x > 0.
  EXPECT_TRUE(is_concave_on([&](double x) { return fs.rate_from_interval(x); }, 1.5, 500.0));
}

TEST(Convexity, PftkConvexForHeavyLossConcaveForRare) {
  // Figure 1 (left): for PFTK, x -> f(1/x) is convex at small x (heavy loss)
  // and concave at large x (rare loss).
  PftkSimplified fm(kR);
  const auto h = [&](double x) { return fm.rate_from_interval(x); };
  EXPECT_TRUE(probe_convexity(h, 1.5, 4.0, 256).strictly_convex);
  EXPECT_TRUE(probe_convexity(h, 50.0, 500.0, 256).concave);
}

TEST(Convexity, ProbeValidation) {
  EXPECT_THROW((void)probe_convexity([](double x) { return x; }, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)probe_convexity([](double x) { return x; }, 0.0, 1.0, 2),
               std::invalid_argument);
}

// --- Convex closure: Figure 2 -----------------------------------------------

TEST(ConvexClosure, PftkStandardDeviationRatioMatchesPaper) {
  // Figure 2: the non-convexity of PFTK-standard's g sits around the min()
  // kink at x = c2^2, with sup g/g** = 1.0026. The paper's figure places the
  // kink at x = 3.375 = c2^2 for b = 1 (its common tangent spans
  // [3.2953, 3.4493]), so this check uses b = 1.
  PftkStandard f(kR, -1.0, /*b=*/1);
  const auto cc = convex_closure([&](double x) { return f.g(x); }, 1.5, 20.0, 20000);
  EXPECT_NEAR(cc.deviation_ratio, 1.0026, 5e-4);
  EXPECT_GT(cc.argmax, 3.2);
  EXPECT_LT(cc.argmax, 3.6);
  // With b = 2 the kink moves to c2^2 = 6.75; the deviation stays tiny.
  PftkStandard f2(kR, -1.0, /*b=*/2);
  const auto cc2 = convex_closure([&](double x) { return f2.g(x); }, 1.5, 30.0, 20000);
  EXPECT_GT(cc2.argmax, 6.0);
  EXPECT_LT(cc2.argmax, 7.5);
  EXPECT_LT(cc2.deviation_ratio, 1.01);
}

TEST(ConvexClosure, ConvexFunctionsHaveRatioOne) {
  SqrtFormula fs(kR);
  PftkSimplified fm(kR);
  const auto cs = convex_closure([&](double x) { return fs.g(x); }, 1.5, 100.0, 4096);
  const auto cm = convex_closure([&](double x) { return fm.g(x); }, 1.5, 100.0, 4096);
  EXPECT_NEAR(cs.deviation_ratio, 1.0, 1e-6);
  EXPECT_NEAR(cm.deviation_ratio, 1.0, 1e-6);
}

TEST(ConvexClosure, ClosureLowerBoundsSamples) {
  PftkStandard f(kR);
  const auto cc = convex_closure([&](double x) { return f.g(x); }, 2.0, 10.0, 1000);
  for (std::size_t i = 0; i < cc.x.size(); ++i) {
    EXPECT_LE(cc.closure[i], cc.g[i] + 1e-12);
  }
  // Interpolation agrees with grid values.
  EXPECT_NEAR(cc.closure_at(cc.x[500]), cc.closure[500], 1e-9);
}

// --- Quadrature --------------------------------------------------------------

TEST(Quadrature, PolynomialExact) {
  const double v = integrate([](double x) { return 3 * x * x; }, 0.0, 2.0);
  EXPECT_NEAR(v, 8.0, 1e-9);
}

TEST(Quadrature, OscillatoryAccurate) {
  const double v = integrate([](double x) { return std::sin(x); }, 0.0, M_PI);
  EXPECT_NEAR(v, 2.0, 1e-8);
}

TEST(Quadrature, ReversedLimits) {
  const double v = integrate([](double x) { return x; }, 1.0, 0.0);
  EXPECT_NEAR(v, -0.5, 1e-9);
}

TEST(Quadrature, ShiftedExpExpectation) {
  // E[theta] = x0 + 1/a; E[theta^2] = (x0+1/a)^2 + 1/a^2.
  const double x0 = 3.0, a = 0.5;
  EXPECT_NEAR(expect_shifted_exp([](double x) { return x; }, x0, a), 5.0, 1e-6);
  EXPECT_NEAR(expect_shifted_exp([](double x) { return x * x; }, x0, a), 29.0, 1e-5);
}

// --- Solvers ------------------------------------------------------------------

TEST(Solvers, BisectFindsRoot) {
  const double root = bisect([](double x) { return x * x - 2.0; }, 0.0, 2.0);
  EXPECT_NEAR(root, std::sqrt(2.0), 1e-9);
  EXPECT_THROW((void)bisect([](double x) { return x * x + 1.0; }, -1.0, 1.0),
               std::invalid_argument);
}

// --- AIMD / Claim 4 -----------------------------------------------------------

TEST(Aimd, ClosedForms) {
  const AimdParams a{1.0, 0.5};
  const double c = 100.0;
  EXPECT_NEAR(aimd_sqrt_constant(a), std::sqrt(1.5), 1e-12);
  EXPECT_NEAR(aimd_loss_event_rate(a, c), 2.0 / (0.75 * 1e4), 1e-12);
  EXPECT_NEAR(ebrc_fixed_point_loss_rate(a, c), 1.5 / (1.0 * 1e4), 1e-12);
  EXPECT_NEAR(aimd_time_average_rate(a, c), 75.0, 1e-12);
}

TEST(Aimd, Claim4RatioIs16Over9ForBetaHalf) {
  // The paper's numeric value: p'/p = 16/9 ~ 1.7778 at beta = 1/2. (The TR's
  // printed formula 4/(1-beta)^2 is a typo; the quotient of its own closed
  // forms is 4/(1+beta)^2 — see DESIGN.md.)
  const AimdParams a{1.0, 0.5};
  EXPECT_NEAR(claim4_ratio(a), 16.0 / 9.0, 1e-12);
  const double direct = aimd_loss_event_rate(a, 50.0) / ebrc_fixed_point_loss_rate(a, 50.0);
  EXPECT_NEAR(direct, claim4_ratio(a), 1e-12);
}

TEST(Aimd, RatioIndependentOfAlphaAndCapacity) {
  for (double alpha : {0.5, 1.0, 2.0}) {
    for (double c : {10.0, 100.0}) {
      const AimdParams a{alpha, 0.7};
      EXPECT_NEAR(aimd_loss_event_rate(a, c) / ebrc_fixed_point_loss_rate(a, c),
                  4.0 / ebrc::util::sq(1.7), 1e-12);
    }
  }
}

TEST(Aimd, FluidSimulationMatchesClosedForms) {
  const AimdParams a{1.0, 0.5};
  const double c = 60.0;
  const auto r = simulate_fluid_aimd(a, c, 200);
  EXPECT_NEAR(r.loss_event_rate, aimd_loss_event_rate(a, c), 1e-6);
  EXPECT_NEAR(r.time_average_rate, aimd_time_average_rate(a, c), 1e-6);
  // Cycle length: (1-beta) c / alpha RTTs.
  EXPECT_NEAR(r.cycle_length_rtts, 30.0, 1e-6);
}

TEST(Aimd, LossThroughputLawConsistency) {
  // Evaluating the AIMD loss-throughput law at the AIMD loss-event rate must
  // recover the deterministic time-average rate (self-consistency of the
  // Claim-4 model).
  const AimdParams a{2.0, 0.5};
  const double c = 80.0;
  const double p = aimd_loss_event_rate(a, c);
  EXPECT_NEAR(aimd_rate(a, p), aimd_time_average_rate(a, c), 1e-9);
}

TEST(Aimd, Validation) {
  EXPECT_THROW((void)aimd_loss_event_rate({0.0, 0.5}, 10.0), std::invalid_argument);
  EXPECT_THROW((void)aimd_loss_event_rate({1.0, 1.5}, 10.0), std::invalid_argument);
  EXPECT_THROW((void)aimd_loss_event_rate({1.0, 0.5}, -1.0), std::invalid_argument);
}

}  // namespace
