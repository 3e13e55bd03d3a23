// TCP loss-throughput formulae (Section II-C of the paper).
//
// All three functions map a loss-event rate p in (0, 1] to a send rate in
// packets per second:
//
//   SQRT            f(p) = 1 / (c1 r sqrt(p))                        (Eq. 5)
//   PFTK-standard   f(p) = 1 / (c1 r sqrt(p)
//                           + q min(1, c2 sqrt(p)) p (1 + 32 p^2))    (Eq. 6)
//   PFTK-simplified f(p) = 1 / (c1 r sqrt(p)
//                           + q c2 (p^{3/2} + 32 p^{7/2}))            (Eq. 7)
//
// with c1 = sqrt(2b/3), c2 = (3/2) sqrt(3b/2), r the mean round-trip time in
// seconds, q the TCP retransmission timeout (TFRC recommends q = 4r), and b
// the number of packets per ACK (typically 2).
//
// The analysis works with three views of the same formula:
//   rate(p)      = f(p)
//   h(x)         = f(1/x)      rate as a function of the mean loss interval
//   g(x)         = 1/f(1/x)    the functional whose convexity drives Thm. 1
#pragma once

#include <memory>
#include <optional>
#include <string>

namespace ebrc::model {

/// Coefficients of the "simplified family" denominator
///   1/f(p) = c1r sqrt(p) + c2q (p^{3/2} + 32 p^{7/2}),
/// which covers SQRT (c2q = 0) and PFTK-simplified. Proposition 3's exact
/// comprehensive-control correction V_n exists in closed form exactly for
/// this family.
struct SimplifiedCoeffs {
  double c1r;  // c1 * r
  double c2q;  // c2 * q
};

class ThroughputFunction {
 public:
  virtual ~ThroughputFunction() = default;

  /// f(p), packets/second. Requires p in (0, 1].
  [[nodiscard]] virtual double rate(double p) const = 0;

  /// Human-readable name ("SQRT", "PFTK-standard", "PFTK-simplified").
  [[nodiscard]] virtual std::string name() const = 0;

  /// Mean round-trip time r (seconds) baked into the formula.
  [[nodiscard]] virtual double rtt() const = 0;

  /// Closed-form coefficients when the function belongs to the simplified
  /// family; nullopt for PFTK-standard (its min() term splits the form).
  [[nodiscard]] virtual std::optional<SimplifiedCoeffs> simplified_coeffs() const {
    return std::nullopt;
  }

  /// h(x) = f(1/x): send rate as a function of the mean loss-event interval.
  [[nodiscard]] double rate_from_interval(double x) const { return rate(1.0 / x); }

  /// g(x) = 1/f(1/x): the Theorem-1 functional.
  [[nodiscard]] double g(double x) const { return 1.0 / rate_from_interval(x); }

  /// df/dp by central difference (analytic overrides where available).
  [[nodiscard]] virtual double drate_dp(double p) const;

  /// Antiderivative of g evaluated at x, i.e. G(x) with G'(x) = g(x), used by
  /// the comprehensive-control exact interval duration:
  ///   time to send packets while the estimator grows from y0 to y1
  ///   equals (G(y1) - G(y0)) / w1.
  /// Returns nullopt when no closed form exists (then use the ODE path).
  [[nodiscard]] virtual std::optional<double> g_antiderivative(double x) const {
    (void)x;
    return std::nullopt;
  }
};

/// SQRT formula (Eq. 5).
class SqrtFormula final : public ThroughputFunction {
 public:
  explicit SqrtFormula(double rtt_s, int b = 2);
  [[nodiscard]] double rate(double p) const override;
  [[nodiscard]] std::string name() const override { return "SQRT"; }
  [[nodiscard]] double rtt() const override { return r_; }
  [[nodiscard]] std::optional<SimplifiedCoeffs> simplified_coeffs() const override;
  [[nodiscard]] double drate_dp(double p) const override;
  [[nodiscard]] std::optional<double> g_antiderivative(double x) const override;

 private:
  double r_;
  double c1_;
};

/// PFTK-standard formula (Eq. 6) — PFTK Eq. (30) with the min() clamp.
class PftkStandard final : public ThroughputFunction {
 public:
  /// q defaults to the TFRC recommendation 4r.
  explicit PftkStandard(double rtt_s, double q_s = -1.0, int b = 2);
  [[nodiscard]] double rate(double p) const override;
  [[nodiscard]] std::string name() const override { return "PFTK-standard"; }
  [[nodiscard]] double rtt() const override { return r_; }
  [[nodiscard]] std::optional<double> g_antiderivative(double x) const override;
  /// p above which the min() clamps to 1 (= 1/c2^2).
  [[nodiscard]] double clamp_threshold() const noexcept;

 private:
  double r_, q_, c1_, c2_;
};

/// PFTK-simplified formula (Eq. 7) — the TFRC (RFC 3448) recommendation.
class PftkSimplified final : public ThroughputFunction {
 public:
  explicit PftkSimplified(double rtt_s, double q_s = -1.0, int b = 2);
  [[nodiscard]] double rate(double p) const override;
  [[nodiscard]] std::string name() const override { return "PFTK-simplified"; }
  [[nodiscard]] double rtt() const override { return r_; }
  [[nodiscard]] std::optional<SimplifiedCoeffs> simplified_coeffs() const override;
  [[nodiscard]] double drate_dp(double p) const override;
  [[nodiscard]] std::optional<double> g_antiderivative(double x) const override;

 private:
  double r_, q_, c1_, c2_;
};

/// c1 = sqrt(2b/3).
[[nodiscard]] double pftk_c1(int b) noexcept;
/// c2 = (3/2) sqrt(3b/2).
[[nodiscard]] double pftk_c2(int b) noexcept;

/// Factory by name ("sqrt" | "pftk" | "pftk-simplified"), case-insensitive.
[[nodiscard]] std::shared_ptr<const ThroughputFunction> make_throughput_function(
    const std::string& name, double rtt_s, double q_s = -1.0, int b = 2);

/// The named formula at r = 1, q = 4r, b = 2 — what make_throughput_function
/// (name, 1.0) builds — as one immutable process-wide instance per family,
/// so every packet-level TFRC sender shares it instead of owning a copy.
[[nodiscard]] const ThroughputFunction& unit_throughput_function(const std::string& name);

/// Inverts h(x) = f(1/x): the mean loss-event interval x at which f sends
/// `rate` packets/second, by bisection on the increasing h (to within 1e-9 of
/// the bracket). TFRC seeds its loss history with it after the first loss
/// event (RFC 3448 Section 6.3.1). Requires rate > 0.
[[nodiscard]] double interval_for_rate(const ThroughputFunction& f, double rate);

}  // namespace ebrc::model
