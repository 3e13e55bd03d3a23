// Typed quantities for rate-controller code: DataRate and TimeDelta.
//
// The controller zoo (delay_aimd/, rcp/) mixes sending rates and durations
// whose raw `double` representations are mutually assignable. These
// wrappers are zero-cost (one double, fully constexpr, trivially copyable)
// but make the unit part of the type: a DataRate cannot be added to a
// TimeDelta, and every boundary to the raw simulator/packet world is an
// explicit accessor call.
//
// Conventions: rates are carried in packets/second (the simulator's native
// pacing unit; bits/second converts through the packet size at the edge),
// durations in seconds.
#pragma once

#include <type_traits>

namespace ebrc::util {

/// A duration. Construct via seconds()/millis(); read via seconds().
class TimeDelta {
 public:
  constexpr TimeDelta() = default;
  [[nodiscard]] static constexpr TimeDelta seconds(double s) noexcept { return TimeDelta(s); }
  [[nodiscard]] static constexpr TimeDelta millis(double ms) noexcept {
    return TimeDelta(ms / 1e3);
  }
  [[nodiscard]] static constexpr TimeDelta zero() noexcept { return TimeDelta(0.0); }

  [[nodiscard]] constexpr double seconds() const noexcept { return s_; }
  [[nodiscard]] constexpr double millis() const noexcept { return s_ * 1e3; }
  [[nodiscard]] constexpr bool is_zero() const noexcept { return s_ == 0.0; }

  constexpr TimeDelta operator+(TimeDelta o) const noexcept { return TimeDelta(s_ + o.s_); }
  constexpr TimeDelta operator-(TimeDelta o) const noexcept { return TimeDelta(s_ - o.s_); }
  constexpr TimeDelta operator*(double k) const noexcept { return TimeDelta(s_ * k); }
  constexpr double operator/(TimeDelta o) const noexcept { return s_ / o.s_; }
  constexpr auto operator<=>(const TimeDelta&) const = default;

 private:
  constexpr explicit TimeDelta(double s) noexcept : s_(s) {}
  double s_ = 0.0;
};

/// A sending rate in packets/second. bits/second converts at the edge
/// through the packet size, where the byte count is actually known.
class DataRate {
 public:
  constexpr DataRate() = default;
  [[nodiscard]] static constexpr DataRate packets_per_second(double pps) noexcept {
    return DataRate(pps);
  }
  [[nodiscard]] static constexpr DataRate zero() noexcept { return DataRate(0.0); }

  [[nodiscard]] constexpr double pps() const noexcept { return pps_; }
  [[nodiscard]] constexpr double bps(double packet_bytes) const noexcept {
    return pps_ * 8.0 * packet_bytes;
  }
  [[nodiscard]] constexpr bool is_zero() const noexcept { return pps_ == 0.0; }

  /// Pacing gap between back-to-back packets at this rate.
  [[nodiscard]] constexpr TimeDelta packet_interval() const noexcept {
    return TimeDelta::seconds(1.0 / pps_);
  }

  constexpr DataRate operator+(DataRate o) const noexcept { return DataRate(pps_ + o.pps_); }
  constexpr DataRate operator-(DataRate o) const noexcept { return DataRate(pps_ - o.pps_); }
  constexpr DataRate operator*(double k) const noexcept { return DataRate(pps_ * k); }
  constexpr double operator/(DataRate o) const noexcept { return pps_ / o.pps_; }
  constexpr auto operator<=>(const DataRate&) const = default;

 private:
  constexpr explicit DataRate(double pps) noexcept : pps_(pps) {}
  double pps_ = 0.0;
};

constexpr DataRate operator*(double k, DataRate r) noexcept { return r * k; }
constexpr TimeDelta operator*(double k, TimeDelta d) noexcept { return d * k; }

[[nodiscard]] constexpr DataRate min(DataRate a, DataRate b) noexcept { return a < b ? a : b; }
[[nodiscard]] constexpr DataRate max(DataRate a, DataRate b) noexcept { return a < b ? b : a; }
[[nodiscard]] constexpr TimeDelta min(TimeDelta a, TimeDelta b) noexcept {
  return a < b ? a : b;
}
[[nodiscard]] constexpr TimeDelta max(TimeDelta a, TimeDelta b) noexcept {
  return a < b ? b : a;
}

static_assert(std::is_trivially_copyable_v<TimeDelta>);
static_assert(std::is_trivially_copyable_v<DataRate>);
static_assert(sizeof(TimeDelta) == 8 && sizeof(DataRate) == 8,
              "typed units must stay zero-cost wrappers over one double");

}  // namespace ebrc::util
