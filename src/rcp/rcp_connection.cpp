#include "rcp/rcp_connection.hpp"

namespace ebrc::rcp {

util::DataRate RcpLaw::next_rate(const Report& r, const net::RateSample& s) noexcept {
  if (s.rtt_s > 0) qdelay_.add(util::TimeDelta::seconds(s.rtt_s));

  if (r.rate_pps > 0.0) {
    // The router has spoken: pace at its advertised fair share.
    have_stamp_ = true;
    return util::DataRate::packets_per_second(r.rate_pps);
  }
  if (have_stamp_) return s.rate;
  // No RCP router on the path yet: slow start, doubling per feedback capped
  // at twice the delivered rate.
  auto rate = s.rate * 2.0;
  if (r.recv_rate > 0.0) {
    rate = util::min(rate, 2.0 * util::DataRate::packets_per_second(r.recv_rate));
  }
  return rate;
}

}  // namespace ebrc::rcp

template class ebrc::net::PacedConnection<ebrc::rcp::RcpLaw>;
