#include "tcp/aimd_connection.hpp"

#include <stdexcept>

namespace ebrc::tcp {

AimdLaw::AimdLaw(AimdConfig cfg) : cfg_(cfg) {
  // Written so a NaN fails.
  if (!(cfg_.alpha > 0.0) || !(cfg_.beta > 0.0 && cfg_.beta < 1.0)) {
    throw std::invalid_argument("AimdConnection: alpha must be > 0 and beta lie in (0, 1)");
  }
}

}  // namespace ebrc::tcp

template class ebrc::net::PacedConnection<ebrc::tcp::AimdLaw>;
