// The Sender concept: what workload::FlowManager needs from a controller.
//
// Two transports implement it. TCP (tcp::TcpConnection) is ACK-clocked and
// window-based. Every rate-based controller — TFRC, delay-AIMD, RCP and the
// Claim-4 AIMD — is one paced transport, net::PacedConnection<Law>, over a
// small rate law (tfrc::TfrcLaw, delay_aimd::DelayAimdLaw, rcp::RcpLaw,
// tcp::AimdLaw): the skeleton owns the lifecycle below, the law maps each
// receiver report to a new rate.
//
// A Sender is constructed ONCE per pool slot (handlers and pinned events are
// permanent, the object is address-stable) and then open()ed per transfer:
// open() rewinds per-transfer POD state while cumulative measurement
// counters survive. The transfer ends in finish_transfer, which runs the
// completion callback; the flow's kernel chains then die lazily, each at its
// next firing, against the running flag. A paced receiver's feedback chain
// only fires while there is something to report: idle, it parks with no
// kernel event pending, and finish_transfer unparks it onto its next tick so
// it dies the same way. The pool quarantines retired slots for a drain
// interval before reuse.
//
// The concept lists exactly the calls the pool makes, and is checked at
// compile time for every class in workload::ClassConnections
// (flow_pools.hpp), so a controller that lacks one fails the build, not a
// 3 a.m. sweep.
#pragma once

#include <concepts>
#include <cstdint>

#include "sim/inline_function.hpp"
#include "stats/loss_events.hpp"

namespace ebrc::workload {

/// Flow-retirement notification shared by all pooled controllers.
using CompletionFn = sim::InlineFunction<void(), 24>;

template <typename S>
concept Sender = requires(S s, const S cs, std::uint64_t n, CompletionFn done) {
  // per-transfer lifecycle: `done` fires once, when the transfer completes
  s.open(n, std::move(done));
  // measurement surface the pool aggregates over each epoch
  { cs.recorder() } -> std::convertible_to<const stats::LossEventRecorder&>;
  { cs.delivered() } -> std::convertible_to<std::uint64_t>;
  // queuing-delay telemetry: delay-sensing controllers report (sum, count)
  // of per-RTT queuing-delay samples; loss-based ones report zero samples.
  { cs.queuing_delay_sum_s() } -> std::convertible_to<double>;
  { cs.queuing_delay_samples() } -> std::convertible_to<std::uint64_t>;
};

}  // namespace ebrc::workload
