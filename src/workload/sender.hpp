// The Sender concept: the contract every controller in the zoo satisfies.
//
// Two transports implement it. TCP (tcp::TcpConnection) is ACK-clocked and
// window-based. Every rate-based controller — TFRC, delay-AIMD, RCP and the
// Claim-4 AIMD — is one paced transport, net::PacedConnection<Law>, over a
// small rate law (tfrc::TfrcLaw, delay_aimd::DelayAimdLaw, rcp::RcpLaw,
// tcp::AimdLaw): the skeleton owns the lifecycle below, the law maps each
// receiver report to a new rate.
//
// A Sender is constructed ONCE per pool slot (handlers and pinned events are
// permanent, the object is address-stable) and then cycled through
// open()/close() per transfer: open() rewinds per-transfer POD state while
// cumulative measurement counters survive, close() retires the flow with
// pacing/feedback chains dying lazily, each at its next firing, against the
// running flag. A paced receiver's feedback chain only fires while there is
// something to report: idle, it parks with no kernel event pending, and
// close() unparks it onto its next tick so it dies the same way. The pool
// quarantines retired slots for a drain interval before reuse.
//
// The concept is structural and checked at compile time for every class in
// workload::ClassConnections (flow_pools.hpp), so a controller that forgets
// part of the lifecycle fails the build, not a 3 a.m. sweep.
#pragma once

#include <concepts>
#include <cstdint>

#include "sim/inline_function.hpp"
#include "stats/loss_events.hpp"
#include "stats/online.hpp"

namespace ebrc::workload {

/// Flow-retirement notification shared by all pooled controllers.
using CompletionFn = sim::InlineFunction<void(), 24>;

template <typename S>
concept Sender = requires(S s, const S cs, double at, std::uint64_t n, CompletionFn done) {
  // continuous-source control (figure experiments)
  s.start(at);
  s.stop();
  // pooled per-transfer lifecycle (dynamic workloads)
  s.open(n, std::move(done));
  s.close();
  { cs.active() } -> std::convertible_to<bool>;
  { cs.transfers_completed() } -> std::convertible_to<std::uint64_t>;
  // measurement surface the workload/testbed layers aggregate over
  { cs.recorder() } -> std::convertible_to<const stats::LossEventRecorder&>;
  { cs.delivered() } -> std::convertible_to<std::uint64_t>;
  { cs.sent() } -> std::convertible_to<std::uint64_t>;
  { cs.srtt() } -> std::convertible_to<double>;
  { cs.rtt_stats() } -> std::convertible_to<const stats::OnlineMoments&>;
  // queuing-delay telemetry: delay-sensing controllers report (sum, count)
  // of per-RTT queuing-delay samples; loss-based ones report zero samples.
  { cs.queuing_delay_sum_s() } -> std::convertible_to<double>;
  { cs.queuing_delay_samples() } -> std::convertible_to<std::uint64_t>;
  s.reset_counters();
};

}  // namespace ebrc::workload
