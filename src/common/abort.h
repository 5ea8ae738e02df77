// Cooperative query-abort protocol (the lifecycle-hardening pillar).
//
// A query dies for one of a small set of reasons — user cancellation, a
// deadline, a resource budget, or a crash-stop machine failure — and in
// every case the cluster must converge to the same quiescent state the
// healthy termination protocol guarantees: all flow-control credits
// returned, no contexts leaked, every inbox drained, and the Database
// reusable for the next query.
//
// The AbortController is the per-query coordinator-side record: the
// first `request()` wins and fixes the abort reason (a CAS, so
// concurrent budget trips, deadline fires, and user cancels race
// safely). Propagation to the machines is NOT through this object — the
// winner broadcasts a kAbort control message (net/message.h) and each
// machine halts when its own inbox observes it, mirroring how a real
// cluster would learn of the abort over the wire. The controller is
// what the engine reads back to stamp QueryResult{aborted, reason}.
//
// `note_truncation` rides the same channel for a softer signal: the
// max_exploration_depth safety valve clips subtrees without killing the
// query, and the result must say so (a truncated partial answer used to
// be indistinguishable from a complete one).
#pragma once

#include <atomic>
#include <cstdint>

namespace rpqd {

enum class AbortReason : std::uint8_t {
  kNone = 0,
  kUserCancel,        // Database::cancel_all
  kDeadline,          // EngineConfig::query_deadline_ms exceeded
  kContextBudget,     // EngineConfig::max_live_contexts exceeded
  kReachIndexBudget,  // EngineConfig::reach_index_max_bytes exceeded
  kCreditStarvation,  // EngineConfig::flow_starvation_abort_ms exceeded
  kMachineFailure,    // crash-stop machine (FaultPlan crash mode)
  kDepthTruncated,    // not an abort: max_exploration_depth clipped results
  kAdmissionReject,   // never ran: the QueryScheduler refused admission
                      // (queue full / a global budget can never fit it);
                      // the typed sub-reason is on the QueryTicket
};

const char* to_string(AbortReason reason);

/// True for aborts a retry can plausibly cure: a machine failure (the
/// FaultPlan crash arms one run only, like a replacement machine joining)
/// and scheduling-dependent budget trips. Deadlines, user cancels, and
/// the reach-index ceiling are deterministic — retrying burns the same
/// budget again.
bool abort_reason_retryable(AbortReason reason);

class AbortController {
 public:
  /// Cheap poll (one relaxed load); hot paths check this.
  bool armed() const {
    return reason_.load(std::memory_order_relaxed) !=
           static_cast<std::uint8_t>(AbortReason::kNone);
  }

  AbortReason reason() const {
    return static_cast<AbortReason>(reason_.load(std::memory_order_acquire));
  }

  /// First caller wins and fixes the reason; returns whether this call
  /// won (the winner is responsible for broadcasting the kAbort message).
  bool request(AbortReason reason) {
    std::uint8_t expected = static_cast<std::uint8_t>(AbortReason::kNone);
    return reason_.compare_exchange_strong(
        expected, static_cast<std::uint8_t>(reason),
        std::memory_order_acq_rel, std::memory_order_acquire);
  }

  /// Depth-cap truncation: the run continues, but the result is partial.
  void note_truncation() {
    truncated_.store(true, std::memory_order_relaxed);
  }
  bool truncated() const {
    return truncated_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint8_t> reason_{
      static_cast<std::uint8_t>(AbortReason::kNone)};
  std::atomic<bool> truncated_{false};
};

}  // namespace rpqd
