// Concurrent multi-query serving: admission control + dispatch (the
// "millions of users" pillar on top of the single-query engine).
//
// The QueryScheduler turns the one-query-at-a-time engine into a
// service. A submission is admitted against the simulated cluster's
// global resource envelope, queued (bounded) when every in-flight slot
// is busy, or rejected with a typed reason; admitted queries run on a
// fixed pool of dispatcher threads, one per in-flight slot. Each
// in-flight query gets:
//
//   - a per-query credit PARTITION of every machine's §3.3 buffer
//     allowance (EngineConfig::credit_partition_share, applied by
//     net/flow_control.h), so a deep query can exhaust only its own
//     slice of buffer memory and a cheap concurrent query never starves
//     behind it — `min_credit_share` is the fairness knob;
//   - a per-query SLICE of the global lifecycle budgets
//     (global_max_live_contexts, global_reach_index_max_bytes mapping
//     onto the PR-4 per-query budgets), so a whole concurrent wave
//     respects the cluster-wide memory ceiling; a query whose own
//     per-query budget could never fit inside the global one is
//     rejected up front (kContextBudget / kReachIndexBudget).
//
// Everything else is isolated per query by construction: every run owns
// its Network / MachineRuntime / FlowControl / reach-index / termination
// namespace, keyed by the query-scoped rpid and a unique run epoch, so
// concurrent runs never share mutable state (see the note on
// NetCounters in common/counters.h). The differential harness pins this: K
// queries in flight under every fault schedule must each match their
// solo runs exactly.
//
// Throughput rationale (the closed-loop bench's headline): a solo query
// leaves the cluster idle during credit stalls and §3.4 termination
// rounds (workers sleep in bounded backoff). With several queries in
// flight those gaps are absorbed by other queries' work, so aggregate
// throughput beats back-to-back serial execution of the same mix.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "runtime/engine.h"
#include "runtime/result_cache.h"

namespace rpqd {

/// What the admission controller decided at submit time.
enum class AdmissionOutcome : std::uint8_t {
  kAdmitted,   // a slot was free; dispatch is immediate
  kQueued,     // all slots busy; waiting in the bounded queue
  kRejected,   // never ran; see AdmissionReject
  kCachedHit,  // served from the result cache; never dispatched
  kCoalesced,  // attached to a live identical execution (single-flight)
};

/// Typed rejection reasons (AdmissionOutcome::kRejected).
enum class AdmissionReject : std::uint8_t {
  kNone = 0,
  kQueueFull,         // in-flight slots and the wait queue are both full
  kContextBudget,     // per-query max_live_contexts can never fit inside
                      // the scheduler's global_max_live_contexts
  kReachIndexBudget,  // same, for reach_index_max_bytes
  kShutdown,          // scheduler is shutting down
};

const char* to_string(AdmissionOutcome outcome);
const char* to_string(AdmissionReject reject);

struct SchedulerConfig {
  /// In-flight query slots (dispatcher threads). Also the denominator of
  /// the default per-query credit partition: each in-flight query's flow
  /// control gets 1/max_inflight of every machine's buffer allowance.
  unsigned max_inflight = 4;

  /// Submissions allowed to wait beyond the in-flight slots before
  /// admission rejects with kQueueFull.
  unsigned max_queued = 64;

  /// Cluster-wide ceiling on simultaneously-live execution contexts
  /// across ALL in-flight queries (0 = off). With a per-query
  /// max_live_contexts configured on the engine, admission caps the slot
  /// count so the sum of per-query budgets fits; without one, each
  /// dispatched query runs with an equal slice as its own budget.
  std::uint64_t global_max_live_contexts = 0;

  /// Cluster-wide ceiling on reachability-index bytes, same semantics.
  std::uint64_t global_reach_index_max_bytes = 0;

  /// Fairness knob for the per-query credit partitions: lower bound on
  /// any query's share of the buffer allowance. 0 = strict equal split
  /// (1/max_inflight). Raising it trades strict isolation for
  /// throughput when slots usually run below capacity.
  double min_credit_share = 0.0;

  /// Disables the credit partitioning entirely (every query sees the
  /// whole allowance, as in single-query mode) — the ablation knob the
  /// fairness bench flips.
  bool partition_credits = true;
};

struct SchedulerStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;  // dispatched with a free slot
  std::uint64_t queued = 0;    // waited in the admission queue
  std::uint64_t completed = 0;
  // Result cache (DESIGN.md §11); 0 without a cache.
  std::uint64_t cache_hits = 0;       // served without dispatching
  std::uint64_t cache_coalesced = 0;  // followers of a live flight
  std::uint64_t cache_bypassed = 0;   // stale-epoch probes, ran uncached
  // Deadline lapsed while queued: aborted kDeadline at dispatch, never
  // executed (DESIGN.md §12 — the scheduler re-checks the deadline when
  // the job leaves the FIFO, not just during execution).
  std::uint64_t deadline_lapsed_in_queue = 0;
  std::uint64_t cancelled_while_queued = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_context_budget = 0;
  std::uint64_t rejected_reach_index_budget = 0;
  std::uint64_t rejected_shutdown = 0;
  unsigned peak_inflight = 0;

  std::uint64_t rejected() const {
    return rejected_queue_full + rejected_context_budget +
           rejected_reach_index_budget + rejected_shutdown;
  }
};

namespace detail {
struct QueryJob;
}

/// Move-shareable handle to one submitted query. Obtained from
/// QueryScheduler::submit / Database::submit; redeemed with await().
class QueryTicket {
 public:
  QueryTicket() = default;

  bool valid() const { return job_ != nullptr; }
  std::uint64_t id() const;
  /// Fixed at submit time (kAdmitted / kQueued / kRejected).
  AdmissionOutcome admission() const;
  /// kNone unless admission() == kRejected.
  AdmissionReject reject_reason() const;

 private:
  friend class QueryScheduler;
  explicit QueryTicket(std::shared_ptr<detail::QueryJob> job)
      : job_(std::move(job)) {}
  std::shared_ptr<detail::QueryJob> job_;
};

class QueryScheduler {
 public:
  /// `result_cache` (optional, not owned, must outlive the scheduler)
  /// enables the single-flight result cache on the serving path: a
  /// submission whose normalized text is cached returns a kCachedHit
  /// ticket without dispatching; one whose text is already executing
  /// returns kCoalesced and its await() shares the leader's result —
  /// including the leader's rejection, abort, or exception (a flight is
  /// always completed, never abandoned). Hit/coalesced tickets hold no
  /// dispatcher slot and no run_control (cancel() returns false).
  QueryScheduler(DistributedEngine* engine, SchedulerConfig config,
                 ResultCache* result_cache = nullptr);

  /// Shutdown: rejects everything still queued (their await returns an
  /// admission-reject result), cooperatively cancels in-flight runs
  /// (kUserCancel), and joins the dispatcher pool. Await tickets you
  /// care about before destroying the scheduler.
  ~QueryScheduler();

  QueryScheduler(const QueryScheduler&) = delete;
  QueryScheduler& operator=(const QueryScheduler&) = delete;

  /// Parses, plans, and admits a query. Parse/plan errors throw
  /// QueryError exactly like the blocking path; admission failures do
  /// NOT throw — they return a kRejected ticket whose await() yields
  /// QueryResult{aborted, kAdmissionReject}. A `PROFILE ` prefix
  /// enables per-query profiling, as in the blocking path.
  QueryTicket submit(std::string_view pgql);

  /// Blocks until the query finishes (or its rejection is recorded) and
  /// returns the result. Safe to call from any thread, repeatedly.
  QueryResult await(const QueryTicket& ticket);

  /// Requests cooperative cancellation: a queued query is removed and
  /// completes as aborted without running; an in-flight query goes
  /// through the normal kAbort broadcast. Returns false when the query
  /// already finished (or the ticket is invalid).
  bool cancel(const QueryTicket& ticket,
              AbortReason reason = AbortReason::kUserCancel);

  /// Cancels every queued (not yet dispatched) query; returns how many.
  /// In-flight runs are the engine's cancel_all's job.
  unsigned cancel_all_queued(AbortReason reason = AbortReason::kUserCancel);

  /// Queries currently executing (dispatched, not finished).
  unsigned inflight() const;
  /// Queries currently waiting in the admission queue.
  unsigned queued() const;

  SchedulerStats stats() const;
  const SchedulerConfig& config() const { return config_; }
  /// In-flight slots after the global budgets capped max_inflight
  /// (0 = every submission is rejected up front).
  unsigned slots() const { return slots_; }

 private:
  void dispatcher_main();
  void run_job(const std::shared_ptr<detail::QueryJob>& job);
  /// Builds the job's effective per-query config: engine snapshot +
  /// profile flag + credit partition share + sliced budgets.
  EngineConfig job_config(const detail::QueryJob& job) const;
  /// Completes the job — and, when it leads a result-cache flight, the
  /// flight too (every follower observes the same result, cached only
  /// when clean). Every path that finishes a job goes through here or
  /// fail(), so a flight can never be left pending.
  void fulfill(detail::QueryJob& job, QueryResult result);
  void fail(detail::QueryJob& job, std::exception_ptr error);

  DistributedEngine* engine_;
  SchedulerConfig config_;
  ResultCache* result_cache_;
  unsigned slots_ = 0;
  AdmissionReject zero_slots_reason_ = AdmissionReject::kNone;

  mutable std::mutex mutex_;
  std::condition_variable work_;
  std::deque<std::shared_ptr<detail::QueryJob>> queue_;
  std::vector<std::shared_ptr<detail::QueryJob>> running_;
  bool stopping_ = false;
  unsigned busy_ = 0;
  std::uint64_t next_id_ = 1;
  SchedulerStats stats_;

  std::vector<std::thread> dispatchers_;
};

}  // namespace rpqd
