// Per-query tracing/profiling layer (the observability pillar).
//
// A QueryProfile is a span-style tree of per-(stage, machine, depth)
// accounting collected while a query runs: contexts processed, contexts
// and messages sent/received, bytes, reachability-index probe outcomes,
// flow-control credit-stall time broken down by the credit class that
// resolved the stall, and termination-protocol broadcast rounds.
//
// Collection discipline (mirrors the PR 1 arena rules):
//   - per-worker WorkerProfile slots are preallocated at query start;
//     the hot path indexes a flat [stage][depth] grid with no locks and
//     no allocation up to the preallocated depth window (growth beyond
//     it is geometric, out-of-line, and counted in profile_allocations()
//     so tests can assert the allocation-free property);
//   - disabled profiling compiles down to one predictable branch per
//     hook (`worker.prof == nullptr`) and constructs nothing — the
//     tier-1 contract asserted by profile_test.cpp and measured by
//     bench_trace_overhead;
//   - worker slots are merged into the QueryProfile tree once, after
//     the worker threads join.
//
// Exposure: `EngineConfig.profile = true`, a `PROFILE `-prefixed PGQL
// query (per-query opt-in), QueryProfile::text() for a human-readable
// EXPLAIN PROFILE report, and QueryProfile::to_json() for tooling
// (bench/run_bench_suite emits it into BENCH_RPQD.json).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "net/message.h"

namespace rpqd {

/// Number of CreditClass values (message.h); stall time is attributed to
/// the class that eventually resolved the stall.
inline constexpr unsigned kNumCreditClasses = 4;

/// Leaf of the profile tree: one (stage, machine, depth) cell.
struct ProfileDepthRow {
  std::uint64_t contexts = 0;       // frames entered at this depth
  std::uint64_t ctx_sent = 0;       // contexts serialized to remote machines
  std::uint64_t ctx_received = 0;   // contexts decoded from data messages
  std::uint64_t msgs_sent = 0;      // data messages flushed
  std::uint64_t msgs_received = 0;  // data messages processed
  std::uint64_t bytes_sent = 0;     // payload bytes flushed
  // Reachability-index probe outcomes (RPQ control stages only).
  std::uint64_t index_probes = 0;
  std::uint64_t index_new = 0;         // first visit: emitted
  std::uint64_t index_eliminated = 0;  // dedup kill: subtree pruned
  std::uint64_t index_duplicated = 0;  // depth improved: no re-emission

  bool any() const {
    return (contexts | ctx_sent | ctx_received | msgs_sent | msgs_received |
            bytes_sent | index_probes) != 0;
  }
  void add(const ProfileDepthRow& other);
};

/// Per-(stage, machine) node: depth-indexed leaf rows plus their sum.
struct ProfileMachineNode {
  std::vector<ProfileDepthRow> depths;
  ProfileDepthRow total;  // filled by QueryProfile::finish()
};

/// Per-stage node of the tree.
struct ProfileStageNode {
  std::string note;                          // planner's stage annotation
  std::vector<ProfileMachineNode> machines;  // [machine]
  ProfileDepthRow total;                     // filled by finish()
};

/// Per-machine summary that is not stage-resolved: credit accounting and
/// termination-protocol rounds.
struct ProfileMachineSummary {
  std::uint64_t credit_fast_path = 0;  // lock-free grants (dedicated+shared)
  std::uint64_t credit_shared = 0;
  std::uint64_t credit_overflow = 0;
  std::uint64_t credit_blocked = 0;  // failed try_acquire calls
  /// Wall time spent stalled in the blocking credit acquire, attributed
  /// to the CreditClass that eventually resolved the stall.
  std::array<double, kNumCreditClasses> stall_ms_by_class{};
  std::uint64_t stall_events = 0;  // acquires that did not succeed first try
  std::uint64_t term_rounds = 0;   // termination statuses broadcast
  // Query lifecycle (common/abort.h): this machine's live-frame peak (the
  // max_live_contexts budget's tracked quantity) and abort-path drops.
  std::uint64_t peak_live_contexts = 0;
  std::uint64_t discarded_contexts = 0;
  // Skew-aware balancing (DESIGN.md §14); 0 without a hot set.
  std::uint64_t mirror_fanouts = 0;  // hot frames delegated (send side)
  std::uint64_t mirror_expands = 0;  // delegations expanded (recv side)
  /// Frames entered across all stages on this machine — the per-machine
  /// load quantity the §14 imbalance line reports over.
  std::uint64_t total_contexts = 0;

  double stall_ms_total() const {
    double sum = 0.0;
    for (const double ms : stall_ms_by_class) sum += ms;
    return sum;
  }
};

/// The per-query profile tree returned alongside results.
struct QueryProfile {
  bool enabled = false;
  std::vector<ProfileStageNode> stages;        // [stage][machine][depth]
  std::vector<ProfileMachineSummary> machines; // [machine]

  /// Recomputes every node's `total` bottom-up; the engine calls this
  /// once after merging all worker slots.
  void finish();

  // Reconciliation accessors — each is the exact sum of the tree's
  // leaves, asserted against the top-level QueryStats by the
  // differential harness (sum of per-stage contexts == contexts_sent
  // and friends).
  std::uint64_t total_contexts() const;
  std::uint64_t total_ctx_sent() const;
  std::uint64_t total_ctx_received() const;
  std::uint64_t total_msgs_sent() const;
  std::uint64_t total_msgs_received() const;
  std::uint64_t total_bytes_sent() const;
  std::uint64_t total_index_probes() const;
  std::uint64_t stage_contexts(StageId stage) const;
  std::uint64_t stage_ctx_sent(StageId stage) const;
  std::uint64_t total_term_rounds() const;

  /// Human-readable EXPLAIN PROFILE-style report.
  std::string text() const;
  /// Machine-readable export (consumed by bench/run_bench_suite).
  std::string to_json() const;
};

/// Process-wide monotonic count of heap allocations performed by the
/// profile-collection layer (WorkerProfile construction and grid
/// growth). With profiling disabled this counter must not move — the
/// tier-1 contract test asserts it, reusing the PR 1
/// allocation-assert idiom (reach_index hot_allocations).
std::uint64_t profile_allocations();

/// Per-worker collection slot: a flat [stage][depth] grid preallocated
/// at query start. Exclusively owned by one worker thread; no locks.
class WorkerProfile {
 public:
  WorkerProfile(unsigned num_stages, Depth prealloc_depths);

  /// Hot-path accessor: allocation-free while depth stays inside the
  /// preallocated window; geometric out-of-line growth past it.
  ProfileDepthRow& row(StageId stage, Depth depth) {
    std::vector<ProfileDepthRow>& rows = grid_[stage];
    if (depth >= rows.size()) grow(rows, depth);
    return rows[depth];
  }

  void note_stall(CreditClass resolved, double ms) {
    stall_ms_by_class_[static_cast<unsigned>(resolved)] += ms;
    ++stall_events_;
  }

  /// Adds this worker's rows and stall accounting into the query tree
  /// under `machine`. Called once, post-join.
  void merge_into(MachineId machine, QueryProfile& out) const;

 private:
  void grow(std::vector<ProfileDepthRow>& rows, Depth depth);

  std::vector<std::vector<ProfileDepthRow>> grid_;  // [stage][depth]
  std::array<double, kNumCreditClasses> stall_ms_by_class_{};
  std::uint64_t stall_events_ = 0;
};

}  // namespace rpqd
