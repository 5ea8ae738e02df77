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
// EXPLAIN PROFILE report, and QueryProfile::to_json() for tooling.
// (bench/run_bench_suite writes its own per-stage breakdown into
// BENCH_RPQD.json, not this export.)
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/counters.h"
#include "common/types.h"
#include "net/message.h"

namespace rpqd {

/// Number of CreditClass values (message.h); stall time is attributed to
/// the class that eventually resolved the stall.
inline constexpr unsigned kNumCreditClasses = 4;

/// Leaf of the profile tree: one (stage, machine, depth) cell. Its
/// table below drives the fold (+=) and both renderings.
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
};

inline constexpr CounterField<ProfileDepthRow> kProfileRowFields[] = {
    RPQD_COUNTER(ProfileDepthRow, "tree", contexts, kSum),
    RPQD_COUNTER(ProfileDepthRow, "tree", ctx_sent, kSum),
    RPQD_COUNTER(ProfileDepthRow, "tree", ctx_received, kSum),
    RPQD_COUNTER(ProfileDepthRow, "tree", msgs_sent, kSum),
    RPQD_COUNTER(ProfileDepthRow, "tree", msgs_received, kSum),
    RPQD_COUNTER(ProfileDepthRow, "tree", bytes_sent, kSum),
    RPQD_COUNTER(ProfileDepthRow, "tree", index_probes, kSum),
    RPQD_COUNTER(ProfileDepthRow, "tree", index_new, kSum),
    RPQD_COUNTER(ProfileDepthRow, "tree", index_eliminated, kSum),
    RPQD_COUNTER(ProfileDepthRow, "tree", index_duplicated, kSum),
};
inline constexpr std::span<const CounterField<ProfileDepthRow>>
counter_fields(const ProfileDepthRow&) {
  return kProfileRowFields;
}
inline ProfileDepthRow& operator+=(ProfileDepthRow& into,
                                   const ProfileDepthRow& from) {
  return fold_counters(into, from);
}

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

/// Per-machine summary that is not stage-resolved: that machine's
/// MachineCounters (the same values the engine folds into RuntimeStats)
/// plus its credit-stall times.
struct ProfileMachineSummary : MachineCounters {
  /// Wall time spent stalled in the blocking credit acquire, attributed
  /// to the CreditClass that eventually resolved the stall.
  std::array<double, kNumCreditClasses> stall_ms_by_class{};
  std::uint64_t stall_events = 0;  // acquires that did not succeed first try

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

  /// The sum of every leaf: what tests/reconcile.h checks against the
  /// fabric counters in RuntimeStats.
  ProfileDepthRow totals() const;

  /// Human-readable EXPLAIN PROFILE-style report.
  std::string text() const;
  /// Machine-readable export for tooling.
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
