// Per-query runtime statistics: everything the paper's evaluation section
// reports — per-depth RPQ control-stage matches (Table 2), eliminations
// and duplications (Table 3), reachability-index size (§4.4), flow-control
// block counts (§4.2), message/byte counters, and peak buffered bytes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/counters.h"
#include "common/types.h"

namespace rpqd {

/// Statistics of one RPQ control stage (index_id-indexed).
struct RpqStageStats {
  std::vector<std::uint64_t> matches_per_depth;
  std::vector<std::uint64_t> eliminated_per_depth;
  std::vector<std::uint64_t> duplicated_per_depth;
  std::uint64_t index_entries = 0;
  std::uint64_t index_bytes = 0;
  std::uint64_t index_hot_allocs = 0;  // heap allocations on the hot path
  std::uint64_t index_duplicate_entries = 0;  // post-run audit; must be 0
  Depth max_depth_observed = 0;
  /// The §3.4 consensus value for unbounded RPQs (set when reached).
  std::optional<Depth> consensus_max_depth;

  std::uint64_t total_matches() const {
    std::uint64_t sum = 0;
    for (const auto v : matches_per_depth) sum += v;
    return sum;
  }
  std::uint64_t total_eliminated() const {
    std::uint64_t sum = 0;
    for (const auto v : eliminated_per_depth) sum += v;
    return sum;
  }
  std::uint64_t total_duplicated() const {
    std::uint64_t sum = 0;
    for (const auto v : duplicated_per_depth) sum += v;
    return sum;
  }

  void merge(const RpqStageStats& other);
};

/// EXPLAIN ANALYZE row: per-stage execution counts.
struct StageBreakdown {
  std::string note;              // the planner's stage annotation
  std::uint64_t visits = 0;      // frames entered (local + remote work)
  std::uint64_t remote_in = 0;   // contexts received via messages
  std::uint64_t remote_out = 0;  // contexts sent via messages
};

/// Everything one query run reports. The fabric and per-machine counter
/// groups (common/counters.h) are inherited, so `stats.data_messages`,
/// `stats.flow_blocked` and friends are the schema's own fields; their
/// MachineCounters half is the fold over the cluster's machines, and a
/// profiled run's QueryProfile::machines folds to exactly that.
struct RuntimeStats : NetCounters, MachineCounters {
  /// MachineCounters::contexts per machine — the load distribution the
  /// §14 balancing acts on. Empty only for cached/coalesced results.
  std::vector<std::uint64_t> machine_contexts;
  /// max(machine_contexts) / mean(machine_contexts); 1.0 = perfectly
  /// balanced, num_machines = everything on one machine. 0 when no
  /// frames ran.
  double load_imbalance = 0.0;
  /// run_with_retry attempts before this result (0 = first try).
  unsigned retries = 0;
  // Result cache (DESIGN.md §11); all false with the cache off.
  /// This result was served from the result cache without executing.
  bool result_cache_hit = false;
  /// This result was coalesced onto a concurrent identical execution.
  bool result_cache_coalesced = false;
  /// This query probed the result cache while the cache's coherent epoch
  /// lagged its pinned snapshot (an update was mid-publication): it
  /// executed uncached rather than risk admitting a stale entry.
  bool result_cache_bypassed = false;
  // Online updates (DESIGN.md §12).
  /// Graph epoch this query pinned at admission; every traversal step
  /// observed exactly this snapshot.
  std::uint64_t snapshot_epoch = 0;
  // Concurrent serving (runtime/scheduler.h); identity values when the
  // query ran through the blocking single-query path.
  /// Credit-partition share this query's flow control was built with
  /// (1.0 = the whole per-machine buffer allowance).
  double credit_partition_share = 1.0;
  /// Wall-clock the query spent in the scheduler's admission queue
  /// before dispatch (0 when it was dispatched immediately or ran
  /// through the blocking path). Not part of elapsed_ms.
  double queue_ms = 0.0;
  // RPQ stages.
  std::vector<RpqStageStats> rpq;
  // Per-stage breakdown (EXPLAIN ANALYZE).
  std::vector<StageBreakdown> stages;
  // Output.
  std::uint64_t output_rows = 0;
  double elapsed_ms = 0.0;

  std::string summary() const;
  /// Renders the per-stage breakdown as an EXPLAIN ANALYZE style table.
  std::string stage_table() const;
};

}  // namespace rpqd
