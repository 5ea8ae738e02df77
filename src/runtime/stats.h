// Per-query runtime statistics: everything the paper's evaluation section
// reports — per-depth RPQ control-stage matches (Table 2), eliminations
// and duplications (Table 3), reachability-index size (§4.4), flow-control
// block counts (§4.2), message/byte counters, and peak buffered bytes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

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

struct RuntimeStats {
  // Messaging.
  std::uint64_t data_messages = 0;
  std::uint64_t done_messages = 0;
  std::uint64_t term_messages = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t contexts_sent = 0;
  /// Max over machines of each machine's buffered-byte high-water mark —
  /// a per-machine memory metric. NOT the peak of the cluster-wide sum
  /// (machines peaking at different times must not be added together).
  std::uint64_t peak_queued_bytes = 0;
  // Flow control (§3.3 / §4.2).
  std::uint64_t flow_fast_path = 0;  // credits granted without a lock
  std::uint64_t flow_blocked = 0;
  std::uint64_t flow_shared_used = 0;
  std::uint64_t flow_overflow_used = 0;
  /// Credits still outstanding after the run drained — a leak detector;
  /// always 0 on a healthy run (asserted by the differential harness).
  std::uint64_t flow_outstanding = 0;
  /// Overflow credits still marked in-flight after the run (subset of
  /// flow_outstanding with its own bookkeeping path; audited separately
  /// because a stale overflow_out entry blocks that depth forever on the
  /// next acquire even when the credit counters balance).
  std::uint64_t flow_overflow_outstanding = 0;
  // Fault injection (common/fault.h); all 0 without an active plan.
  std::uint64_t faults_delayed = 0;
  std::uint64_t faults_duplicated = 0;
  std::uint64_t faults_dup_dropped = 0;
  std::uint64_t faults_stalls = 0;
  // Reliable delivery over a lossy fabric (DESIGN.md §13); all 0 unless
  // the reliability layer is armed (lossy plan or reliable_transport).
  std::uint64_t faults_lost = 0;       // transmission attempts dropped
  std::uint64_t faults_corrupted = 0;  // transmission attempts corrupted
  std::uint64_t retransmits = 0;       // copies re-sent by the timers
  std::uint64_t acks_sent = 0;         // standalone kAck messages
  std::uint64_t payload_corruptions_detected = 0;  // CRC32 catches
  std::uint64_t dedup_drops = 0;       // link-seq duplicate deliveries dropped
  // Skew-aware balancing (DESIGN.md §14); all 0 without a hot set.
  std::uint64_t mirror_fanouts = 0;   // hot frames delegated to peers
  std::uint64_t mirror_expands = 0;   // delegations expanded locally
  /// Frames entered per machine (all stages) — the load distribution the
  /// §14 balancing acts on. Empty only for cached/coalesced results.
  std::vector<std::uint64_t> machine_contexts;
  /// max(machine_contexts) / mean(machine_contexts); 1.0 = perfectly
  /// balanced, num_machines = everything on one machine. 0 when no
  /// frames ran.
  double load_imbalance = 0.0;
  // Query lifecycle (common/abort.h); all 0 on a normally-finishing run.
  std::uint64_t abort_messages = 0;      // kAbort deliveries
  std::uint64_t blackholed_messages = 0;  // data sent to a crashed machine
  std::uint64_t epoch_dropped = 0;        // stale-epoch messages rejected
  std::uint64_t contexts_discarded = 0;   // dropped by the abort drain
  /// Max over machines of simultaneously-live execution frames (the
  /// max_live_contexts budget's tracked quantity; tracked always).
  std::uint64_t peak_live_contexts = 0;
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
