// Engine configuration.
//
// Field defaults mirror the paper's experimental settings (§4.1), scaled
// down from a 16×36-core InfiniBand cluster to a simulated cluster inside
// one process: the *ratios* between buffers, stages, and depths are kept,
// the absolute sizes are smaller.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/fault.h"
#include "common/types.h"

namespace rpqd {

struct EngineConfig {
  /// Worker threads per machine executing traversals. The paper uses 34
  /// (36 cores minus two messaging threads); we default to 2 because the
  /// simulation multiplexes every machine onto one host.
  unsigned workers_per_machine = 2;

  /// Message buffers per machine available to flow control. The paper
  /// uses 8192 buffers of 256KB (~2GB of intermediate results / machine).
  unsigned buffers_per_machine = 1024;

  /// Payload bytes per message buffer. The paper uses 256KB; we default
  /// to 8KB so that small test graphs still exercise multi-buffer flows.
  std::size_t buffer_bytes = 8 * 1024;

  /// RPQ flow control: depths [0, rpq_preallocated_depth) get dedicated
  /// per-(stage,machine,depth) buffer credits (paper: depth four).
  Depth rpq_preallocated_depth = 4;

  /// Shared message credits per path stage for depths beyond the
  /// preallocated window (paper: five).
  unsigned rpq_shared_credits_per_stage = 5;

  /// Extra overflow credits added per observed depth beyond the window,
  /// preventing the livelock described in §3.3 (paper: one per depth).
  unsigned rpq_overflow_credits_per_depth = 1;

  /// Toggles the reachability index (§3.5). Disabling it reproduces the
  /// "without index" series of Figure 3; only safe on acyclic expansions.
  bool use_reachability_index = true;

  /// Pre/bulk-allocates the index's second-level maps (§4.5 future work:
  /// trade memory for allocation-free inserts on the hot path).
  bool reach_index_preallocate = false;

  /// When false, inbound data messages are processed FIFO instead of the
  /// paper's deepest-depth / latest-stage priority (§3.2) — an ablation
  /// knob for the messaging design choice.
  bool deep_message_priority = true;

  /// Safety valve for RPQ exploration when the reachability index is
  /// disabled on a cyclic graph. kUnboundedDepth means "no cap".
  Depth max_exploration_depth = kUnboundedDepth;

  /// Maximum nesting of message processing while blocked on flow-control
  /// credits (pickup rule iii of §3.2). Nested processing is what keeps
  /// the cluster live when every worker is blocked on credits, so the cap
  /// is generous; it only bounds C++ stack growth.
  unsigned max_pickup_nesting = 1024;

  // ---- query lifecycle budgets (common/abort.h) --------------------------
  // Each knob is off at 0. Exceeding one converts the query into a clean
  // cooperative abort (QueryResult{aborted, reason}) rather than an
  // unbounded run; the Database stays fully reusable afterwards.

  /// Wall-clock deadline for one query; a monitor thread converts an
  /// overrun into an AbortReason::kDeadline abort.
  std::uint64_t query_deadline_ms = 0;

  /// Per-machine ceiling on simultaneously-live execution frames (the
  /// termination detector's pending-work unit). Exceeding it trips
  /// AbortReason::kContextBudget. Peaks are surfaced in RuntimeStats /
  /// QueryProfile whether or not the budget is armed.
  std::uint64_t max_live_contexts = 0;

  /// Per-machine ceiling on the reachability index's dynamic bytes
  /// (12 bytes/entry, §4.4 arithmetic) — the §3.5 structure grows
  /// unboundedly on deep RPQs. Trips AbortReason::kReachIndexBudget.
  std::uint64_t reach_index_max_bytes = 0;

  /// A worker starved of credits for this long, with no inbound work it
  /// may pick up, trips AbortReason::kCreditStarvation: §3.3 buffer
  /// memory stays bounded, so a credit drought ends in a clean abort
  /// rather than an unbounded stall. 0 disables (the worker waits).
  std::uint64_t flow_starvation_abort_ms = 2000;

  /// Per-query profiling (runtime/profile.h): collects the
  /// per-(stage, machine, depth) QueryProfile tree alongside results.
  /// Off by default; the disabled mode costs one predictable branch per
  /// hook and performs zero profile allocations (asserted by tests).
  /// A `PROFILE `-prefixed PGQL query enables it for that query only.
  bool profile = false;

  /// Depth rows preallocated per (worker, stage) profile slot; depths
  /// beyond it grow geometrically (a counted, off-hot-path allocation).
  Depth profile_preallocated_depths = 64;

  /// Per-query credit partition for concurrent serving (§3.3 extension):
  /// this query's FlowControl is built over
  /// `buffers_per_machine * credit_partition_share` buffers (and the
  /// RPQ shared pool scaled the same way), so simultaneously-running
  /// queries draw from disjoint slices of each machine's buffer memory —
  /// a deep query can exhaust only its own partition, never a cheap
  /// neighbor's. 1.0 = the whole machine (single-query mode). Every
  /// partition keeps the §3.3 progress floor of two credits per
  /// (stage, destination) slot, so a small share throttles but never
  /// wedges a query. Set by the QueryScheduler at dispatch; the
  /// scheduler's `min_credit_share` is the fairness knob that bounds it
  /// from below.
  double credit_partition_share = 1.0;

  // ---- result caching (DESIGN.md §11) ------------------------------------
  // Defaults OFF (0 bytes): single-query and concurrent-serving behavior
  // is unchanged until a budget is set.

  /// Byte budget of the full result cache keyed by normalized PGQL text
  /// (pgql/normalize.h). Repeated asks of the same normalized query
  /// return the cached QueryResult; concurrent identical asks coalesce
  /// behind one leader execution (single-flight). 0 disables.
  std::uint64_t result_cache_max_bytes = 0;

  /// Largest single result admitted into the result cache; oversized
  /// results execute normally but are never cached. 0 = auto
  /// (result_cache_max_bytes / 8).
  std::uint64_t result_cache_admit_max_bytes = 0;

  // ---- online updates (DESIGN.md §12) ------------------------------------

  /// Auto-merge trigger: after Database::apply_update, when the snapshot
  /// holds at least this many delta adjacency entries, the deltas are
  /// folded into a fresh flat base (Database::merge_deltas). 0 = merge
  /// only on explicit request. A merge keeps the epoch — it changes the
  /// representation, never the visible graph.
  std::uint64_t delta_merge_entries = 0;

  // ---- reliable delivery over a lossy fabric (DESIGN.md §13) -------------
  // The reliability layer (per-link seq + acks + retransmission + CRC32)
  // arms automatically when fault_plan.lossy(); `reliable_transport`
  // forces it on over a healthy fabric (the 0%-loss overhead bench and
  // a forward-compatibility switch for real sockets). When off and the
  // plan is not lossy, the transport is byte-for-byte the pre-§13 one.

  /// Force the reliable-delivery machinery on even without loss faults.
  bool reliable_transport = false;

  /// Retransmission attempts per message before the link is declared
  /// dead and the run escalates to AbortReason::kMachineFailure. Any ack
  /// progress on a link refunds the budget of its remaining in-flight
  /// messages (pump ticks advance at wildly different rates on busy vs
  /// idle machines, so raw attempt counts only condemn links that make
  /// no progress at all). Sized so a merely-lossy link is never
  /// mistaken for a dead one: each attempt rolls fresh dice, so the
  /// chance a live link eats the whole budget is loss_rate^60 —
  /// negligible even at 80% sustained loss (~1e-6). Tests that want
  /// fast dead-link detection configure a small budget explicitly.
  unsigned max_retransmits = 60;

  /// Base retransmission timeout in pump ticks (one tick per worker
  /// main-loop / credit-wait iteration, cluster-global; idle workers
  /// burst-pump so ticks track wall pace while the cluster drains).
  /// Doubles per attempt (capped at 16x) plus a seeded jitter term.
  unsigned retransmit_timeout_ticks = 128;

  /// Deterministic seed for any randomized tie-breaking.
  std::uint64_t seed = 42;

  /// Fault-injection schedule applied to the simulated fabric (see
  /// common/fault.h). Default-constructed = no faults, zero overhead.
  /// Results must be invariant under any plan — the differential test
  /// harness asserts this against the reference oracle.
  FaultPlan fault_plan;
};

}  // namespace rpqd
