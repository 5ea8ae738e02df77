// One simulated machine of the RPQd cluster (§3.2).
//
// A MachineRuntime owns: its graph partition, the flow-control state, the
// reachability-index slices of every RPQ control stage, the termination
// detector, and per-worker execution state. For each run the engine
// hands `workers_per_machine` jobs per machine to its persistent worker
// pool; each job holds a dedicated pool thread for the whole run and runs
// worker_main():
//
//   1. eagerly pick up received messages (deepest depth / latest stage
//      first — §3.2 messaging priority),
//   2. otherwise bootstrap the next local vertex that passes stage 0's
//      vertex match (labels and filters) into stage 0 (planner
//      heuristic i seeds only the owned start vertex),
//   3. otherwise flush partial buffers, participate in the termination
//      protocol, and exit once the detector reports global termination.
//
// Traversals are run-to-completion depth-first walks over the plan's
// stage/hop automaton, using an explicit frame stack (no native
// recursion). Remote hops serialize the context into the per-(machine,
// stage, depth) output buffer, acquiring flow-control credits; when
// blocked, the worker processes incoming messages instead (pickup rule
// iii), nested up to a configured depth.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/config.h"
#include "graph/snapshot.h"
#include "net/network.h"
#include "plan/plan.h"
#include "rpq/reach_index.h"
#include "runtime/aggregate.h"
#include "runtime/context.h"
#include "runtime/profile.h"
#include "runtime/stats.h"
#include "runtime/termination.h"

namespace rpqd {

class MachineRuntime {
 public:
  MachineRuntime(MachineId id, const PartitionView* partition,
                 const ExecPlan* plan, const EngineConfig* config,
                 Network* network, AbortController* abort);

  /// Body of one worker thread. Returns when the query has globally
  /// terminated.
  void worker_main(unsigned worker_index);

  // ---- post-run accessors ----
  std::uint64_t row_count() const;
  std::vector<std::vector<std::string>> take_rows();
  /// Partial GROUP BY aggregates, merged across this machine's workers.
  AggMap merged_agg_rows() const;
  RpqStageStats rpq_stats(unsigned group) const;
  /// Frames entered at `stage` across this machine's workers.
  std::uint64_t stage_visits(StageId stage) const;
  const FlowControl& flow() const { return *flow_; }
  FlowControl& flow() { return *flow_; }
  const TerminationDetector& termination() const { return detector_; }
  TerminationDetector& termination() { return detector_; }
  const ReachabilityIndex& index(unsigned group) const {
    return *indexes_[group];
  }
  /// Merges this machine's worker profile slots (the stage tree and the
  /// credit-stall times) into the query tree. No-op unless the config
  /// had profiling on. Called once by the engine, after workers join.
  void merge_profile(QueryProfile& out) const;

  /// This machine's counters, built in one pass over its workers, flow
  /// control, detector and inbox. Called once by the engine, after
  /// workers join. Fabric leftovers the engine drains on the abort path
  /// are not included; the engine charges them to their destination.
  MachineCounters counters() const;

 private:
  struct Frame {
    StageId stage = kInvalidStage;
    LocalVertexId current = kInvalidLocalVertex;
    Depth depth = 0;
    std::uint64_t rpid = 0;
    std::uint8_t step = 0;       // kEdge/kInspect/kTransition/kOutput
    std::uint8_t dir_phase = 0;  // neighbor hop: 0 = primary, 1 = reverse
    std::uint32_t label_idx = 0;
    std::size_t cursor = 0;
    std::size_t end = 0;
    bool emit_pending = false;     // control stage
    bool explore_pending = false;  // control stage
    // Slot save/restore window (see RunState::saved): RPQ path stages
    // execute once per depth along a traversal, so a deeper iteration's
    // slot actions must not clobber an ancestor's values after backtrack.
    std::uint32_t saved_base = 0;
    std::uint32_t saved_count = 0;
  };

  /// Per-traversal execution state (the paper's "RPQ context": slots plus
  /// the per-depth frame stack, preallocated and grown on demand). Each
  /// worker keeps one per pickup nesting level and reuses it for every
  /// context run at that level; it is empty between runs.
  struct RunState {
    std::vector<Frame> stack;
    std::vector<Value> slots;
    std::vector<std::pair<SlotId, Value>> saved;  // shadowed slot values
  };

  struct OutBuffer {
    MachineId dest = 0;
    StageId stage = kInvalidStage;
    Depth depth = 0;
    CreditClass credit = CreditClass::kFixed;
    std::uint32_t count = 0;
    // Mirror-expand delegations (DESIGN.md §14): the contexts' vertices
    // are hot GLOBAL ids whose bucket the receiver enumerates instead of
    // entering `stage`. Flushed with kMessageFlagMirror set; buffered
    // separately from ordinary traffic (buffer_key folds the bit in).
    bool mirror = false;
    std::vector<std::byte> payload;
    // Delta-codec state; a buffer is always flushed as one message, so
    // the receiver's fresh decoder state matches.
    ContextCodecState codec;
  };

  struct Worker {
    WorkerId id = 0;
    std::uint64_t rpid_seq = 0;
    unsigned nesting = 0;
    std::atomic<bool> busy{true};
    // This worker's §3.4 counter lane; only this worker writes it.
    TerminationDetector::Lane* term = nullptr;
    bool bootstrap_done = false;
    std::size_t bootstrap_cursor = 0;  // index into seed_candidates_
    // run_states[k] serves the contexts run at pickup nesting level k. A
    // deque: a nested process_message may grow it while an outer level's
    // run still holds a reference to its own element.
    std::deque<RunState> run_states;
    std::unordered_map<std::uint64_t, OutBuffer> out;
    // Worker-local statistics (merged after the run; lock-free).
    std::vector<std::vector<std::uint64_t>> matches;     // [group][depth]
    std::vector<std::vector<std::uint64_t>> eliminated;  // [group][depth]
    std::vector<std::vector<std::uint64_t>> duplicated;  // [group][depth]
    std::uint64_t rows = 0;
    // This worker's seeds / contexts_discarded / mirror_fanouts /
    // mirror_expands.
    MachineCounters counters;
    std::vector<std::vector<std::string>> result_rows;
    std::vector<std::uint64_t> stage_visits;  // frames entered per stage
    AggMap agg_rows;  // partial GROUP BY aggregates
    // Profiling slot; null unless the query runs with profiling enabled.
    // `prof == nullptr` is the single branch every disabled-mode hook
    // pays (see runtime/profile.h).
    std::unique_ptr<WorkerProfile> prof;
  };

  // ---- execution ----
  /// The worker's run state for its current pickup nesting level, grown
  /// on first use and checked empty.
  RunState& run_state(Worker& w);
  /// Runs one context to completion on `rs` (from run_state, slots
  /// filled by the caller). Leaves `rs` empty, on the halt unwind too.
  void run_context(Worker& w, RunState& rs, StageId stage, LocalVertexId lv,
                   Depth depth, std::uint64_t rpid);
  bool enter_stage(Worker& w, RunState& rs, StageId stage, LocalVertexId lv,
                   Depth depth, std::uint64_t rpid, bool from_increment);
  void step(Worker& w, RunState& rs);
  bool next_neighbor(Frame& f, const StagePlan& sp, std::size_t& out_idx,
                     const ViewAdjacency** out_adj);
  std::size_t edge_multiplicity(LocalVertexId lv, Direction dir,
                                const std::vector<LabelId>& labels,
                                VertexId target) const;
  void output_row(Worker& w, const Frame& f, const std::vector<Value>& slots);
  void pop_frame(Worker& w, RunState& rs);

  // ---- messaging ----
  void send_remote(Worker& w, StageId stage, VertexId vertex, Depth depth,
                   std::uint64_t rpid, const std::vector<Value>& slots);
  /// Shared body of send_remote and mirror delegation: appends one
  /// context to the (dest, stage, depth, mirror) output buffer, acquiring
  /// its credit when the buffer opens. `mirror` buffers carry hot GLOBAL
  /// vertex ids and flush with kMessageFlagMirror.
  void send_to(Worker& w, MachineId dest, StageId stage, VertexId vertex,
               Depth depth, std::uint64_t rpid,
               const std::vector<Value>& slots, bool mirror);
  void flush_buffer(Worker& w, OutBuffer&& buf);
  void flush_all(Worker& w);
  /// Blocks for a credit, processing inbound work meanwhile (pickup rule
  /// iii). Returns nullopt when the query halted (abort or crash) while
  /// blocked — the caller drops the send; the abort drain reclaims
  /// everything else.
  std::optional<CreditClass> acquire_credit_blocking(Worker& w,
                                                     MachineId dest,
                                                     StageId stage,
                                                     Depth depth);
  void process_message(Worker& w, Message msg);

  // ---- cooperative abort (common/abort.h) ----
  /// The worker-side halt poll: this machine learned of the abort via a
  /// kAbort message, or its own crash tick fired. Checked at the same
  /// points that check flow-control credits.
  bool halted() const {
    const Inbox& inbox = net_->inbox(id_);
    return inbox.aborted() || inbox.crashed();
  }
  /// Initiates an abort: first requester fixes the reason on the query's
  /// controller and broadcasts the kAbort control message.
  void trip_abort(AbortReason reason);
  /// Unwinds a halted traversal (balances slot shadows + detector).
  void unwind(Worker& w, RunState& rs);
  /// Post-halt reclamation: returns this worker's out-buffer credits
  /// and (unless this machine crashed) replies DONE for every
  /// still-queued inbound batch.
  void abort_drain(Worker& w);
  // Frame accounting around the termination detector: live/peak counts
  // feed the max_live_contexts budget and the leak audit.
  void note_frame_pushed(Worker& w, StageId stage, int group, Depth depth);
  void note_frame_popped(Worker& w, StageId stage, int group, Depth depth);

  // ---- idle / termination driving ----
  bool machine_idle() const;

  bool vertex_matches(const StagePlan& sp, LocalVertexId lv,
                      const std::vector<Value>& slots) const;
  void apply_actions(const StagePlan& sp, LocalVertexId lv,
                     std::vector<Value>& slots) const;
  int group_of(StageId stage) const { return stage_group_[stage]; }

  EvalCtx eval_ctx(LocalVertexId lv, const std::vector<Value>& slots) const {
    EvalCtx ctx;
    ctx.part = part_;
    ctx.catalog = &part_->catalog();
    ctx.current = lv;
    ctx.slots = slots.data();
    return ctx;
  }

  // ---- hot-vertex delegated fan-out (DESIGN.md §14) ----
  /// Delegation gate for a kNeighbor frame whose current vertex is hot:
  /// sends ONE mirror-expand context per peer machine with a non-empty
  /// bucket for this hop's direction(s), so each peer enumerates its
  /// pre-bucketed slice of the hot adjacency locally instead of
  /// receiving one message per remote neighbor. Returns true when the
  /// frame is delegated (the caller then skips non-owned destinations in
  /// its own enumeration); false leaves the frame on the normal path.
  /// Exactness: the cluster-wide multiset of enter_stage(hop.to, dst)
  /// calls is identical to the undelegated run — only the message count
  /// changes — so results, dedup, and the differential harness all hold.
  bool mirror_delegate(Worker& w, Frame& f, const StagePlan& sp,
                       const std::vector<Value>& slots);
  /// Receive side: enumerates this machine's bucket of `hot_vertex`'s
  /// adjacency for `stage`'s hop and runs each owned destination to
  /// completion (frameless analogue of run_context — it must NOT
  /// re-enter `stage`, whose visit already happened at the delegator).
  void run_mirror_expand(Worker& w, RunState& rs, StageId stage,
                         VertexId hot_vertex, Depth depth, std::uint64_t rpid);

  MachineId id_;
  const PartitionView* part_;
  const ExecPlan* plan_;
  const EngineConfig* config_;
  // Delegation gate: the snapshot has mirrors and there are peers. False
  // keeps the traversal hot path byte-identical to §13.
  bool mirror_armed_ = false;
  Network* net_;
  AbortController* abort_;
  std::atomic<std::uint64_t> live_frames_{0};
  std::atomic<std::uint64_t> peak_live_frames_{0};
  std::unique_ptr<FlowControl> flow_;
  TerminationDetector detector_;
  std::vector<std::unique_ptr<ReachabilityIndex>> indexes_;
  std::vector<int> stage_group_;  // stage -> rpq index_id, or -1
  // The alive locals that pass stage 0's vertex match (only the owned
  // start vertex under heuristic i). Workers stride over it in
  // bootstrap. The pinned snapshot never changes during the run, so
  // liveness and properties checked here hold throughout.
  std::vector<LocalVertexId> seed_candidates_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> done_{false};
};

}  // namespace rpqd
