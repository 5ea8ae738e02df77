#include "runtime/machine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <thread>

#include "common/stopwatch.h"
#include "rpq/rpid.h"

namespace rpqd {

namespace {

Direction effective_dir(Direction hop_dir, std::uint8_t phase) {
  if (hop_dir == Direction::kBoth) {
    return phase == 0 ? Direction::kOut : Direction::kIn;
  }
  return hop_dir;
}

/// Mirror-expand buffers live beside ordinary (dest, stage, depth)
/// buffers under their own key bit (bit 39: above any Depth, below the
/// stage field) — a delegation must never ride in a buffer whose
/// receiver would run_context its contexts, and vice versa.
constexpr std::uint64_t kMirrorKeyBit = 1ull << 39;

std::uint64_t buffer_key(MachineId dest, StageId stage, Depth depth) {
  return (static_cast<std::uint64_t>(dest) << 56) |
         (static_cast<std::uint64_t>(stage) << 40) |
         static_cast<std::uint64_t>(depth);
}

/// Execution frames reserved per traversal beyond one per stage; deeper
/// RPQ walks grow the stack on demand (paper: depth three).
constexpr std::size_t kPreallocatedContextDepth = 3;

void bump(std::vector<std::uint64_t>& v, Depth depth) {
  if (depth >= v.size()) v.resize(depth + 1, 0);
  ++v[depth];
}

}  // namespace

MachineRuntime::MachineRuntime(MachineId id, const PartitionView* partition,
                               const ExecPlan* plan,
                               const EngineConfig* config, Network* network,
                               AbortController* abort)
    : id_(id),
      part_(partition),
      plan_(plan),
      config_(config),
      net_(network),
      abort_(abort),
      detector_(id, network->num_machines(),
                static_cast<unsigned>(plan->stages.size()),
                plan->num_rpq_indexes) {
  std::vector<bool> is_rpq(plan->stages.size(), false);
  stage_group_.assign(plan->stages.size(), -1);
  for (const auto& sp : plan->stages) {
    if (sp.kind == StageKind::kPath || sp.kind == StageKind::kRpqControl) {
      is_rpq[sp.id] = true;
      stage_group_[sp.id] =
          static_cast<int>(plan->stages[sp.rpq_group].rpq.index_id);
    }
  }
  // §14 delegation arms whenever the pinned snapshot carries a hot set.
  mirror_armed_ = part_->mirrors() != nullptr && network->num_machines() > 1;
  flow_ = std::make_unique<FlowControl>(*config, network->num_machines(),
                                        std::move(is_rpq));
  net_->inbox(id_).attach_flow_control(flow_.get());
  net_->inbox(id_).set_deep_priority(config->deep_message_priority);
  // Receiver-side fault injection (dedup/delay/stalls); the sender side
  // (sequence stamping, duplication) is armed by the engine on the
  // Network itself before any machine is constructed.
  net_->inbox(id_).configure_faults(config->fault_plan, id_,
                                    network->num_machines());
  for (unsigned g = 0; g < plan->num_rpq_indexes; ++g) {
    indexes_.push_back(std::make_unique<ReachabilityIndex>(
        part_->num_local(), config->reach_index_preallocate));
  }
  for (unsigned w = 0; w < config->workers_per_machine; ++w) {
    auto worker = std::make_unique<Worker>();
    worker->id = static_cast<WorkerId>(w);
    worker->matches.resize(plan->num_rpq_indexes);
    worker->eliminated.resize(plan->num_rpq_indexes);
    worker->duplicated.resize(plan->num_rpq_indexes);
    worker->stage_visits.assign(plan->stages.size(), 0);
    if (config->profile) {
      // Preallocate the profiling slot now, before the query's hot path;
      // with profiling off `prof` stays null and every hook is a single
      // never-taken branch.
      worker->prof = std::make_unique<WorkerProfile>(
          static_cast<unsigned>(plan->stages.size()),
          config->profile_preallocated_depths);
    }
    workers_.push_back(std::move(worker));
  }
}

// --------------------------------------------------------------- matching --

bool MachineRuntime::vertex_matches(const StagePlan& sp, LocalVertexId lv,
                                    const std::vector<Value>& slots) const {
  if (!sp.vlabels.empty()) {
    const LabelId label = part_->label(lv);
    if (std::find(sp.vlabels.begin(), sp.vlabels.end(), label) ==
        sp.vlabels.end()) {
      return false;
    }
  }
  if (!sp.filters.empty()) {
    const EvalCtx ctx = eval_ctx(lv, slots);
    for (const auto& filter : sp.filters) {
      if (!filter.evaluate_bool(ctx)) return false;
    }
  }
  return true;
}

void MachineRuntime::apply_actions(const StagePlan& sp, LocalVertexId lv,
                                   std::vector<Value>& slots) const {
  for (const auto& action : sp.actions) {
    if (action.kind == SlotAction::Kind::kStoreVertex) {
      slots[action.slot] = vertex_value(part_->to_global(lv));
    } else {
      slots[action.slot] = action.prop == kInvalidProp
                               ? null_value()
                               : part_->property(lv, action.prop);
    }
  }
}

// -------------------------------------------------------------- execution --

void MachineRuntime::run_context(Worker& w, StageId stage, VertexId vertex,
                                 Depth depth, std::uint64_t rpid,
                                 std::vector<Value> slots) {
  const LocalVertexId lv = part_->require_local(vertex);
  RunState rs;
  rs.stack.reserve(plan_->stages.size() + kPreallocatedContextDepth + 16);
  rs.slots = std::move(slots);
  rs.saved.reserve(32);
  enter_stage(w, rs, stage, lv, depth, rpid, false);
  while (!rs.stack.empty()) {
    if (halted()) {
      // The halt poll of the traversal loop itself: unwind the partial
      // walk (keeping save-stack and detector balanced) and drop it.
      unwind(rs);
      ++w.counters.contexts_discarded;
      break;
    }
    step(w, rs);
  }
}

void MachineRuntime::run_mirror_expand(Worker& w, StageId stage,
                                       VertexId hot_vertex, Depth depth,
                                       std::uint64_t rpid,
                                       std::vector<Value> slots) {
  ++w.counters.mirror_expands;
  const StagePlan& sp = plan_->stages[stage];
  const MirrorSet* mirrors = part_->mirrors();
  engine_check(mirrors != nullptr, "mirror-expand delegation without mirrors");
  const auto row = mirrors->row_of(hot_vertex);
  engine_check(row.has_value(), "mirror-expand for a non-hot vertex");
  RunState rs;
  rs.stack.reserve(plan_->stages.size() + kPreallocatedContextDepth + 16);
  rs.slots = std::move(slots);
  rs.saved.reserve(32);
  // Enumerate this machine's bucket of the hot vertex's adjacency —
  // exactly the entries whose destination this machine owns, so each one
  // reproduces the enter_stage(hop.to, dst) call the delegator's own
  // enumeration skipped. The hot visit at `stage` itself already
  // happened at the delegator; re-entering it here would double-count.
  // Edge filters are impossible (the delegation gate enumerates normally
  // when the hop carries any); eprop stores read this bucket's columns —
  // copies of the owner view's, so the slot values are identical.
  const auto expand = [&](Direction dir) -> bool {  // false = halted
    const Adjacency& bucket = mirrors->bucket(id_, dir);
    const std::size_t nlabels =
        std::max<std::size_t>(1, sp.hop.elabels.size());
    for (std::size_t li = 0; li < nlabels; ++li) {
      const auto [begin, end] =
          sp.hop.elabels.empty()
              ? bucket.range(*row)
              : bucket.label_range(*row, sp.hop.elabels[li]);
      for (std::size_t idx = begin; idx < end; ++idx) {
        if (halted()) return false;
        for (const auto& store : sp.hop.eprop_stores) {
          rs.slots[store.slot] =
              store.prop == kInvalidProp
                  ? null_value()
                  : bucket.edge_property(idx, store.prop);
        }
        // Bucket entries are never the hot vertex itself (it lives on
        // the delegator), so the kBoth reverse-leg self-loop skip does
        // not apply — the owner's own enumeration handles self-loops.
        const VertexId dst = bucket.entry(idx).other;
        if (enter_stage(w, rs, sp.hop.to, part_->require_local(dst), depth,
                        rpid, false)) {
          while (!rs.stack.empty()) {
            if (halted()) {
              unwind(rs);
              ++w.counters.contexts_discarded;
              return false;
            }
            step(w, rs);
          }
        }
      }
    }
    return true;
  };
  if (sp.hop.dir == Direction::kBoth) {
    if (expand(Direction::kOut)) expand(Direction::kIn);
  } else {
    expand(sp.hop.dir);
  }
}

bool MachineRuntime::enter_stage(Worker& w, RunState& rs, StageId stage,
                                 LocalVertexId lv, Depth depth,
                                 std::uint64_t rpid, bool from_increment) {
  std::vector<Frame>& stack = rs.stack;
  std::vector<Value>& slots = rs.slots;
  const StagePlan& sp = plan_->stages[stage];
  if (sp.kind == StageKind::kRpqControl) {
    const int group = group_of(stage);
    if (from_increment) {
      ++depth;
    } else {
      // Entering the RPQ from outside: mint the rpid, start at depth 0
      // (0-hop matching is possible via the transition hop — §3.1).
      rpid = make_rpid_source(id_, w.id, ++w.rpid_seq);
      depth = 0;
    }
    const RpqControlPlan& rpq = sp.rpq;
    engine_check(rpq.max_hop == kUnboundedDepth || depth <= rpq.max_hop,
                 "RPQ exploration beyond max_hop");
    bump(w.matches[static_cast<unsigned>(group)], depth);
    bool emit = false;
    bool explore = false;
    const bool below_max =
        rpq.max_hop == kUnboundedDepth || depth < rpq.max_hop;
    if (depth < rpq.min_hop) {
      // Below the window: no index entry is created (§4.5), keep going.
      explore = below_max;
    } else {
      ReachOutcome outcome = ReachOutcome::kNew;
      if (config_->use_reachability_index) {
        outcome = indexes_[static_cast<unsigned>(group)]->check_and_update(
            lv, rpid, depth);
        // Reach-index memory budget (§4.4 arithmetic, 12B/entry): polled
        // only when armed, right where the index grows.
        if (config_->reach_index_max_bytes != 0 &&
            indexes_[static_cast<unsigned>(group)]->approx_dynamic_bytes() >
                config_->reach_index_max_bytes) {
          trip_abort(AbortReason::kReachIndexBudget);
        }
        if (w.prof) {
          ProfileDepthRow& row = w.prof->row(stage, depth);
          ++row.index_probes;
          switch (outcome) {
            case ReachOutcome::kNew: ++row.index_new; break;
            case ReachOutcome::kDuplicated: ++row.index_duplicated; break;
            case ReachOutcome::kEliminated: ++row.index_eliminated; break;
          }
        }
      } else if (config_->max_exploration_depth != kUnboundedDepth &&
                 depth >= config_->max_exploration_depth) {
        outcome = ReachOutcome::kEliminated;  // safety cap without index
        // The cap silently truncates the result set; record it so the
        // engine can report a truncated (but non-aborted) QueryResult.
        abort_->note_truncation();
      }
      switch (outcome) {
        case ReachOutcome::kNew:
          emit = true;
          explore = below_max;
          break;
        case ReachOutcome::kDuplicated:
          bump(w.duplicated[static_cast<unsigned>(group)], depth);
          explore = below_max;
          break;
        case ReachOutcome::kEliminated:
          bump(w.eliminated[static_cast<unsigned>(group)], depth);
          break;
      }
    }
    if (emit) {
      // Destination gating: label/filter constraints of the RPQ target
      // vertex, plus the bound-destination equality for cycle-closing
      // RPQs. Failing the gate suppresses emission but not exploration.
      if (!rpq.dest_labels.empty()) {
        const LabelId label = part_->label(lv);
        if (std::find(rpq.dest_labels.begin(), rpq.dest_labels.end(), label) ==
            rpq.dest_labels.end()) {
          emit = false;
        }
      }
      if (emit && !rpq.dest_filters.empty()) {
        const EvalCtx ctx = eval_ctx(lv, slots);
        for (const auto& filter : rpq.dest_filters) {
          if (!filter.evaluate_bool(ctx)) {
            emit = false;
            break;
          }
        }
      }
      if (emit && rpq.bound_dest_slot != kInvalidSlot) {
        const Value& bound = slots[rpq.bound_dest_slot];
        if (bound.type != ValueType::kVertex ||
            as_vertex(bound) != part_->to_global(lv)) {
          emit = false;
        }
      }
    }
    if (!emit && !explore) return false;
    Frame f;
    f.stage = stage;
    f.current = lv;
    f.depth = depth;
    f.rpid = rpid;
    f.emit_pending = emit;
    f.explore_pending = explore;
    f.saved_base = static_cast<std::uint32_t>(rs.saved.size());
    f.saved_count = 0;
    ++w.stage_visits[stage];
    if (w.prof) ++w.prof->row(stage, depth).contexts;
    note_frame_pushed(stage, group, depth);
    stack.push_back(f);
    return true;
  }

  if (!vertex_matches(sp, lv, slots)) return false;
  Frame f;
  f.stage = stage;
  f.current = lv;
  f.depth = depth;
  f.rpid = rpid;
  // Shadow the slots this stage's actions overwrite, so backtracking
  // restores the ancestor iteration's values (path stages run once per
  // RPQ depth along a single traversal).
  f.saved_base = static_cast<std::uint32_t>(rs.saved.size());
  for (const auto& action : sp.actions) {
    rs.saved.emplace_back(action.slot, slots[action.slot]);
  }
  f.saved_count = static_cast<std::uint32_t>(sp.actions.size());
  apply_actions(sp, lv, slots);
  ++w.stage_visits[stage];
  if (w.prof) ++w.prof->row(stage, depth).contexts;
  note_frame_pushed(stage, group_of(stage), depth);
  stack.push_back(f);
  return true;
}

void MachineRuntime::pop_frame(RunState& rs) {
  const Frame& f = rs.stack.back();
  engine_check(rs.saved.size() == f.saved_base + f.saved_count,
               "slot save-stack out of sync with frame stack");
  // Restore shadowed slots in reverse write order.
  for (std::uint32_t i = f.saved_count; i > 0; --i) {
    const auto& [slot, value] = rs.saved[f.saved_base + i - 1];
    rs.slots[slot] = value;
  }
  rs.saved.resize(f.saved_base);
  note_frame_popped(f.stage, group_of(f.stage), f.depth);
  rs.stack.pop_back();
}

void MachineRuntime::unwind(RunState& rs) {
  while (!rs.stack.empty()) pop_frame(rs);
}

bool MachineRuntime::next_neighbor(Frame& f, const StagePlan& sp,
                                   std::size_t& out_idx,
                                   const ViewAdjacency** out_adj) {
  while (true) {
    if (f.cursor < f.end) {
      const Direction dir = effective_dir(sp.hop.dir, f.dir_phase);
      const ViewAdjacency& adj = part_->adjacency(dir);
      const std::size_t idx = f.cursor++;
      // An undirected hop visits out- then in-entries; a self-loop would
      // appear in both, so skip it on the reverse leg.
      if (sp.hop.dir == Direction::kBoth && f.dir_phase == 1 &&
          adj.entry(idx).other == part_->to_global(f.current)) {
        continue;
      }
      out_idx = idx;
      *out_adj = &adj;
      return true;
    }
    // Advance to the next (label, direction) range.
    const Direction dir = effective_dir(sp.hop.dir, f.dir_phase);
    const ViewAdjacency& adj = part_->adjacency(dir);
    const std::size_t nlabels = std::max<std::size_t>(1, sp.hop.elabels.size());
    if (f.label_idx < nlabels) {
      if (sp.hop.elabels.empty()) {
        const auto [begin, end] = adj.range(f.current);
        f.cursor = begin;
        f.end = end;
      } else {
        const auto [begin, end] =
            adj.label_range(f.current, sp.hop.elabels[f.label_idx]);
        f.cursor = begin;
        f.end = end;
      }
      ++f.label_idx;
      continue;
    }
    if (sp.hop.dir == Direction::kBoth && f.dir_phase == 0) {
      f.dir_phase = 1;
      f.label_idx = 0;
      continue;
    }
    return false;
  }
}

std::size_t MachineRuntime::edge_multiplicity(
    LocalVertexId lv, Direction dir, const std::vector<LabelId>& labels,
    VertexId target) const {
  const auto count_dir = [&](Direction d) -> std::size_t {
    const ViewAdjacency& adj = part_->adjacency(d);
    if (labels.empty()) return adj.count_edges_to(lv, target, std::nullopt);
    std::size_t count = 0;
    for (const LabelId l : labels) {
      count += adj.count_edges_to(lv, target, l);
    }
    return count;
  };
  if (dir == Direction::kBoth) {
    // Out entries plus in entries; a self-loop appears in both, so count
    // it once (mirrors the neighbor hop's reverse-leg self-loop skip).
    std::size_t count = count_dir(Direction::kOut);
    if (target != part_->to_global(lv)) count += count_dir(Direction::kIn);
    return count;
  }
  return count_dir(dir);
}

void MachineRuntime::output_row(Worker& w, const Frame& f,
                                const std::vector<Value>& slots) {
  ++w.rows;
  if (plan_->count_star) return;
  EvalCtx ctx = eval_ctx(f.current, slots);
  const auto render = [&](const EvalValue& v) {
    return v.text != nullptr ? *v.text : part_->catalog().render(v.v);
  };
  if (plan_->has_aggregates) {
    // Fold the match into the worker-local partial aggregates.
    std::string map_key;
    std::vector<std::string> keys;
    keys.reserve(plan_->group_exprs.size());
    for (const auto& key_expr : plan_->group_exprs) {
      keys.push_back(render(key_expr.evaluate(ctx)));
      map_key += keys.back();
      map_key += '\x1f';
    }
    AggRow& row = w.agg_rows[map_key];
    if (row.states.empty()) {
      row.keys = std::move(keys);
      row.states.resize(plan_->aggregates.size());
    }
    for (std::size_t i = 0; i < plan_->aggregates.size(); ++i) {
      const AggSpec& spec = plan_->aggregates[i];
      const EvalValue operand = spec.has_operand
                                    ? spec.operand.evaluate(ctx)
                                    : EvalValue::of(bool_value(true));
      row.states[i].update(spec.kind, operand, part_->catalog());
    }
    return;
  }
  std::vector<std::string> row;
  row.reserve(plan_->projections.size());
  for (const auto& proj : plan_->projections) {
    row.push_back(render(proj.evaluate(ctx)));
  }
  w.result_rows.push_back(std::move(row));
}

AggMap MachineRuntime::merged_agg_rows() const {
  std::vector<pgql::AggKind> kinds;
  kinds.reserve(plan_->aggregates.size());
  for (const auto& spec : plan_->aggregates) kinds.push_back(spec.kind);
  AggMap merged;
  for (const auto& w : workers_) {
    merge_agg_maps(merged, w->agg_rows, kinds, part_->catalog());
  }
  return merged;
}

void MachineRuntime::step(Worker& w, RunState& rs) {
  std::vector<Frame>& stack = rs.stack;
  std::vector<Value>& slots = rs.slots;
  Frame& f = stack.back();
  const StagePlan& sp = plan_->stages[f.stage];

  // NOTE: a frame pops only after its whole subtree completed — children
  // read slot values their ancestors wrote, and pop_frame restores the
  // shadowed values, so popping a parent before running its child would
  // hand the child stale slots.
  if (sp.kind == StageKind::kRpqControl) {
    // Deep-first: explore path stages before emitting, as the paper's
    // engine favours deeper work (§4.4).
    if (f.explore_pending) {
      f.explore_pending = false;
      enter_stage(w, rs, sp.rpq.path_entry, f.current, f.depth, f.rpid,
                  false);
      return;
    }
    if (f.emit_pending) {
      f.emit_pending = false;
      enter_stage(w, rs, sp.rpq.continuation, f.current, f.depth, f.rpid,
                  false);
      return;
    }
    pop_frame(rs);
    return;
  }

  switch (sp.hop.kind) {
    case HopKind::kNeighbor: {
      if (f.step == 0) {
        // §14 delegation gate, checked once per frame before the cursor
        // moves (kNeighbor leaves f.step free): 1 = normal enumeration,
        // 2 = delegated — peers expand their mirror buckets, this
        // machine enumerates but skips every non-owned destination.
        f.step = mirror_delegate(w, f, sp, slots) ? 2 : 1;
      }
      std::size_t idx = 0;
      const ViewAdjacency* adj = nullptr;
      if (!next_neighbor(f, sp, idx, &adj)) {
        pop_frame(rs);
        return;
      }
      if (!sp.hop.edge_filters.empty() || !sp.hop.eprop_stores.empty()) {
        EvalCtx ctx = eval_ctx(f.current, slots);
        ctx.adj = adj;
        ctx.entry_idx = idx;
        for (const auto& filter : sp.hop.edge_filters) {
          if (!filter.evaluate_bool(ctx)) return;
        }
        for (const auto& store : sp.hop.eprop_stores) {
          slots[store.slot] = store.prop == kInvalidProp
                                  ? null_value()
                                  : adj->edge_property(idx, store.prop);
        }
      }
      const VertexId dst = adj->entry(idx).other;
      const auto depth = f.depth;
      const auto rpid = f.rpid;
      if (part_->owns(dst)) {
        enter_stage(w, rs, sp.hop.to, part_->require_local(dst), depth, rpid,
                    false);
      } else if (f.step != 2) {
        send_remote(w, sp.hop.to, dst, depth, rpid, slots);
      }
      // f.step == 2: the owner's mirror delegation already covers every
      // non-owned destination — sending it too would double-visit.
      return;
    }
    case HopKind::kEdge: {
      if (f.step != 0) {
        pop_frame(rs);
        return;
      }
      f.step = 1;
      const Value target = slots[sp.hop.target_slot];
      const std::size_t multiplicity =
          target.type == ValueType::kVertex
              ? edge_multiplicity(f.current, sp.hop.dir, sp.hop.elabels,
                                  as_vertex(target))
              : 0;
      const auto current = f.current;
      const auto depth = f.depth;
      const auto rpid = f.rpid;
      const StageId to = sp.hop.to;
      // Homomorphic matching: each parallel edge is a distinct match.
      for (std::size_t i = 0; i < multiplicity; ++i) {
        enter_stage(w, rs, to, current, depth, rpid, false);
      }
      return;
    }
    case HopKind::kInspect: {
      if (f.step != 0) {
        pop_frame(rs);
        return;
      }
      f.step = 1;
      const Value target = slots[sp.hop.target_slot];
      const auto depth = f.depth;
      const auto rpid = f.rpid;
      const StageId to = sp.hop.to;
      if (target.type != ValueType::kVertex) return;
      const VertexId dst = as_vertex(target);
      if (part_->owns(dst)) {
        enter_stage(w, rs, to, part_->require_local(dst), depth,
                    rpid, false);
      } else {
        send_remote(w, to, dst, depth, rpid, slots);
      }
      return;
    }
    case HopKind::kTransition: {
      if (f.step != 0) {
        pop_frame(rs);
        return;
      }
      f.step = 1;
      enter_stage(w, rs, sp.hop.to, f.current, f.depth, f.rpid,
                  sp.increments_depth);
      return;
    }
    case HopKind::kOutput: {
      output_row(w, f, slots);
      pop_frame(rs);
      return;
    }
  }
}

// -------------------------------------------------------------- messaging --

void MachineRuntime::send_remote(Worker& w, StageId stage, VertexId vertex,
                                 Depth depth, std::uint64_t rpid,
                                 const std::vector<Value>& slots) {
  send_to(w, part_->owner_of(vertex), stage, vertex, depth, rpid, slots,
          /*mirror=*/false);
}

bool MachineRuntime::mirror_delegate(Worker& w, Frame& f, const StagePlan& sp,
                                     const std::vector<Value>& slots) {
  if (!mirror_armed_) return false;
  // Edge filters need the owner's EvalCtx (arbitrary slot/property
  // expressions); a frame carrying them always enumerates normally.
  // eprop_stores ARE delegable: the buckets carry the edge-property
  // columns, and the receiver writes the slots from its own slice.
  if (!sp.hop.edge_filters.empty()) return false;
  const MirrorSet* mirrors = part_->mirrors();
  const VertexId gid = part_->to_global(f.current);
  const auto row = mirrors->row_of(gid);
  if (!row.has_value()) return false;
  const unsigned n = net_->num_machines();
  for (unsigned m = 0; m < n; ++m) {
    if (m == id_) continue;
    bool nonempty = false;
    if (sp.hop.dir != Direction::kIn) {
      nonempty = mirrors->bucket_degree(static_cast<MachineId>(m), *row,
                                        Direction::kOut) > 0;
    }
    if (!nonempty && sp.hop.dir != Direction::kOut) {
      nonempty = mirrors->bucket_degree(static_cast<MachineId>(m), *row,
                                        Direction::kIn) > 0;
    }
    if (!nonempty) continue;  // no neighbors of gid live on m
    send_to(w, static_cast<MachineId>(m), f.stage, gid, f.depth, f.rpid,
            slots, /*mirror=*/true);
  }
  ++w.counters.mirror_fanouts;
  return true;
}

void MachineRuntime::send_to(Worker& w, MachineId dest, StageId stage,
                             VertexId vertex, Depth depth, std::uint64_t rpid,
                             const std::vector<Value>& slots, bool mirror) {
  const std::uint64_t key =
      buffer_key(dest, stage, depth) | (mirror ? kMirrorKeyBit : 0);
  auto it = w.out.find(key);
  if (it == w.out.end()) {
    const auto credit = acquire_credit_blocking(w, dest, stage, depth);
    if (!credit) {
      // Halted while blocked: drop the context (never counted as sent,
      // so no DONE is owed) and let the caller's halt poll unwind.
      ++w.counters.contexts_discarded;
      return;
    }
    // The blocking acquire processes incoming messages (pickup rule iii),
    // and those nested traversals can open this very buffer. Re-probe:
    // emplacing onto the existing key would silently destroy the fresh
    // credit with the temporary OutBuffer — a flow-control leak.
    it = w.out.find(key);
    if (it != w.out.end()) {
      flow_->release(dest, stage, depth, *credit);
    } else {
      OutBuffer buf;
      buf.dest = dest;
      buf.stage = stage;
      buf.depth = depth;
      buf.credit = *credit;
      buf.mirror = mirror;
      buf.payload.reserve(config_->buffer_bytes);
      it = w.out.emplace(key, std::move(buf)).first;
    }
  }
  OutBuffer& buf = it->second;
  BinaryWriter writer(buf.payload);
  encode_context(writer, buf.codec, vertex, rpid, slots);
  ++buf.count;
  detector_.note_sent(stage, group_of(stage), depth, 1);
  if (w.prof) ++w.prof->row(stage, depth).ctx_sent;
  if (buf.payload.size() >= config_->buffer_bytes) {
    OutBuffer full = std::move(buf);
    w.out.erase(it);
    flush_buffer(w, std::move(full));
  }
}

void MachineRuntime::flush_buffer(Worker& w, OutBuffer&& buf) {
  if (w.prof) {
    ProfileDepthRow& row = w.prof->row(buf.stage, buf.depth);
    ++row.msgs_sent;
    row.bytes_sent += buf.payload.size();
  }
  Message msg;
  msg.header.type = MessageType::kData;
  msg.header.src = id_;
  msg.header.stage = buf.stage;
  msg.header.depth = buf.depth;
  msg.header.count = buf.count;
  msg.header.credit = buf.credit;
  msg.header.credit_depth = buf.depth;
  msg.header.flags = buf.mirror ? kMessageFlagMirror : 0;
  msg.payload = std::move(buf.payload);
  net_->send(buf.dest, std::move(msg));
}

void MachineRuntime::flush_all(Worker& w) {
  if (w.out.empty()) return;
  std::vector<OutBuffer> pending;
  pending.reserve(w.out.size());
  for (auto& [key, buf] : w.out) {
    (void)key;
    pending.push_back(std::move(buf));
  }
  w.out.clear();
  for (auto& buf : pending) flush_buffer(w, std::move(buf));
}

std::optional<CreditClass> MachineRuntime::acquire_credit_blocking(
    Worker& w, MachineId dest, StageId stage, Depth depth) {
  std::optional<Stopwatch> starved;
  // Profiling: time from the first failed try_acquire to the eventual
  // grant (nested pickup work included — that is the paper's "worker
  // diverted by flow control" interval), attributed to the credit class
  // that resolved the stall. Never constructed with profiling off.
  std::optional<Stopwatch> stall;
  unsigned backoff = 0;
  while (true) {
    // Reliable-delivery tick: a worker blocked on credits is exactly the
    // victim of a lost DONE, and this is what retransmits it (or, for a
    // dead link, escalates to the machine-failure abort) instead of the
    // starvation wedging forever.
    net_->pump(id_);
    // Halt poll of the blocking path: an abort (possibly broadcast by the
    // very machine whose DONE we are waiting for) releases this worker —
    // kAbort delivery pokes the flow-control condvar, so a sleeping
    // waiter wakes promptly.
    if (halted()) return std::nullopt;
    if (const auto credit = flow_->try_acquire(dest, stage, depth)) {
      if (w.prof && stall) w.prof->note_stall(*credit, stall->elapsed_ms());
      return credit;
    }
    if (w.prof && !stall) stall.emplace();
    // Pickup rule (iii): when flow control prevents sending, process
    // incoming messages (bounded nesting).
    if (w.nesting < config_->max_pickup_nesting) {
      if (auto msg = net_->inbox(id_).try_pop_data()) {
        starved.reset();
        backoff = 0;
        process_message(w, std::move(*msg));
        continue;
      }
    }
    // Starved (no credit, nothing to process): ship every partial buffer
    // before waiting. Each open buffer holds a credit and undelivered
    // contexts; a cluster where all workers wait on each other's
    // unflushed partials is a livelock (nested processing keeps creating
    // new partials, so this must happen on every starved wait, not once).
    flush_all(w);
    // Backoff: a blocked worker with nothing to process must get off the
    // core — on the shared-core simulation a bare yield storm starves the
    // very workers whose progress would free the credit. The wait wakes
    // immediately when any DONE returns a credit.
    if (backoff < 4) {
      ++backoff;
      std::this_thread::yield();
    } else {
      ++backoff;
      flow_->wait_for_release(std::chrono::microseconds(500));
    }
    // A credit drought with no inbound work to divert to has lasted the
    // whole starvation window: §3.3 bounds buffer memory, so no credit
    // beyond the budget is ever minted — the query aborts cleanly instead.
    if (!starved) {
      starved.emplace();
    } else if (config_->flow_starvation_abort_ms != 0 &&
               starved->elapsed_ms() >
                   static_cast<double>(config_->flow_starvation_abort_ms)) {
      trip_abort(AbortReason::kCreditStarvation);
      return std::nullopt;
    }
  }
}

void MachineRuntime::process_message(Worker& w, Message msg) {
  ++w.nesting;
  const StageId stage = msg.header.stage;
  const int group = group_of(stage);
  // Drain the buffer into per-thread execution contexts first (§3.1's
  // "preallocated intermediate result storage"), then release it: the
  // DONE message returns the *buffer* credit (§3.3), it does not wait for
  // the traversals the contexts seed — holding the credit through the
  // whole downstream execution would serialize credit round-trips on
  // entire dependency chains.
  struct Decoded {
    VertexId vertex;
    std::uint64_t rpid;
    std::vector<Value> slots;
  };
  if (w.prof) {
    ProfileDepthRow& row = w.prof->row(stage, msg.header.depth);
    ++row.msgs_received;
    row.ctx_received += msg.header.count;
  }
  std::vector<Decoded> contexts(msg.header.count);
  BinaryReader reader(msg.payload);
  ContextCodecState codec;  // fresh per message, mirroring the sender
  for (auto& c : contexts) {
    decode_context(reader, codec, plan_->num_slots, c.vertex, c.rpid, c.slots);
  }
  // The contexts are pending local work until their runs complete: keep
  // them visible to the termination detector as active frames.
  for (std::uint32_t i = 0; i < msg.header.count; ++i) {
    note_frame_pushed(stage, group, msg.header.depth);
  }
  Message done;
  done.header.type = MessageType::kDone;
  done.header.src = id_;
  done.header.stage = stage;
  done.header.credit = msg.header.credit;
  done.header.credit_depth = msg.header.credit_depth;
  net_->send(msg.header.src, std::move(done));
  msg.payload.clear();
  msg.payload.shrink_to_fit();  // the "buffer" really is free now

  const bool mirror = (msg.header.flags & kMessageFlagMirror) != 0;
  for (std::size_t i = 0; i < contexts.size(); ++i) {
    if (halted()) {
      // Mid-batch halt: the DONE above already returned the buffer
      // credit, so the rest of the batch is simply discarded (balancing
      // the frames pushed above).
      for (std::size_t j = i; j < contexts.size(); ++j) {
        note_frame_popped(stage, group, msg.header.depth);
        ++w.counters.contexts_discarded;
      }
      break;
    }
    auto& c = contexts[i];
    if (mirror) {
      // §14 delegation: c.vertex is a hot GLOBAL id — expand this
      // machine's mirror bucket of its adjacency. Never run_context:
      // that would re-enter `stage`, double-counting the hot visit the
      // delegator already performed.
      run_mirror_expand(w, stage, c.vertex, msg.header.depth, c.rpid,
                        std::move(c.slots));
    } else {
      run_context(w, stage, c.vertex, msg.header.depth, c.rpid,
                  std::move(c.slots));
    }
    note_frame_popped(stage, group, msg.header.depth);
  }
  detector_.note_processed(stage, group, msg.header.depth, msg.header.count);
  --w.nesting;
}

// ------------------------------------------------------- worker main loop --

bool MachineRuntime::machine_idle() const {
  for (const auto& w : workers_) {
    if (w->busy.load(std::memory_order_seq_cst) || !w->bootstrap_done) {
      return false;
    }
  }
  return !net_->inbox(id_).has_data();
}

void MachineRuntime::worker_main(unsigned worker_index) {
  Worker& w = *workers_[worker_index];
  Inbox& inbox = net_->inbox(id_);
  const unsigned stride = static_cast<unsigned>(workers_.size());
  w.bootstrap_cursor = worker_index;
  if (plan_->single_start) {
    // Heuristic (i): a single-match start skips the scan entirely; only
    // the owner machine's worker 0 seeds the traversal.
    w.bootstrap_done = true;
    // owns() is the pure modulo-hash owner function — it claims
    // ownership of ids that are not in the graph at all (e.g. a WHERE
    // ID(v) = literal beyond the vertex count). Only seed vertices that
    // actually exist in the local partition.
    if (worker_index == 0 && plan_->start_vertex != kInvalidVertex &&
        part_->owns(plan_->start_vertex) &&
        part_->to_local(plan_->start_vertex).has_value()) {
      run_context(w, 0, plan_->start_vertex, 0, 0,
                  std::vector<Value>(plan_->num_slots));
    }
  }

  unsigned idle_iterations = 0;
  while (!done_.load(std::memory_order_acquire)) {
    // Reliable-delivery tick (no-op on a reliable fabric): advances the
    // retransmission / standalone-ack / abort-rebroadcast timers. Time
    // passes only while some worker is looping — a cluster fully buried
    // in traversals freezes the timers instead of spuriously escalating.
    net_->pump(id_);
    // Halt poll of the main loop (same cadence as the credit checks):
    // on abort or crash this worker stops consuming work immediately.
    if (halted()) break;
    // (i) Eagerly pick up received messages first.
    if (auto msg = inbox.try_pop_data()) {
      w.busy.store(true, std::memory_order_seq_cst);
      process_message(w, std::move(*msg));
      idle_iterations = 0;
      continue;
    }
    // (ii) Bootstrap the next local vertex.
    if (!w.bootstrap_done) {
      w.busy.store(true, std::memory_order_seq_cst);
      if (w.bootstrap_cursor < part_->num_local()) {
        const LocalVertexId lv =
            static_cast<LocalVertexId>(w.bootstrap_cursor);
        w.bootstrap_cursor += stride;
        // Tombstoned locals keep their slot until a merge but are not
        // part of this snapshot: the scan skips them.
        if (part_->alive(lv)) {
          run_context(w, 0, part_->to_global(lv), 0, 0,
                      std::vector<Value>(plan_->num_slots));
        }
      } else {
        w.bootstrap_done = true;
      }
      idle_iterations = 0;
      continue;
    }
    // (iii) Idle: flush partial buffers, drive the termination protocol.
    flush_all(w);
    w.busy.store(false, std::memory_order_seq_cst);
    ++idle_iterations;
    if (worker_index == 0) {
      // Quiescence snapshot BEFORE ingesting statuses: if the fabric
      // held no undelivered kData/kTermination at this instant, then
      // every status broadcast before it has been delivered — and is
      // therefore ingested by the pop loop below before we decide. That
      // ordering is what lets the two-wave stability argument survive
      // retransmission delay (DESIGN.md §13); deciding while a status
      // or data message is still parked in a retransmission ring could
      // commit to a stale cut.
      const bool quiescent = net_->quiescent();
      while (auto status = inbox.try_pop_term()) {
        detector_.on_status(*status);
      }
      const bool idle = machine_idle();
      detector_.set_idle(idle);
      // Re-broadcast periodically while idle: the repeated identical
      // status is the protocol's second confirmation wave. Forced
      // rounds additionally wait for fabric quiescence — flooding a
      // heavily-corrupting fabric with fresh statuses while earlier
      // ones are still being retransmitted would re-arm the backlog
      // faster than it drains and starve the decision gate above of a
      // quiescent instant (counter-changed broadcasts stay ungated).
      detector_.maybe_broadcast(
          *net_, idle && quiescent && idle_iterations % 4 == 0);
      static const bool term_debug =
          std::getenv("RPQD_TERM_DEBUG") != nullptr;
      if (term_debug && idle_iterations % 4096 == 0) {
        std::fprintf(stderr,
                     "[term m%u] idle=%d quiescent=%d undelivered=%llu "
                     "gt=%d %s\n",
                     static_cast<unsigned>(id_), (int)idle, (int)quiescent,
                     (unsigned long long)net_->undelivered_count(),
                     (int)detector_.globally_terminated(),
                     detector_.debug_string().c_str());
      }
      if (idle && quiescent && detector_.globally_terminated()) {
        done_.store(true, std::memory_order_release);
        break;
      }
    }
    // Idle backoff: keep the core available for busy workers, but stay
    // responsive enough for the termination protocol's rounds.
    if (idle_iterations < 8) {
      std::this_thread::yield();
    } else {
      const unsigned us = std::min<unsigned>(50u * (idle_iterations - 7), 500u);
      std::this_thread::sleep_for(std::chrono::microseconds(us));
      // Idle wall time is transport time: with every worker parked in
      // this sleep, the pump tick would otherwise advance only once per
      // (slack-stretched) sleep cycle, pushing a backed-off
      // retransmission many real seconds away and starving the lossy-
      // fabric drain. Burst-pump in proportion to the sleep just taken
      // so timers track wall pace while idle; busy phases still tick
      // once per loop iteration, preserving the timers-freeze-under-
      // load property.
      for (unsigned k = us / 60; k > 0; --k) net_->pump(id_);
    }
  }
  if (halted()) abort_drain(w);
}

// ------------------------------------------------------ cooperative abort --

void MachineRuntime::trip_abort(AbortReason reason) {
  // First requester wins: fixes the reason on the query's controller and
  // propagates it over the wire. Losers' kAbort broadcast is already on
  // its way from whoever won.
  if (abort_->request(reason)) {
    net_->broadcast_abort(reason);
  }
}

void MachineRuntime::note_frame_pushed(StageId stage, int group, Depth depth) {
  detector_.frame_pushed(stage, group, depth);
  const std::uint64_t live =
      live_frames_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::uint64_t peak = peak_live_frames_.load(std::memory_order_relaxed);
  while (live > peak && !peak_live_frames_.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  if (config_->max_live_contexts != 0 && live > config_->max_live_contexts) {
    trip_abort(AbortReason::kContextBudget);
  }
}

void MachineRuntime::note_frame_popped(StageId stage, int group, Depth depth) {
  detector_.frame_popped(stage, group, depth);
  live_frames_.fetch_sub(1, std::memory_order_relaxed);
}

void MachineRuntime::abort_drain(Worker& w) {
  // Return every open out-buffer's credit; its undelivered contexts are
  // discarded (never counted as sent, so the detector owes nothing).
  for (auto& [key, buf] : w.out) {
    (void)key;
    flow_->release(buf.dest, buf.stage, buf.depth, buf.credit);
    w.counters.contexts_discarded += buf.count;
  }
  w.out.clear();
  // Drain still-queued inbound batches, replying DONE for each so the
  // senders' credits come home (outstanding must reach 0 cluster-wide).
  // A crashed machine does nothing here — the fabric blackholes traffic
  // to it and synthesizes the completions on its behalf.
  if (!net_->inbox(id_).crashed()) {
    while (auto msg = net_->inbox(id_).try_pop_data()) {
      Message done;
      done.header.type = MessageType::kDone;
      done.header.src = id_;
      done.header.stage = msg->header.stage;
      done.header.credit = msg->header.credit;
      done.header.credit_depth = msg->header.credit_depth;
      net_->send(msg->header.src, std::move(done));
      w.counters.contexts_discarded += msg->header.count;
    }
  }
  w.busy.store(false, std::memory_order_seq_cst);
}

// ------------------------------------------------------------------ stats --

std::uint64_t MachineRuntime::row_count() const {
  std::uint64_t total = 0;
  for (const auto& w : workers_) total += w->rows;
  return total;
}

std::vector<std::vector<std::string>> MachineRuntime::take_rows() {
  std::vector<std::vector<std::string>> rows;
  for (const auto& w : workers_) {
    for (auto& row : w->result_rows) rows.push_back(std::move(row));
    w->result_rows.clear();
  }
  return rows;
}

std::uint64_t MachineRuntime::stage_visits(StageId stage) const {
  std::uint64_t total = 0;
  for (const auto& w : workers_) total += w->stage_visits[stage];
  return total;
}

void MachineRuntime::merge_profile(QueryProfile& out) const {
  if (!config_->profile) return;
  for (const auto& w : workers_) {
    if (w->prof) w->prof->merge_into(id_, out);
  }
}

MachineCounters MachineRuntime::counters() const {
  MachineCounters c = flow_->counters();
  for (const auto& w : workers_) {
    c += w->counters;
    for (const std::uint64_t v : w->stage_visits) c.contexts += v;
  }
  c.term_rounds = detector_.broadcast_rounds();
  c.peak_live_contexts = peak_live_frames_.load(std::memory_order_relaxed);
  c.peak_queued_bytes = net_->inbox(id_).peak_queued_bytes();
  return c;
}

RpqStageStats MachineRuntime::rpq_stats(unsigned group) const {
  RpqStageStats stats;
  for (const auto& w : workers_) {
    RpqStageStats partial;
    partial.matches_per_depth = w->matches[group];
    partial.eliminated_per_depth = w->eliminated[group];
    partial.duplicated_per_depth = w->duplicated[group];
    stats.merge(partial);
  }
  const ReachIndexStats idx = indexes_[group]->stats();
  stats.index_entries = idx.entries;
  stats.index_bytes = idx.dynamic_bytes;
  stats.index_hot_allocs = idx.hot_allocations;
  // Post-run duplicate audit (§3.5 invariant: one entry per (dst, rpid)).
  stats.index_duplicate_entries = indexes_[group]->duplicate_entries();
  stats.max_depth_observed = detector_.local_max_depth(group);
  return stats;
}

}  // namespace rpqd
