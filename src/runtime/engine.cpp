#include "runtime/engine.h"

#include <algorithm>
#include <optional>
#include <thread>

#include "common/stopwatch.h"
#include "pgql/parser.h"
#include "plan/planner.h"
#include "runtime/aggregate.h"
#include "runtime/machine.h"

namespace rpqd {

DistributedEngine::DistributedEngine(
    std::shared_ptr<const PartitionedGraph> graph, EngineConfig config)
    : graph_(std::move(graph)), config_(config) {
  snapshot_ = GraphSnapshot::initial(graph_);
}

std::shared_ptr<const GraphSnapshot> DistributedEngine::current_snapshot()
    const {
  std::lock_guard lock(snapshot_mutex_);
  return snapshot_;
}

void DistributedEngine::install_snapshot(
    std::shared_ptr<const GraphSnapshot> snapshot) {
  engine_check(snapshot != nullptr, "install_snapshot(nullptr)");
  std::lock_guard lock(snapshot_mutex_);
  snapshot_ = std::move(snapshot);
}

// ------------------------------------------------------------ RunControl --

bool RunControl::cancel(AbortReason reason) {
  std::lock_guard lock(mutex_);
  if (finished_) return false;
  if (ctrl_ == nullptr) {
    // Not attached yet (queued, or racing the dispatch): record the
    // reason; attach() applies it before any worker starts.
    if (pending_ == AbortReason::kNone) pending_ = reason;
    return true;
  }
  if (ctrl_->request(reason)) net_->broadcast_abort(reason);
  return true;
}

void RunControl::attach(AbortController* ctrl, Network* net) {
  std::lock_guard lock(mutex_);
  ctrl_ = ctrl;
  net_ = net;
  if (pending_ != AbortReason::kNone && ctrl_->request(pending_)) {
    net_->broadcast_abort(pending_);
  }
}

void RunControl::detach() {
  std::lock_guard lock(mutex_);
  ctrl_ = nullptr;
  net_ = nullptr;
  finished_ = true;
}

EngineConfig DistributedEngine::config_snapshot() const {
  std::lock_guard lock(config_mutex_);
  return config_;
}

void DistributedEngine::set_fault_plan(const FaultPlan& plan) {
  std::lock_guard lock(config_mutex_);
  config_.fault_plan = plan;
}

std::shared_ptr<const ExecPlan> DistributedEngine::compile(
    std::string_view pgql, bool* profile_out) const {
  const bool profile = pgql::strip_profile_prefix(pgql);
  if (profile_out != nullptr) *profile_out = profile;
  return std::make_shared<const ExecPlan>(
      plan_query(pgql::parse(pgql), graph_->catalog()));
}

PreparedQuery DistributedEngine::prepare(std::string_view pgql) {
  PreparedQuery prepared;
  prepared.engine_ = this;
  prepared.plan_ = compile(pgql, &prepared.profile_);
  return prepared;
}

std::string DistributedEngine::explain(std::string_view pgql) const {
  return compile(pgql, nullptr)->explain;
}

QueryResult PreparedQuery::run() {
  EngineConfig cfg = engine_->config_snapshot();
  cfg.profile = cfg.profile || profile_;
  RunControl rc;
  return engine_->run(*plan_, std::move(cfg), rc, engine_->current_snapshot());
}

QueryResult DistributedEngine::run(const ExecPlan& plan, EngineConfig cfg,
                                   RunControl& rc,
                                   std::shared_ptr<const GraphSnapshot> snap) {
  // Every machine traverses exactly the pinned epoch; concurrent
  // apply_update builds new snapshots without touching this one.
  engine_check(snap != nullptr, "run without a pinned snapshot");
  const unsigned num_machines = graph_->num_machines();
  const bool profile = cfg.profile;
  Stopwatch timer;

  // Crash-stop plans fire on exactly one run (FaultPlan::crash_run):
  // stamp this run's index; the counter restarts when a new schedule is
  // installed (Database::set_fault_schedule). The counter is shared by
  // every concurrent query on purpose — the simulated cluster loses a
  // machine once per schedule, so exactly one run of a concurrent wave
  // is the victim.
  cfg.fault_plan.run_index =
      fault_run_seq_.fetch_add(1, std::memory_order_relaxed);

  Network net(num_machines);
  // Sender-side fault injection (sequence stamping, duplication); each
  // MachineRuntime arms its own inbox's receiver side on construction.
  net.set_fault_plan(cfg.fault_plan);
  // Unique epoch per run: in-flight data of an aborted run can never be
  // picked up by a later query on this engine (its epoch won't match).
  net.set_epoch(epoch_seq_.fetch_add(1, std::memory_order_relaxed) + 1);
  AbortController abort;
  // Reliable delivery (DESIGN.md §13): armed when the plan can drop or
  // corrupt messages, or when cfg forces it for overhead measurement.
  // Must follow set_fault_plan (it reads the plan's lossiness) and
  // precede any traffic. The abort controller is the escalation target
  // for links whose retransmit budget runs dry.
  net.configure_reliability(ReliableConfig{
      cfg.reliable_transport, cfg.max_retransmits,
      cfg.retransmit_timeout_ticks});
  net.attach_abort(&abort);

  std::vector<std::unique_ptr<MachineRuntime>> machines;
  machines.reserve(num_machines);
  for (unsigned m = 0; m < num_machines; ++m) {
    machines.push_back(std::make_unique<MachineRuntime>(
        static_cast<MachineId>(m), &snap->view(m), &plan, &cfg, &net,
        &abort));
  }

  {
    std::lock_guard lock(runs_mutex_);
    live_runs_.push_back(&rc);
  }
  // Attach after the machines exist so a pre-dispatch cancel's pending
  // reason broadcasts into live inboxes and halts the workers before
  // they do real work.
  rc.attach(&abort, &net);

  {
    // Deadline / failure-detector monitor: only spawned when something
    // can actually fire (a deadline is set, or this run arms a crash).
    std::atomic<bool> run_done{false};
    std::thread monitor;
    if (cfg.query_deadline_ms > 0 || net.crash_armed()) {
      monitor = std::thread([&] {
        while (!run_done.load(std::memory_order_acquire)) {
          if (cfg.query_deadline_ms > 0 &&
              timer.elapsed_ms() >
                  static_cast<double>(cfg.query_deadline_ms) &&
              abort.request(AbortReason::kDeadline)) {
            net.broadcast_abort(AbortReason::kDeadline);
          }
          // Simulated failure detector: a machine whose crash tick fired
          // stops participating; the survivors must not hang on it.
          if (net.any_crashed() &&
              abort.request(AbortReason::kMachineFailure)) {
            net.broadcast_abort(AbortReason::kMachineFailure);
          }
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
      });
    }
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(num_machines) *
                    cfg.workers_per_machine);
    for (unsigned m = 0; m < num_machines; ++m) {
      for (unsigned w = 0; w < cfg.workers_per_machine; ++w) {
        threads.emplace_back(
            [&machines, m, w] { machines[m]->worker_main(w); });
      }
    }
    for (auto& t : threads) t.join();
    run_done.store(true, std::memory_order_release);
    if (monitor.joinable()) monitor.join();
  }

  rc.detach();
  {
    std::lock_guard lock(runs_mutex_);
    live_runs_.erase(std::find(live_runs_.begin(), live_runs_.end(), &rc));
  }

  const bool was_aborted = abort.armed();
  // Stranded data: its credit goes straight back to the sender's flow
  // control, and its contexts count as discarded by the machine it was
  // addressed to.
  std::vector<std::uint64_t> drained(num_machines, 0);
  const auto reclaim = [&](MachineId dest, const Message& msg) {
    machines[msg.header.src]->flow().release(dest, msg.header.stage,
                                             msg.header.credit_depth,
                                             msg.header.credit);
    drained[dest] += msg.header.count;
  };
  for (unsigned m = 0; m < num_machines; ++m) {
    if (was_aborted) {
      // Reclaim what the halted workers left in the fabric: limbo DONEs
      // deliver (credits) and stranded data is reclaimed. After this the
      // cluster-wide credit audit must read zero outstanding.
      for (const auto& msg : net.inbox(m).drain_aborted()) {
        reclaim(static_cast<MachineId>(m), msg);
      }
    } else {
      // Force-deliver DONEs still held back by fault injection, so the
      // credit-leak audit below sees the fabric fully drained.
      net.inbox(m).drain_faults();
    }
  }
  // Reliable-transport drain (both paths): resolve the unacked rings.
  // Undelivered DONEs release their credits inside drain_reliable (legal
  // even on clean runs — termination proves sent == processed, not
  // credits-home); undelivered data is only possible when the run
  // aborted, and is reclaimed exactly like drain_aborted leftovers.
  {
    const auto undelivered = net.drain_reliable();
    engine_check(was_aborted || undelivered.empty(),
                 "data message lost in flight survived clean termination");
    for (const auto& [dest, msg] : undelivered) reclaim(dest, msg);
  }

  QueryResult result;
  result.explain = plan.explain;
  result.columns = plan.column_names;
  result.aborted = was_aborted;
  result.abort_reason = abort.reason();
  result.truncated = abort.truncated();
  if (!result.aborted && result.truncated) {
    // Satellite of the lifecycle work: the depth safety valve used to
    // truncate silently; surface it through the reason channel.
    result.abort_reason = AbortReason::kDepthTruncated;
  }
  for (auto& machine : machines) {
    result.count += machine->row_count();
    if (!plan.count_star && !plan.has_aggregates) {
      auto rows = machine->take_rows();
      for (auto& row : rows) result.rows.push_back(std::move(row));
    }
  }
  if (plan.has_aggregates) {
    // Merge the per-machine partial aggregates and render the final rows
    // in SELECT order.
    std::vector<pgql::AggKind> kinds;
    for (const auto& spec : plan.aggregates) kinds.push_back(spec.kind);
    AggMap merged;
    for (auto& machine : machines) {
      merge_agg_maps(merged, machine->merged_agg_rows(), kinds,
                     graph_->catalog());
    }
    for (const auto& [key, row] : merged) {
      (void)key;
      std::vector<std::string> out_row;
      out_row.reserve(plan.select_layout.size());
      for (const auto& [is_agg, index] : plan.select_layout) {
        if (is_agg) {
          out_row.push_back(
              row.states[index].render(kinds[index], graph_->catalog()));
        } else {
          out_row.push_back(row.keys[index]);
        }
      }
      result.rows.push_back(std::move(out_row));
    }
    result.count = result.rows.size();
  }

  RuntimeStats& stats = result.stats;
  stats.elapsed_ms = timer.elapsed_ms();
  stats.snapshot_epoch = snap->epoch();
  stats.credit_partition_share = cfg.credit_partition_share;
  stats.output_rows = result.count;
  // The counter groups (common/counters.h): the fabric's totals, and
  // each machine's counters folded into the stats and, when profiling,
  // kept per machine in the profile — the same values, so the two agree.
  static_cast<NetCounters&>(stats) = net.counters();
  stats.machine_contexts.resize(num_machines, 0);
  result.profile.enabled = profile;
  if (profile) result.profile.machines.resize(num_machines);
  for (unsigned m = 0; m < num_machines; ++m) {
    MachineCounters mc = machines[m]->counters();
    mc.contexts_discarded += drained[m];
    stats += mc;
    stats.machine_contexts[m] = mc.contexts;
    if (profile) static_cast<MachineCounters&>(result.profile.machines[m]) = mc;
  }
  // §14 load imbalance: max/mean of frames entered per machine.
  if (stats.contexts > 0) {
    const std::uint64_t max_visits = *std::max_element(
        stats.machine_contexts.begin(), stats.machine_contexts.end());
    stats.load_imbalance = static_cast<double>(max_visits) * num_machines /
                           static_cast<double>(stats.contexts);
  }
  stats.rpq.resize(plan.num_rpq_indexes);
  for (unsigned g = 0; g < plan.num_rpq_indexes; ++g) {
    for (auto& machine : machines) {
      stats.rpq[g].merge(machine->rpq_stats(g));
    }
    // §3.4 consensus, read back after the run. Every machine freezes its
    // status table at the instant of its own termination decision, and an
    // early decider's table can be stale in zero-sum ways: a peer's
    // per-depth vector extended by balanced frame push/pop excursions
    // does not perturb the sent/processed sums the decision checks, so
    // the decision fires without the extension. The machine that decides
    // last has ingested every final broadcast (term delivery is a direct
    // queue push), so the achieved consensus is the max over deciders.
    std::optional<Depth> consensus;
    for (auto& machine : machines) {
      if (const auto d = machine->termination().consensus_max_depth(g)) {
        consensus = std::max(consensus.value_or(*d), *d);
      }
    }
    stats.rpq[g].consensus_max_depth = consensus;
  }
  // EXPLAIN ANALYZE breakdown.
  stats.stages.resize(plan.stages.size());
  for (StageId s = 0; s < plan.num_stages(); ++s) {
    StageBreakdown& row = stats.stages[s];
    row.note = plan.stages[s].note;
    for (auto& machine : machines) {
      row.visits += machine->stage_visits(s);
      const auto [sent, processed] = machine->termination().stage_totals(s);
      row.remote_out += sent;
      row.remote_in += processed;
    }
  }
  // Profile tree: merge every machine's worker slots post-join, then
  // compute the per-node totals bottom-up.
  if (profile) {
    QueryProfile& prof = result.profile;
    prof.stages.resize(plan.stages.size());
    for (StageId s = 0; s < plan.num_stages(); ++s) {
      prof.stages[s].note = plan.stages[s].note;
      prof.stages[s].machines.resize(num_machines);
    }
    for (auto& machine : machines) machine->merge_profile(prof);
    prof.finish();
  }
  return result;
}

unsigned DistributedEngine::cancel_all() {
  std::lock_guard lock(runs_mutex_);
  unsigned live = 0;
  for (RunControl* rc : live_runs_) {
    // First requester wins per run; if a budget/crash abort beat us the
    // broadcast is already in flight and the run still ends cleanly.
    if (rc->cancel(AbortReason::kUserCancel)) ++live;
  }
  return live;
}

}  // namespace rpqd
