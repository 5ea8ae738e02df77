// The distributed query engine: compiles PGQL text and runs the execution
// plan across the simulated cluster, one MachineRuntime per machine whose
// workers run on the engine's persistent thread pool.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/abort.h"
#include "common/config.h"
#include "graph/snapshot.h"
#include "plan/plan.h"
#include "runtime/profile.h"
#include "runtime/stats.h"
#include "runtime/worker_pool.h"

namespace rpqd {

class Network;

struct QueryResult {
  std::uint64_t count = 0;  // COUNT(*) value, or number of rows
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;  // rendered projections
  RuntimeStats stats;
  /// Per-(stage, machine, depth) tracing tree; `enabled` only when the
  /// query ran with `EngineConfig.profile` or a `PROFILE ` prefix.
  QueryProfile profile;
  std::string explain;
  /// Query lifecycle (common/abort.h): true when the run ended via the
  /// cooperative abort protocol instead of normal termination. Rows and
  /// count are then a partial prefix of the answer.
  bool aborted = false;
  AbortReason abort_reason = AbortReason::kNone;
  /// The run completed but the max_exploration_depth safety valve pruned
  /// exploration, so the result set may be incomplete. Reported through
  /// the same reason channel (kDepthTruncated) without aborting.
  bool truncated = false;
};

class DistributedEngine;

/// Cancellation handle for one run. Every run has one: the scheduler
/// creates it at submission, a blocking run keeps it on the caller's
/// stack. The engine attaches the run's abort controller + network while
/// the run is live and registers the handle for cancel_all. `cancel`
/// works at any point in the lifecycle: before dispatch it records a
/// pending reason that attach() applies (so a cancel racing the dispatch
/// is never lost), during the run it drives the normal cooperative abort
/// broadcast, and after completion it is a no-op. One run per handle.
class RunControl {
 public:
  /// Requests a cooperative abort of the associated run. Returns true
  /// when the run will observe the request (live, or not yet started);
  /// false when the run already finished.
  bool cancel(AbortReason reason);

 private:
  friend class DistributedEngine;
  void attach(AbortController* ctrl, Network* net);
  void detach();

  // Lock order: DistributedEngine::runs_mutex_ -> mutex_ (cancel_all
  // cancels registered handles under the registry lock); attach, detach
  // and cancel never take the registry lock.
  std::mutex mutex_;
  AbortController* ctrl_ = nullptr;
  Network* net_ = nullptr;
  AbortReason pending_ = AbortReason::kNone;  // cancel before attach
  bool finished_ = false;
};

/// A compiled query that can be executed repeatedly without
/// re-compilation. Valid as long as the owning engine lives. A `PROFILE `
/// prefix on the prepared text profiles every run().
class PreparedQuery {
 public:
  /// Runs against the current snapshot; blocks the caller until done.
  QueryResult run();
  const ExecPlan& plan() const { return *plan_; }
  const std::string& explain() const { return plan_->explain; }

 private:
  friend class DistributedEngine;
  DistributedEngine* engine_ = nullptr;
  std::shared_ptr<const ExecPlan> plan_;
  bool profile_ = false;
};

class DistributedEngine {
 public:
  /// The machine count is taken from the partitioned graph.
  DistributedEngine(std::shared_ptr<const PartitionedGraph> graph,
                    EngineConfig config);

  /// Parse + plan: the only place PGQL text becomes a plan. A
  /// case-insensitive `PROFILE ` prefix is stripped and reported through
  /// `*profile_out` (never mutating the engine config). Throws QueryError
  /// on malformed or unsupported text.
  std::shared_ptr<const ExecPlan> compile(std::string_view pgql,
                                          bool* profile_out) const;

  /// Compiles once; the returned query executes repeatedly.
  PreparedQuery prepare(std::string_view pgql);

  /// Compiles a query and returns its EXPLAIN text without running it.
  std::string explain(std::string_view pgql) const;

  /// The one execution entry. Runs `plan` under the per-query `cfg`
  /// (profiling, credit partition share, sliced budgets) against
  /// `snapshot`, the graph version the caller pinned at
  /// admission (DESIGN.md §12), so a cached entry admitted for that
  /// epoch and the execution it may lead describe the same graph. `rc`
  /// is registered for the run's duration, for targeted cancellation and
  /// for cancel_all. Each (machine, worker) pair, and the deadline /
  /// crash monitor when one can fire, runs as a job on the engine's
  /// worker pool; the caller blocks until every job has returned, then
  /// merges the per-machine results on its own thread.
  QueryResult run(const ExecPlan& plan, EngineConfig cfg, RunControl& rc,
                  std::shared_ptr<const GraphSnapshot> snapshot);

  /// The snapshot new queries pin at admission.
  std::shared_ptr<const GraphSnapshot> current_snapshot() const;
  /// Publishes a snapshot (Database::apply_update / merge). Must happen
  /// AFTER the result-cache notification for the same epoch, so a query
  /// can never pin an epoch the cache has not yet heard about.
  void install_snapshot(std::shared_ptr<const GraphSnapshot> snapshot);

  const EngineConfig& config() const { return config_; }
  /// Direct mutable access for the single-threaded configuration phase
  /// (tests and benches tune knobs between queries). NOT safe while
  /// queries are in flight — concurrent runs snapshot the config via
  /// config_snapshot(); use set_fault_plan for the one mutation that is
  /// legal mid-serving.
  EngineConfig& mutable_config() { return config_; }
  /// Coherent copy of the engine config, taken under the config lock so
  /// it can run concurrently with set_fault_plan. Every run starts from
  /// such a snapshot.
  EngineConfig config_snapshot() const;
  /// Installs a fault plan under the config lock (safe while queries are
  /// in flight; the new plan applies to runs dispatched afterwards).
  void set_fault_plan(const FaultPlan& plan);
  const PartitionedGraph& graph() const { return *graph_; }

  /// Requests a user cancel (AbortReason::kUserCancel) on every run
  /// currently registered on this engine, blocking and scheduled alike;
  /// returns how many were live. Each aborts cooperatively and returns a
  /// clean QueryResult.
  unsigned cancel_all();

  /// Restarts the per-engine run counter that crash-stop fault plans
  /// match against (FaultPlan::crash_run). Called when a new fault
  /// schedule is installed so "crash on run N" counts from that point.
  void reset_fault_run_index() {
    fault_run_seq_.store(0, std::memory_order_relaxed);
  }

  /// OS threads the worker pool has started: the high-water mark of
  /// concurrently running worker and monitor jobs across all runs.
  std::size_t worker_threads() const { return pool_.size(); }

 private:
  std::shared_ptr<const PartitionedGraph> graph_;
  // Current graph snapshot (RCU-style): swapped by install_snapshot,
  // pinned (shared_ptr copy) by every run at admission.
  mutable std::mutex snapshot_mutex_;
  std::shared_ptr<const GraphSnapshot> snapshot_;
  // Engine configuration. config_mutex_ covers the snapshot taken at the
  // start of every run and the mid-serving mutations (set_fault_plan);
  // mutable_config() writes are only legal while no query is in flight.
  mutable std::mutex config_mutex_;
  EngineConfig config_;
  // Live-run registry for cancel_all: every run registers its
  // RunControl for the run's duration. Lock order: runs_mutex_ ->
  // RunControl::mutex_; a run attaches/detaches its handle without
  // holding runs_mutex_.
  std::mutex runs_mutex_;
  std::vector<RunControl*> live_runs_;
  // Concurrency audit: these two counters are deliberately ENGINE-GLOBAL
  // across concurrent queries. fault_run_seq_ assigns each run a unique
  // index so a crash-stop plan kills exactly one run in a concurrent
  // wave (the simulated cluster loses a machine once, not once per
  // query); epoch_seq_ assigns each run a unique epoch so stale
  // in-flight data can never cross runs. Both are atomics — a fetch_add
  // per run, never aliasing per-query *measurements*.
  std::atomic<std::uint64_t> fault_run_seq_{0};
  std::atomic<std::uint32_t> epoch_seq_{0};
  // Persistent worker threads shared by every run (DESIGN.md §5). Last
  // member, so its threads are joined before anything else is torn down.
  WorkerPool pool_;
};

}  // namespace rpqd
