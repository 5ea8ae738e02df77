// Public entry point of the RPQd library.
//
//   #include "api/rpqd.h"
//
//   rpqd::GraphBuilder builder;
//   ... add vertices/edges ...
//   rpqd::Database db(std::move(builder).build(), /*num_machines=*/4);
//   auto result = db.query(
//       "SELECT COUNT(*) FROM MATCH (a:Person) -/:knows{1,3}/- (b:Person)");
//
// A Database owns a property graph, hash-partitioned across a simulated
// cluster of `num_machines` machines, and executes PGQL-subset queries
// with the distributed asynchronous RPQ runtime described in the paper
// (see README.md for the supported grammar). The graph is mutable
// through apply_update() with snapshot isolation (DESIGN.md §12): every
// query runs against the immutable snapshot it pinned at admission, so
// concurrent updates never tear a running traversal.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "common/config.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "graph/store.h"
#include "graph/update.h"
#include "runtime/engine.h"
#include "runtime/result_cache.h"
#include "runtime/scheduler.h"

namespace rpqd {

class Database {
 public:
  /// Partitions `graph` across `num_machines` simulated machines.
  explicit Database(Graph graph, unsigned num_machines = 4,
                    EngineConfig config = {});

  /// Parses, plans, and executes a PGQL query. A case-insensitive
  /// `PROFILE ` prefix enables the per-query tracing layer for that query
  /// only: the result's `profile` tree carries per-(stage, machine,
  /// depth) accounting (see runtime/profile.h).
  ///
  /// With `config().result_cache_max_bytes > 0` this path also runs
  /// through the single-flight result cache (DESIGN.md §11): a repeated
  /// ask of the same normalized text returns the cached result
  /// (stats.result_cache_hit), and concurrent identical asks coalesce
  /// behind one execution (stats.result_cache_coalesced).
  QueryResult query(std::string_view pgql);

  /// Parses and plans once; the returned PreparedQuery executes
  /// repeatedly without recompilation (valid while this Database lives).
  /// A `PROFILE ` prefix profiles every run, as in query(). Runs bypass
  /// the result cache.
  PreparedQuery prepare(std::string_view pgql) {
    return engine_->prepare(pgql);
  }

  /// Returns the EXPLAIN rendering of the plan without executing (a
  /// `PROFILE ` prefix is accepted and ignored).
  std::string explain(std::string_view pgql) const;

  // ---- concurrent serving (runtime/scheduler.h) -------------------------
  // The async path: many queries in flight over the one simulated
  // cluster, each isolated in its own run namespace with a per-query
  // credit partition of the machines' buffer memory. `query()` stays the
  // blocking single-query path; mixing both is safe.

  /// Submits a query for concurrent execution. Admission control either
  /// dispatches it (a slot is free), queues it (bounded wait queue), or
  /// rejects it with a typed reason readable off the ticket
  /// (`ticket.admission()` / `ticket.reject_reason()`: queue-full, a
  /// global budget it can never fit, shutdown). A rejected query never
  /// runs; its await() returns QueryResult{aborted,
  /// AbortReason::kAdmissionReject} immediately. Parse/plan errors throw
  /// QueryError, exactly like query(). A `PROFILE ` prefix works as in
  /// query(). The scheduler starts lazily on first submit with the
  /// config from configure_scheduler (or SchedulerConfig{} defaults).
  QueryTicket submit(std::string_view pgql);

  /// Blocks until the submitted query completes and returns its result
  /// (repeatable, any thread). Aborted/cancelled/rejected runs return a
  /// clean QueryResult with the reason stamped, like the blocking path.
  QueryResult await(const QueryTicket& ticket) {
    return scheduler().await(ticket);
  }

  /// Cooperatively cancels one submission: queued queries complete as
  /// aborted without running; in-flight queries go through the normal
  /// kAbort broadcast and drain to the quiescent state. False when the
  /// query already finished.
  bool cancel(const QueryTicket& ticket) {
    return scheduler().cancel(ticket, AbortReason::kUserCancel);
  }

  /// Installs the scheduler configuration (in-flight slots, wait-queue
  /// bound, global budgets, the `min_credit_share` fairness knob for the
  /// per-query credit partitions). Replaces any existing scheduler:
  /// queued submissions are cancelled and in-flight ones cooperatively
  /// aborted, so call it before submitting (or after awaiting) a wave.
  void configure_scheduler(const SchedulerConfig& config);

  /// Admission/throughput counters of the serving path (zeroes before
  /// the first submit).
  SchedulerStats scheduler_stats() const;

  /// In-flight slot count after global budgets capped max_inflight; 0
  /// means every submission is rejected up front.
  unsigned scheduler_slots() { return scheduler().slots(); }

  const Graph& graph() const { return partitioned_->global(); }
  const PartitionedGraph& partitioned() const { return *partitioned_; }
  unsigned num_machines() const { return partitioned_->num_machines(); }
  /// OS threads the engine's persistent worker pool has started: the
  /// high-water mark of worker and monitor jobs running at once.
  std::size_t worker_threads() const { return engine_->worker_threads(); }

  /// Engine configuration (mutable: flow-control sizes, index toggle...).
  EngineConfig& config() { return engine_->mutable_config(); }
  const EngineConfig& config() const { return engine_->config(); }

  /// Runs every subsequent query under the named fault schedule (see
  /// FaultPlan::schedule_names(); "none" disarms). The schedule plus the
  /// seed fully determine the fault decisions — the replay key printed
  /// by the differential harness. Throws QueryError on an unknown name.
  /// Also restarts the run counter crash-stop schedules match against,
  /// so "crash on run crash_run" counts from this call.
  void set_fault_schedule(std::string_view name, std::uint64_t seed);

  /// Requests a cooperative cancel (AbortReason::kUserCancel) of every
  /// query currently executing on this database — blocking and scheduled
  /// alike — plus every submission still waiting in the scheduler's
  /// admission queue; each returns a clean QueryResult{aborted} and the
  /// database stays reusable. Returns how many were live or queued.
  /// Safe from any thread.
  unsigned cancel_all();

  /// Bounded exponential backoff with deterministic jitter for
  /// run_with_retry. Attempt n (0-based) sleeps
  /// min(backoff_base_ms * 2^n, backoff_max_ms) plus up to 50% seeded
  /// jitter before re-running.
  struct RetryPolicy {
    unsigned max_attempts = 4;     // total tries, including the first
    double backoff_base_ms = 0.5;
    double backoff_max_ms = 50.0;
    std::uint64_t jitter_seed = 1;
  };

  /// Executes `pgql`, transparently re-running it when the result is a
  /// retryable abort (machine failure or a resource-budget trip — see
  /// abort_reason_retryable). Non-retryable aborts (user cancel,
  /// deadline) and clean results return immediately. The returned
  /// result's stats.retries counts the re-runs performed. Bypasses the
  /// result cache (each attempt must actually run).
  QueryResult run_with_retry(std::string_view pgql,
                             const RetryPolicy& policy);
  QueryResult run_with_retry(std::string_view pgql) {
    return run_with_retry(pgql, RetryPolicy{});
  }

  // ---- online updates (DESIGN.md §12) -----------------------------------
  // Partitioned delta segments over the flat CSR base, one monotonic
  // graph epoch per applied batch. Queries admitted before a batch keep
  // their pinned snapshot; queries admitted after see the new one. The
  // update path keeps the result cache coherent BEFORE publishing the new
  // snapshot: entries whose plan footprint intersects the dirtied labels
  // are evicted (everything else survives).

  /// Applies one update batch atomically and publishes epoch + 1.
  /// Throws QueryError when the batch references unknown vertices,
  /// labels, or same-batch-deleted inserts; the graph is unchanged then.
  /// Safe concurrently with queries (blocking and scheduled) and with
  /// other apply_update calls (serialized internally). May trigger a
  /// delta merge per config().delta_merge_entries.
  UpdateResult apply_update(const UpdateBatch& batch);

  /// Folds the accumulated delta segments into a fresh flat base at the
  /// current epoch. False when there were no deltas to fold. Runs at a
  /// quiescent point automatically: in-flight queries keep their pinned
  /// snapshot alive until they drain.
  bool merge_deltas();

  /// The current graph epoch (0 = seed, +1 per applied batch).
  std::uint64_t graph_epoch() const;

  /// Update/merge counters (graph/store.h).
  GraphStoreStats update_stats() const;

  /// Replays the seed graph plus the first `epoch` batches into a
  /// standalone flat Graph — the differential harness evaluates the
  /// reference oracle on the exact snapshot a query pinned.
  std::shared_ptr<const Graph> materialize_snapshot(std::uint64_t epoch) const;

  // ---- skew-aware load balancing (DESIGN.md §14) ------------------------
  // Hot-vertex replication and profile-driven repartitioning. Both act
  // between queries at the store level; in-flight queries keep their
  // pinned snapshot. Neither changes any query result — replication
  // only changes which machine enumerates a hot adjacency (armed by a
  // non-empty hot set), and a repartition only changes vertex
  // placement. The offline proposal side lives in graph/repartition.h.

  /// Installs (empty vector: drops) the hot-vertex mirror set: every
  /// machine gets a read-only bucketed copy of the hot vertices'
  /// adjacency, kept coherent through apply_update/merge/repartition.
  /// Queries on more than one machine delegate hot fan-out to it.
  void set_hot_vertices(std::vector<VertexId> hot);

  /// The currently mirrored hot set (empty = replication off).
  std::vector<VertexId> hot_vertices() const;

  /// Adopts an explicit vertex→machine map (e.g. a RepartitionPlan's
  /// assignment): rebuilds the partitions under the map at the current
  /// epoch — visible data unchanged, local vertex ids remapped (the
  /// merge_deltas contract). Vertices beyond the vector keep hash
  /// placement.
  void repartition(std::vector<MachineId> assignment);

  // ---- result cache (DESIGN.md §11) -------------------------------------
  // Enabled by config().result_cache_max_bytes (full results keyed by
  // normalized PGQL text). Default off.

  /// Clears the result cache (in-flight executions complete normally —
  /// their pinned snapshots are immutable, so their results stay valid).
  void invalidate_caches();

  /// Result-cache counters (zeroes before the cache exists).
  ResultCacheStats result_cache_stats() const;

 private:
  /// Lazily builds (or re-budgets) the result cache; nullptr while the
  /// knob is 0.
  ResultCache* result_cache();
  /// Lazily constructs the scheduler (default SchedulerConfig) on first
  /// use; guarded so concurrent first submits race safely.
  QueryScheduler& scheduler();

  /// Holds update_mutex_; folds deltas and publishes the result.
  bool merge_locked();

  std::shared_ptr<const PartitionedGraph> partitioned_;
  std::unique_ptr<DistributedEngine> engine_;
  /// Online updates: batch log + snapshot publication (DESIGN.md §12).
  /// update_mutex_ serializes apply/merge so the cache-coherence
  /// notifications of different epochs can never interleave.
  std::unique_ptr<GraphStore> store_;
  // Lock order: update_mutex_ -> scheduler_mutex_ -> the engine's
  // snapshot lock (apply_update installs the snapshot, and result_cache()
  // reads it, under scheduler_mutex_). Never take scheduler_mutex_ while
  // holding the snapshot lock, nor update_mutex_ under scheduler_mutex_.
  mutable std::mutex update_mutex_;
  mutable std::mutex scheduler_mutex_;
  // Declared before scheduler_: the scheduler borrows the cache pointer,
  // so it must be destroyed first (reverse declaration order).
  std::unique_ptr<ResultCache> result_cache_;
  std::unique_ptr<QueryScheduler> scheduler_;
};

}  // namespace rpqd
