#include "api/rpqd.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/fault.h"
#include "runtime/admission.h"

namespace rpqd {

Database::Database(Graph graph, unsigned num_machines, EngineConfig config) {
  auto shared = std::make_shared<const Graph>(std::move(graph));
  partitioned_ = std::make_shared<const PartitionedGraph>(std::move(shared),
                                                          num_machines);
  engine_ = std::make_unique<DistributedEngine>(partitioned_, config);
  store_ = std::make_unique<GraphStore>(partitioned_);
}

QueryResult Database::query(std::string_view pgql) {
  // The same admission as submit(); a leader or an uncached ask then
  // runs inline on the caller's thread, and concurrent identical asks
  // block on its flight.
  Admission adm = admit(*engine_, result_cache(), pgql);
  if (adm.role == ResultCache::Role::kHit) {
    adm.hit.stats.result_cache_hit = true;
    return std::move(adm.hit);
  }
  if (adm.role == ResultCache::Role::kFollower) {
    QueryResult result = ResultCache::await(adm.flight);
    result.stats.result_cache_coalesced = true;
    return result;
  }
  EngineConfig cfg = engine_->config_snapshot();
  cfg.profile = cfg.profile || adm.profile;
  RunControl rc;
  try {
    QueryResult result =
        engine_->run(*adm.plan, std::move(cfg), rc, adm.snapshot);
    adm.complete(result);
    return result;
  } catch (...) {
    // Followers of a throwing leader rethrow the same error.
    adm.complete_error(std::current_exception());
    throw;
  }
}

ResultCache* Database::result_cache() {
  const EngineConfig cfg = engine_->config_snapshot();
  if (cfg.result_cache_max_bytes == 0) return nullptr;
  std::lock_guard lock(scheduler_mutex_);
  if (result_cache_ == nullptr) {
    // Born coherent at the INSTALLED snapshot's epoch, read under
    // scheduler_mutex_: apply_update notifies the cache and installs the
    // new snapshot in one scheduler_mutex_ section, so this cache either
    // predates that section (born at the old epoch, then notified) or
    // follows it (born at the new epoch). The store's epoch would be
    // wrong here: apply_update advances it before taking the lock, and a
    // cache born at it would then see that same epoch's notification
    // arrive out of order.
    result_cache_ = std::make_unique<ResultCache>(
        cfg.result_cache_max_bytes, cfg.result_cache_admit_max_bytes,
        engine_->current_snapshot()->epoch());
  } else {
    // The knobs may have moved between queries; re-apply (evicts eagerly).
    result_cache_->set_budget(cfg.result_cache_max_bytes,
                              cfg.result_cache_admit_max_bytes);
  }
  return result_cache_.get();
}

UpdateResult Database::apply_update(const UpdateBatch& batch) {
  std::lock_guard ulock(update_mutex_);
  UpdateResult receipt = store_->apply(batch);
  // Coherence ordering (DESIGN.md §12) — result cache first, snapshot
  // last. Until install_snapshot, new queries still pin the OLD
  // snapshot: their probes carry the old epoch and at worst take the
  // kBypass path. The reverse order would let a query pin the new epoch
  // before the cache heard of it — exactly the
  // mutation-without-invalidation hole acquire() aborts on. Both steps
  // share one scheduler_mutex_ section so a lazily created cache
  // (result_cache()) is born on one side of the pair, never between.
  {
    std::lock_guard lock(scheduler_mutex_);
    if (result_cache_ != nullptr) {
      result_cache_->on_graph_update(receipt.epoch, receipt.dirty);
    }
    engine_->install_snapshot(store_->snapshot());
  }
  const EngineConfig cfg = engine_->config_snapshot();
  if (cfg.delta_merge_entries > 0 &&
      store_->stats().delta_entries >= cfg.delta_merge_entries) {
    merge_locked();
  }
  return receipt;
}

bool Database::merge_deltas() {
  std::lock_guard ulock(update_mutex_);
  return merge_locked();
}

bool Database::merge_locked() {
  if (!store_->merge()) return false;
  // The result cache is untouched: a merge changes representation, never
  // visible data, and keeps the epoch.
  engine_->install_snapshot(store_->snapshot());
  return true;
}

void Database::set_hot_vertices(std::vector<VertexId> hot) {
  std::lock_guard ulock(update_mutex_);
  store_->set_hot_set(std::move(hot));
  // Mirrors are additive metadata on the same epoch: the visible graph is
  // unchanged, so the result cache stays coherent — publish and done.
  engine_->install_snapshot(store_->snapshot());
}

std::vector<VertexId> Database::hot_vertices() const {
  return store_->hot_set();
}

void Database::repartition(std::vector<MachineId> assignment) {
  std::lock_guard ulock(update_mutex_);
  store_->repartition(std::move(assignment));
  // Same contract as merge_locked(): the result cache survives
  // (placement changes no visible data and the epoch is kept).
  engine_->install_snapshot(store_->snapshot());
}

std::uint64_t Database::graph_epoch() const { return store_->epoch(); }

GraphStoreStats Database::update_stats() const { return store_->stats(); }

std::shared_ptr<const Graph> Database::materialize_snapshot(
    std::uint64_t epoch) const {
  return store_->materialize(epoch);
}

void Database::invalidate_caches() {
  std::lock_guard lock(scheduler_mutex_);
  if (result_cache_ != nullptr) result_cache_->invalidate();
}

ResultCacheStats Database::result_cache_stats() const {
  std::lock_guard lock(scheduler_mutex_);
  return result_cache_ != nullptr ? result_cache_->stats()
                                  : ResultCacheStats{};
}

std::string Database::explain(std::string_view pgql) const {
  return engine_->explain(pgql);
}

void Database::set_fault_schedule(std::string_view name, std::uint64_t seed) {
  // Config-lock protected: legal while scheduled queries are in flight
  // (the new schedule applies to runs dispatched afterwards).
  engine_->set_fault_plan(FaultPlan::named(name, seed));
  engine_->reset_fault_run_index();
}

QueryScheduler& Database::scheduler() {
  // Resolve the cache first: result_cache() takes scheduler_mutex_ too.
  ResultCache* cache = result_cache();
  std::lock_guard lock(scheduler_mutex_);
  if (scheduler_ == nullptr) {
    scheduler_ = std::make_unique<QueryScheduler>(engine_.get(),
                                                  SchedulerConfig{}, cache);
  }
  return *scheduler_;
}

QueryTicket Database::submit(std::string_view pgql) {
  return scheduler().submit(pgql);
}

void Database::configure_scheduler(const SchedulerConfig& config) {
  ResultCache* cache = result_cache();
  std::lock_guard lock(scheduler_mutex_);
  scheduler_.reset();  // drains/cancels the previous serving generation
  scheduler_ = std::make_unique<QueryScheduler>(engine_.get(), config, cache);
}

SchedulerStats Database::scheduler_stats() const {
  std::lock_guard lock(scheduler_mutex_);
  return scheduler_ != nullptr ? scheduler_->stats() : SchedulerStats{};
}

unsigned Database::cancel_all() {
  unsigned cancelled = 0;
  {
    std::lock_guard lock(scheduler_mutex_);
    if (scheduler_ != nullptr) {
      cancelled += scheduler_->cancel_all_queued(AbortReason::kUserCancel);
    }
  }
  return cancelled + engine_->cancel_all();
}

QueryResult Database::run_with_retry(std::string_view pgql,
                                     const RetryPolicy& policy) {
  const unsigned attempts = std::max(1u, policy.max_attempts);
  PreparedQuery prepared = engine_->prepare(pgql);
  for (unsigned attempt = 0;; ++attempt) {
    QueryResult result = prepared.run();
    result.stats.retries = attempt;
    if (!result.aborted || !abort_reason_retryable(result.abort_reason) ||
        attempt + 1 >= attempts) {
      return result;
    }
    // Bounded exponential backoff with deterministic jitter (seeded, so
    // the fuzz harness replays identically).
    double wait_ms = policy.backoff_base_ms;
    for (unsigned i = 0; i < attempt && wait_ms < policy.backoff_max_ms; ++i) {
      wait_ms *= 2.0;
    }
    wait_ms = std::min(wait_ms, policy.backoff_max_ms);
    const std::uint64_t h = fault_hash(policy.jitter_seed, attempt, 11);
    wait_ms += wait_ms * 0.5 * (static_cast<double>(h % 1024) / 1024.0);
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(wait_ms));
  }
}

}  // namespace rpqd
