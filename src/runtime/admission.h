// The one admission routine of the read path (DESIGN.md §10, §11):
// compile the text, pin the graph snapshot, probe the result cache.
// Database::query and QueryScheduler::submit both start here; what they
// do with the outcome (run inline, or queue for a dispatcher) differs,
// the coherence handshake does not.
#pragma once

#include <exception>
#include <memory>
#include <string>
#include <string_view>

#include "graph/update.h"
#include "runtime/engine.h"
#include "runtime/result_cache.h"

namespace rpqd {

/// One admitted ask. Without a result cache every admission is an
/// uncached leader: `flight` stays null and complete() does nothing.
struct Admission {
  std::shared_ptr<const ExecPlan> plan;
  /// The text carried a `PROFILE ` prefix: run this ask profiled.
  bool profile = false;
  /// Pinned before the cache probe; the run must traverse exactly this
  /// graph version (DESIGN.md §12).
  std::shared_ptr<const GraphSnapshot> snapshot;
  ResultCache* cache = nullptr;
  ResultCache::Role role = ResultCache::Role::kLeader;
  QueryResult hit;                              // kHit only
  std::shared_ptr<ResultCache::Flight> flight;  // kFollower, cached kLeader
  // Leader only: the cache key and the plan's label footprint for
  // update-driven eviction of the entry this ask may admit.
  std::string cache_text;
  bool cache_profile = false;
  ResultCacheScope scope;

  /// Ends a kLeader or kBypass ask with `result`, whether it ran, was
  /// rejected or was cancelled: stamps the bypass flag, and a leader
  /// publishes to its followers and admits a clean result. Every path
  /// that ends a leader reaches this or complete_error() exactly once,
  /// so a flight is never abandoned.
  void complete(QueryResult& result);
  /// Same, for an execution that threw: followers rethrow `error`.
  void complete_error(std::exception_ptr error);
};

/// Compiles `pgql` (QueryError propagates before the cache is touched),
/// pins the engine's current snapshot and, when `cache` is non-null,
/// probes it under the pinned epoch. A kBypass probe (an update published
/// between pin and probe) re-pins once; a second bypass runs uncached on
/// the second pin rather than loop. With `cache` null nothing is
/// normalized: the text is lexed once, by compile.
Admission admit(const DistributedEngine& engine, ResultCache* cache,
                std::string_view pgql);

}  // namespace rpqd
