// Concurrent update/query stress (DESIGN.md §12): threads race
// apply_update against blocking queries, scheduled submissions, cache
// probes, stats polls, and delta merges on one Database. Run under TSan
// (tier2-updates-tsan preset) this is the data-race gate for the online
// update path: RCU snapshot publication and the epoch handshake between
// the update path and the result cache (including its lazy creation)
// get exercised under genuine contention.
//
// Correctness bar inside the race: every completed query's count must
// equal the reference oracle on the snapshot it pinned
// (materialize_snapshot of its stats.snapshot_epoch) — not "some nearby
// epoch". The coherence engine_checks stay armed throughout: a mutation
// that reached a query before the cache would abort the whole test.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "api/rpqd.h"
#include "baseline/reference.h"
#include "common/rng.h"
#include "ldbc/synthetic.h"

namespace rpqd {
namespace {

int env_int(const char* name, int fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atoi(value) : fallback;
}

/// The stress mutates only `extra` edges between pre-seeded vertices, so
/// every batch is valid by construction without reading the graph:
/// inserts add (src, dst) cycle chords, deletes remove edges this thread
/// inserted earlier (recorded locally, applied at most once).
void run_update_stress(std::size_t n_vertices, int n_query_threads,
                       int queries_per_thread, int n_batches,
                       std::uint64_t seed) {
  EngineConfig ec;
  ec.workers_per_machine = 2;
  ec.buffers_per_machine = 48;
  ec.buffer_bytes = 256;
  ec.result_cache_max_bytes = 1 << 20;
  Database db(synthetic::make_cycle(n_vertices), 3, ec);
  const LabelId next = *db.graph().catalog().find_edge_label("next");

  const std::vector<std::string> queries = {
      "SELECT COUNT(*) FROM MATCH (a) -/:next+/-> (b)",
      "SELECT COUNT(*) FROM MATCH (a) -/:next{1,3}/-> (b)",
      "SELECT COUNT(*) FROM MATCH (a) -[:next]-> (b)",
      "SELECT COUNT(*) FROM MATCH (a)",
  };

  std::atomic<bool> failed{false};
  const auto check = [&](const QueryResult& result, const std::string& q,
                         const char* path) {
    const std::uint64_t expected =
        baseline::reference_evaluate(
            q, *db.materialize_snapshot(result.stats.snapshot_epoch))
            .count;
    if (result.count != expected) {
      failed.store(true);
      ADD_FAILURE() << path << " count " << result.count << " != oracle "
                    << expected << " at epoch "
                    << result.stats.snapshot_epoch << " for " << q;
    }
  };

  std::thread updater([&] {
    Rng rng(seed);
    std::vector<EdgeInsert> mine;  // edges this thread added, deletable
    for (int i = 0; i < n_batches && !failed.load(); ++i) {
      UpdateBatch batch;
      if (!mine.empty() && rng.next_below(3) == 0) {
        const std::size_t pick = rng.next_below(mine.size());
        batch.edge_deletes.push_back(
            {mine[pick].src, mine[pick].dst, mine[pick].elabel});
        mine.erase(mine.begin() + static_cast<std::ptrdiff_t>(pick));
      } else {
        const VertexId src =
            static_cast<VertexId>(rng.next_below(n_vertices));
        const VertexId dst =
            static_cast<VertexId>(rng.next_below(n_vertices));
        batch.edge_inserts.push_back({src, dst, next});
        // Record each (src, dst, elabel) key at most once: one delete
        // removes EVERY parallel, so a duplicate record would later
        // issue a delete that matches nothing (a validation error).
        const bool dup = std::any_of(
            mine.begin(), mine.end(), [&](const EdgeInsert& e) {
              return e.src == src && e.dst == dst;
            });
        if (!dup) mine.push_back(batch.edge_inserts.back());
      }
      const UpdateResult receipt = db.apply_update(batch);
      EXPECT_GT(receipt.epoch, 0u);
      if (i % 7 == 6) db.merge_deltas();
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> workers;
  for (int t = 0; t < n_query_threads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(seed ^ (0x9e37u * static_cast<std::uint64_t>(t + 1)));
      for (int i = 0; i < queries_per_thread && !failed.load(); ++i) {
        const std::string& q = queries[rng.next_below(queries.size())];
        if (t % 2 == 0) {
          check(db.query(q), q, "blocking");
        } else {
          const QueryResult r = db.await(db.submit(q));
          if (!r.aborted) check(r, q, "scheduled");
        }
      }
    });
  }

  std::thread poller([&] {
    while (!failed.load()) {
      const ResultCacheStats rc = db.result_cache_stats();
      const GraphStoreStats gs = db.update_stats();
      // Monotone sanity under the race; torn reads would trip TSan.
      EXPECT_LE(rc.coherent_epoch, db.graph_epoch());
      EXPECT_LE(gs.merges, gs.batches_applied + 1);
      if (gs.epoch >= static_cast<std::uint64_t>(n_batches)) break;
      std::this_thread::yield();
    }
  });

  updater.join();
  for (auto& w : workers) w.join();
  poller.join();

  // Settled state: one more coherent round-trip end to end.
  const QueryResult last = db.query(queries[0]);
  check(last, queries[0], "settled");
  EXPECT_EQ(db.result_cache_stats().coherent_epoch, db.graph_epoch());
}

TEST(UpdateStress, RacingUpdatesQueriesAndProbes) {
  run_update_stress(10, env_int("RPQD_UPDATE_STRESS_THREADS", 4),
                    env_int("RPQD_UPDATE_STRESS_QUERIES", 12), 30, 171);
}

// Acceptance-scale stress (ctest -L tier2-updates; the TSan configure
// of this test is the data-race gate for the update path).
TEST(UpdateStress, Tier2UpdateStress) {
  if (std::getenv("RPQD_TIER2_UPDATES") == nullptr) {
    GTEST_SKIP() << "set RPQD_TIER2_UPDATES=1 (ctest -L tier2-updates)";
  }
  for (std::uint64_t seed : {311u, 331u, 353u}) {
    run_update_stress(12, 6, 40, 120, seed);
  }
}

}  // namespace
}  // namespace rpqd
