// Concurrent result-cache stress (DESIGN.md §11): K in-flight identical
// + distinct queries over one database with the result cache armed.
// Coalesced submissions must return results identical to the leader's
// (== the oracle), cached hits must serve without dispatching, and the
// per-query stats isolation invariants of the serving path must hold
// while the cache is concurrently invalidated.
//
// The gtest-discovered tests are the tier-1 smoke; the acceptance-scale
// stress runs under the `tier2-cache` + `tier2-concurrent` ctest labels
// (RPQD_TIER2_CACHE=1) — TSan green here is the data-race gate for the
// cache layer.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "api/rpqd.h"
#include "baseline/reference.h"
#include "ldbc/synthetic.h"

namespace rpqd {
namespace {

struct StressConfig {
  unsigned waves = 3;
  unsigned copies = 4;     // identical submissions per query per wave
  unsigned machines = 3;
  unsigned inflight = 4;
  bool invalidator = false;  // concurrent invalidate_caches() thread
  std::uint64_t graph_seed = 33;
};

void run_cache_stress(const StressConfig& sc) {
  synthetic::RandomGraphConfig gcfg;
  gcfg.num_vertices = 24;
  gcfg.num_edges = 60;
  gcfg.num_vertex_labels = 2;
  gcfg.num_edge_labels = 2;
  gcfg.allow_self_loops = true;
  gcfg.seed = sc.graph_seed;
  const Graph oracle_graph = synthetic::make_random(gcfg);

  const std::vector<std::string> queries = {
      "SELECT COUNT(*) FROM MATCH (a) -/:e0*/-> (b)",
      "SELECT COUNT(*) FROM MATCH (a) -/:e1+/-> (b)",
      "SELECT COUNT(*) FROM MATCH (a) -/:e0|e1{1,3}/-> (b)",
      "SELECT COUNT(*) FROM MATCH (a:L0) -/:e0{0,2}/-> (b)",
  };
  std::vector<std::uint64_t> expected;
  for (const auto& q : queries) {
    expected.push_back(baseline::reference_evaluate(q, oracle_graph).count);
  }

  EngineConfig ec;
  ec.workers_per_machine = 2;
  ec.buffers_per_machine = 48;
  ec.buffer_bytes = 256;
  ec.result_cache_max_bytes = 1 << 20;
  Database db(synthetic::make_random(gcfg), sc.machines, ec);
  SchedulerConfig cfg;
  cfg.max_inflight = sc.inflight;
  cfg.max_queued = 1024;
  db.configure_scheduler(cfg);

  std::atomic<bool> stop{false};
  std::thread chaos;
  if (sc.invalidator) {
    // Concurrent invalidations: correctness must be insensitive to them
    // (an invalidation only empties the cache; live flights complete).
    chaos = std::thread([&] {
      while (!stop.load()) {
        db.invalidate_caches();
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
  }

  for (unsigned wave = 0; wave < sc.waves; ++wave) {
    std::vector<QueryTicket> tickets;
    std::vector<std::size_t> which;
    for (std::size_t q = 0; q < queries.size(); ++q) {
      for (unsigned c = 0; c < sc.copies; ++c) {
        tickets.push_back(db.submit(queries[q]));
        which.push_back(q);
      }
    }
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      const QueryResult result = db.await(tickets[i]);
      const std::string repro = "wave=" + std::to_string(wave) + " slot=" +
                                std::to_string(i) + " query=" +
                                queries[which[i]];
      EXPECT_FALSE(result.aborted) << repro;
      EXPECT_EQ(result.count, expected[which[i]]) << repro;
      // Per-query isolation: executed results drained clean; hits and
      // coalesced results replay the leader's clean stats.
      EXPECT_EQ(result.stats.flow_outstanding, 0u) << repro;
      for (const auto& r : result.stats.rpq) {
        EXPECT_EQ(r.index_duplicate_entries, 0u) << repro;
      }
    }
  }
  stop.store(true);
  if (chaos.joinable()) chaos.join();

  const SchedulerStats ss = db.scheduler_stats();
  EXPECT_EQ(ss.submitted,
            static_cast<std::uint64_t>(sc.waves) * sc.copies * queries.size());
  // Every submission was admitted, queued, coalesced, or served cached.
  EXPECT_EQ(ss.admitted + ss.queued + ss.cache_hits + ss.cache_coalesced,
            ss.submitted);
  if (!sc.invalidator) {
    // With a stable cache, the repeat waves are all hits or coalesced.
    EXPECT_GT(ss.cache_hits + ss.cache_coalesced, 0u);
  }
}

TEST(CacheStress, ConcurrentIdenticalAndDistinctQueriesAgree) {
  StressConfig sc;
  run_cache_stress(sc);
}

TEST(CacheStress, ConcurrentInvalidationAndPoisonKeepResultsExact) {
  StressConfig sc;
  sc.waves = 2;
  sc.invalidator = true;
  run_cache_stress(sc);
}

// Blocking-path single-flight: many threads ask the same query via
// Database::query concurrently; exactly correct results for all, and
// followers coalesce behind one leader execution.
TEST(CacheStress, BlockingPathCoalescesConcurrentIdenticalAsks) {
  EngineConfig ec;
  ec.workers_per_machine = 2;
  ec.buffers_per_machine = 48;
  ec.buffer_bytes = 256;
  ec.result_cache_max_bytes = 1 << 20;
  Database db(synthetic::make_chain(32), 2, ec);
  const std::uint64_t expected = db.query(
      "SELECT COUNT(*) FROM MATCH (a) -/:next+/-> (b)").count;
  db.invalidate_caches();

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<std::uint64_t> counts(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      counts[static_cast<std::size_t>(t)] = db.query(
          "SELECT COUNT(*) FROM MATCH (a) -/:next+/-> (b)").count;
    });
  }
  for (auto& th : threads) th.join();
  for (const auto c : counts) EXPECT_EQ(c, expected);
  const ResultCacheStats rs = db.result_cache_stats();
  // Two cold windows -> two leader executions (misses); every other ask
  // was a hit or coalesced behind the live flight.
  EXPECT_EQ(rs.misses, 2u);
  EXPECT_EQ(rs.hits + rs.coalesced, static_cast<std::uint64_t>(kThreads) - 1);
}

// Acceptance-scale sweep (ctest labels tier2-cache, tier2-concurrent).
TEST(CacheStress, Tier2CacheStress) {
  if (std::getenv("RPQD_TIER2_CACHE") == nullptr) {
    GTEST_SKIP() << "set RPQD_TIER2_CACHE=1 (or run ctest -L tier2-cache)";
  }
  StressConfig big;
  big.waves = 8;
  big.copies = 6;
  big.inflight = 6;
  run_cache_stress(big);
  StressConfig chaos;
  chaos.waves = 6;
  chaos.copies = 6;
  chaos.inflight = 6;
  chaos.invalidator = true;
  chaos.graph_seed = 77;
  run_cache_stress(chaos);
}

}  // namespace
}  // namespace rpqd
