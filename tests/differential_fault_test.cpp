// Randomized differential test harness under fault injection.
//
// Generated PGQL queries run through the distributed engine under
// adversarial fault schedules (message reorder, bounded duplication,
// credit-return jitter, slow machines — common/fault.h) across several
// partition counts, and every run must (a) produce the exact result set
// of the brute-force reference oracle and (b) uphold the engine's
// distributed invariants:
//   - all flow-control credits returned (no leak, no credit starvation),
//     and the overflow bookkeeping sets fully emptied,
//   - the §3.4 termination consensus depth equals the max observed depth,
//   - the §3.5 reachability index contains no duplicate (dst, rpid) key,
//   - the per-query profile tree reconciles exactly with RuntimeStats
//     (every run executes with profiling on, so the tracing layer itself
//     is fuzzed under the same adversarial schedules).
//
// Every failure message carries a one-line replay key (query seed, graph
// seed, schedule name, fault seed, machine count) from which the exact
// query, graph, and fault decisions are re-derived.
//
// Sizing: RPQD_DIFF_QUERIES overrides the generated-query budget of the
// always-on smoke test; the Tier2Exhaustive test (ctest label
// `tier2-fuzz`, enabled by RPQD_TIER2_FUZZ=1) runs the acceptance-scale
// sweep: >= 200 queries x >= 3 schedules x >= 2 partition counts.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "api/rpqd.h"
#include "baseline/reference.h"
#include "common/rng.h"
#include "ldbc/synthetic.h"
#include "query_gen.h"
#include "reconcile.h"

namespace rpqd {
namespace {

int env_int(const char* name, int fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atoi(value) : fallback;
}

/// Asserts the post-run distributed invariants on a query result.
void check_invariants(const QueryResult& result, const std::string& repro) {
  EXPECT_EQ(result.stats.flow_outstanding, 0u)
      << "flow-control credit leak; " << repro;
  EXPECT_EQ(result.stats.flow_overflow_outstanding, 0u)
      << "stale overflow credit bookkeeping; " << repro;
  EXPECT_NE(result.abort_reason, AbortReason::kCreditStarvation)
      << "credit starvation; " << repro;
  if (result.profile.enabled) expect_reconciled(result, repro);
  for (std::size_t g = 0; g < result.stats.rpq.size(); ++g) {
    const RpqStageStats& r = result.stats.rpq[g];
    EXPECT_EQ(r.index_duplicate_entries, 0u)
        << "duplicate reach-index entries in group " << g << "; " << repro;
    if (r.consensus_max_depth.has_value()) {
      EXPECT_EQ(*r.consensus_max_depth, r.max_depth_observed)
          << "consensus depth != max observed depth in group " << g << "; "
          << repro;
    } else if (!(result.aborted &&
                 result.abort_reason == AbortReason::kMachineFailure)) {
      // No consensus is only legitimate when the group never entered the
      // distributed depth protocol: a filter eliminated every start
      // vertex, or the RPQ is pure 0-hop (matches close at depth 0
      // without any depth-counter traffic). A crash-stop victim run is
      // the one exception: the crash aborts it and every machine stops
      // before any §3.4 decision, whatever depth the partial
      // exploration had reached by then.
      EXPECT_EQ(r.max_depth_observed, 0u)
          << "group " << g << " observed depth without consensus; " << repro;
    }
  }
}

struct HarnessConfig {
  int num_queries = 40;
  std::vector<std::string> schedules;
  std::vector<unsigned> machine_counts;
  bool deep_priority = true;
  std::uint64_t base_seed = 1;
  /// Run through Database::run_with_retry and require the final result
  /// to be clean. Needed for schedules that combine loss with crash-stop
  /// (lossy-chaos): the harness resets the schedule before every query,
  /// so every first run is the crash victim and only the retry is
  /// expected to finish.
  bool retry = false;
};

/// Core sweep: queries x schedules x partition counts vs the oracle.
void run_differential(const HarnessConfig& hc) {
  constexpr int kQueriesPerGraph = 8;
  testgen::QueryGenConfig qcfg;
  qcfg.num_vertex_labels = 2;
  qcfg.num_edge_labels = 2;
  qcfg.conjunction_prob = 0.2;

  Graph oracle_graph;
  std::vector<std::unique_ptr<Database>> dbs;
  std::uint64_t gseed = 0;
  for (int q = 0; q < hc.num_queries; ++q) {
    if (q % kQueriesPerGraph == 0) {
      // Fresh graph for every batch; alternate self-loop permission so
      // both shapes are covered.
      synthetic::RandomGraphConfig gcfg;
      gcfg.num_vertices = 24;
      gcfg.num_edges = 55;
      gcfg.num_vertex_labels = 2;
      gcfg.num_edge_labels = 2;
      gcfg.allow_self_loops = (q / kQueriesPerGraph) % 2 == 1;
      gseed = hc.base_seed * 1000 + static_cast<std::uint64_t>(q);
      gcfg.seed = gseed;
      oracle_graph = synthetic::make_random(gcfg);
      dbs.clear();
      for (const unsigned machines : hc.machine_counts) {
        EngineConfig ec;
        ec.workers_per_machine = 2;
        ec.buffers_per_machine = 48;
        ec.buffer_bytes = 256;
        ec.deep_message_priority = hc.deep_priority;
        // Fuzz the tracing layer too: every differential run profiles,
        // and check_invariants reconciles the tree against the stats.
        ec.profile = true;
        dbs.push_back(std::make_unique<Database>(
            synthetic::make_random(gcfg), machines, ec));
      }
    }
    const std::uint64_t qseed =
        hc.base_seed * 100003 + static_cast<std::uint64_t>(q);
    Rng rng(qseed);
    const std::string query = testgen::random_query(rng, qcfg);
    std::uint64_t expected = 0;
    try {
      expected = baseline::reference_evaluate(query, oracle_graph).count;
    } catch (const UnsupportedError&) {
      continue;  // oracle limitation, not an engine bug
    }
    for (const auto& schedule : hc.schedules) {
      for (std::size_t d = 0; d < dbs.size(); ++d) {
        const std::uint64_t fseed = qseed ^ (0x5bf03u * (d + 1));
        Database& db = *dbs[d];
        db.set_fault_schedule(schedule, fseed);
        const std::string repro =
            "repro: qseed=" + std::to_string(qseed) + " gseed=" +
            std::to_string(gseed) + " schedule=" + schedule + " fseed=" +
            std::to_string(fseed) + " machines=" +
            std::to_string(hc.machine_counts[d]) +
            (hc.deep_priority ? "" : " fifo") + " query=" + query;
        if (std::getenv("RPQD_DIFF_TRACE") != nullptr) {
          fprintf(stderr, "[diff] %s\n", repro.c_str());
        }
        const QueryResult result =
            hc.retry ? db.run_with_retry(query) : db.query(query);
        if (hc.retry) {
          EXPECT_FALSE(result.aborted) << repro;
        }
        EXPECT_EQ(result.count, expected) << repro;
        check_invariants(result, repro);
      }
    }
  }
}

TEST(DifferentialFault, GeneratedQueriesAgreeUnderAdversarialSchedules) {
  HarnessConfig hc;
  hc.num_queries = env_int("RPQD_DIFF_QUERIES", 32);
  hc.schedules = {"reorder", "dup-storm", "credit-jitter", "chaos"};
  hc.machine_counts = {2, 3};
  hc.base_seed = 11;
  run_differential(hc);
}

// Lossy-fabric differentials (DESIGN.md §13): under message loss and
// payload corruption the reliable-delivery layer must make every run
// indistinguishable from a reliable fabric — exact oracle counts and all
// distributed invariants, including the profile reconciliation (the
// exactly-once counters must not move under retransmission).
TEST(DifferentialFault, LossSchedulesAgreeWithOracle) {
  HarnessConfig hc;
  hc.num_queries = env_int("RPQD_DIFF_QUERIES", 32) / 2;
  hc.schedules = {"loss", "corrupt-storm", "lossy-chaos"};
  hc.machine_counts = {2, 3};
  hc.base_seed = 71;
  hc.retry = true;  // lossy-chaos arms a crash; the retry must be exact
  run_differential(hc);
}

// FIFO-pickup ablation (set_deep_priority(false)): the §3.2 messaging
// priority is a performance choice, never a correctness one — the full
// differential harness must agree with the oracle in FIFO mode too.
TEST(DifferentialFault, FifoPickupAblationAgreesWithOracle) {
  HarnessConfig hc;
  hc.num_queries = env_int("RPQD_DIFF_QUERIES", 32) / 2;
  hc.schedules = {"none", "reorder", "chaos"};
  hc.machine_counts = {3};
  hc.deep_priority = false;
  hc.base_seed = 23;
  run_differential(hc);
}

// ---- concurrent serving differentials (runtime/scheduler.h) -----------
//
// The serving path's correctness bar: K generated queries in flight at
// once over one database, under every fault schedule, and each must
// produce exactly the result of its solo run (== the oracle count, since
// the solo differential above pins solo == oracle) with every
// distributed invariant intact. Per-query isolation has no tolerance for
// "close": one leaked credit or cross-run index hit shows up here.

struct ConcurrentHarnessConfig {
  int waves = 6;                   // graphs x query batches
  unsigned inflight = 4;           // K concurrent queries per wave
  std::vector<std::string> schedules;
  unsigned machines = 3;
  std::uint64_t base_seed = 41;
};

/// One wave = one random graph + K oracle-checked queries, submitted
/// together under each schedule and awaited against the solo answers.
void run_concurrent_differential(const ConcurrentHarnessConfig& cc) {
  testgen::QueryGenConfig qcfg;
  qcfg.num_vertex_labels = 2;
  qcfg.num_edge_labels = 2;
  qcfg.conjunction_prob = 0.2;

  for (int wave = 0; wave < cc.waves; ++wave) {
    synthetic::RandomGraphConfig gcfg;
    gcfg.num_vertices = 24;
    gcfg.num_edges = 55;
    gcfg.num_vertex_labels = 2;
    gcfg.num_edge_labels = 2;
    gcfg.allow_self_loops = wave % 2 == 1;
    const std::uint64_t gseed =
        cc.base_seed * 1000 + static_cast<std::uint64_t>(wave);
    gcfg.seed = gseed;
    const Graph oracle_graph = synthetic::make_random(gcfg);

    // Collect K oracle-supported queries for this wave.
    std::vector<std::string> queries;
    std::vector<std::uint64_t> expected;
    std::uint64_t qseed = cc.base_seed * 100003 +
                          static_cast<std::uint64_t>(wave) * 977;
    while (queries.size() < cc.inflight) {
      Rng rng(++qseed);
      const std::string query = testgen::random_query(rng, qcfg);
      try {
        expected.push_back(baseline::reference_evaluate(query, oracle_graph).count);
      } catch (const UnsupportedError&) {
        continue;
      }
      queries.push_back(query);
    }

    EngineConfig ec;
    ec.workers_per_machine = 2;
    ec.buffers_per_machine = 48;
    ec.buffer_bytes = 256;
    ec.profile = true;  // fuzz the tracing layer concurrently, too
    Database db(synthetic::make_random(gcfg), cc.machines, ec);
    SchedulerConfig sc;
    sc.max_inflight = cc.inflight;
    db.configure_scheduler(sc);

    for (const auto& schedule : cc.schedules) {
      const std::uint64_t fseed = qseed ^ 0x9e3779b9u;
      db.set_fault_schedule(schedule, fseed);
      std::vector<QueryTicket> tickets;
      for (const auto& query : queries) tickets.push_back(db.submit(query));
      for (std::size_t i = 0; i < tickets.size(); ++i) {
        const std::string repro =
            "repro: concurrent wave=" + std::to_string(wave) + " slot=" +
            std::to_string(i) + " gseed=" + std::to_string(gseed) +
            " schedule=" + schedule + " fseed=" + std::to_string(fseed) +
            " machines=" + std::to_string(cc.machines) + " query=" +
            queries[i];
        const QueryResult result = db.await(tickets[i]);
        EXPECT_FALSE(result.aborted) << repro;
        EXPECT_EQ(result.count, expected[i]) << repro;
        check_invariants(result, repro);
      }
    }
  }
}

TEST(DifferentialFault, ConcurrentWavesAgreeUnderAdversarialSchedules) {
  ConcurrentHarnessConfig cc;
  cc.waves = env_int("RPQD_DIFF_QUERIES", 32) / 8;
  cc.schedules = {"none", "reorder", "dup-storm", "credit-jitter"};
  cc.base_seed = 41;
  run_concurrent_differential(cc);
}

// Crash-stop under concurrency: the run counter makes exactly one run of
// the wave the crash victim (fault_run_seq_ is deliberately
// engine-global). The victim — if the crash fires before it terminates
// naturally — aborts with kMachineFailure and still drains to the
// quiescent state; every other in-flight query is untouched and must
// match the oracle exactly.
TEST(DifferentialFault, ConcurrentCrashStopHasAtMostOneVictim) {
  testgen::QueryGenConfig qcfg;
  qcfg.num_vertex_labels = 2;
  qcfg.num_edge_labels = 2;

  synthetic::RandomGraphConfig gcfg;
  gcfg.num_vertices = 24;
  gcfg.num_edges = 55;
  gcfg.num_vertex_labels = 2;
  gcfg.num_edge_labels = 2;
  gcfg.seed = 4242;
  const Graph oracle_graph = synthetic::make_random(gcfg);

  std::vector<std::string> queries;
  std::vector<std::uint64_t> expected;
  std::uint64_t qseed = 515151;
  while (queries.size() < 4) {
    Rng rng(++qseed);
    const std::string query = testgen::random_query(rng, qcfg);
    try {
      expected.push_back(baseline::reference_evaluate(query, oracle_graph).count);
    } catch (const UnsupportedError&) {
      continue;
    }
    queries.push_back(query);
  }

  EngineConfig ec;
  ec.workers_per_machine = 2;
  ec.buffers_per_machine = 48;
  ec.buffer_bytes = 256;
  Database db(synthetic::make_random(gcfg), 3, ec);
  SchedulerConfig sc;
  sc.max_inflight = 4;
  db.configure_scheduler(sc);

  for (std::uint64_t fseed : {7u, 77u, 777u}) {
    db.set_fault_schedule("crash-stop", fseed);
    std::vector<QueryTicket> tickets;
    for (const auto& query : queries) tickets.push_back(db.submit(query));
    unsigned victims = 0;
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      const std::string repro = "repro: crash-stop fseed=" +
                                std::to_string(fseed) + " slot=" +
                                std::to_string(i) + " query=" + queries[i];
      const QueryResult result = db.await(tickets[i]);
      check_invariants(result, repro);
      if (result.aborted) {
        ++victims;
        EXPECT_EQ(result.abort_reason, AbortReason::kMachineFailure) << repro;
      } else {
        EXPECT_EQ(result.count, expected[i]) << repro;
      }
    }
    // The crash schedule arms run index 0 only; at most the one victim
    // (zero when it terminated before the crash tick).
    EXPECT_LE(victims, 1u) << "crash-stop fseed=" << fseed;
  }
}

// ---- repeated-ask differentials (DESIGN.md §11) ------------------------
//
// Nothing a run leaves behind on its Database may change a later run:
// every fuzzed query must produce the oracle count on its first ask
// (COLD), on a re-ask (WARM), re-asked UNDER each adversarial fault
// schedule, and once more fault-free after those faulted runs.

struct CacheHarnessConfig {
  int num_queries = 12;
  std::vector<std::string> schedules;  // applied to the faulted warm run
  unsigned machines = 3;
  std::uint64_t base_seed = 61;
};

void run_cache_differential(const CacheHarnessConfig& hc) {
  constexpr int kQueriesPerGraph = 4;
  testgen::QueryGenConfig qcfg;
  qcfg.num_vertex_labels = 2;
  qcfg.num_edge_labels = 2;
  qcfg.conjunction_prob = 0.2;

  Graph oracle_graph;
  std::unique_ptr<Database> db;
  std::uint64_t gseed = 0;
  for (int q = 0; q < hc.num_queries; ++q) {
    if (q % kQueriesPerGraph == 0) {
      synthetic::RandomGraphConfig gcfg;
      gcfg.num_vertices = 24;
      gcfg.num_edges = 55;
      gcfg.num_vertex_labels = 2;
      gcfg.num_edge_labels = 2;
      gcfg.allow_self_loops = (q / kQueriesPerGraph) % 2 == 1;
      gseed = hc.base_seed * 1000 + static_cast<std::uint64_t>(q);
      gcfg.seed = gseed;
      oracle_graph = synthetic::make_random(gcfg);
      EngineConfig ec;
      ec.workers_per_machine = 2;
      ec.buffers_per_machine = 48;
      ec.buffer_bytes = 256;
      ec.profile = true;
      db = std::make_unique<Database>(synthetic::make_random(gcfg),
                                      hc.machines, ec);
    }
    const std::uint64_t qseed =
        hc.base_seed * 100003 + static_cast<std::uint64_t>(q);
    Rng rng(qseed);
    const std::string query = testgen::random_query(rng, qcfg);
    std::uint64_t expected = 0;
    try {
      expected = baseline::reference_evaluate(query, oracle_graph).count;
    } catch (const UnsupportedError&) {
      continue;  // oracle limitation, not an engine bug
    }
    const std::string repro = "repro: cache qseed=" + std::to_string(qseed) +
                              " gseed=" + std::to_string(gseed) +
                              " machines=" + std::to_string(hc.machines) +
                              " query=" + query;

    // Cold: first ask of this query (earlier queries ran on the same
    // Database).
    db->set_fault_schedule("none", 0);
    const QueryResult cold = db->query(query);
    EXPECT_EQ(cold.count, expected) << "cold; " << repro;
    check_invariants(cold, repro);

    // Warm, fault-free. Per-depth exploration accounting is NOT compared
    // here: for automata with re-exploration (shallower CAS-min revisits)
    // the depth attribution depends on message arrival order, which varies
    // run to run on random graphs (the very first query on a fresh
    // Database already interleaves differently from steady state). The
    // bar is exact oracle count + stats invariants on every run.
    const QueryResult warm = db->query(query);
    EXPECT_EQ(warm.count, expected) << "warm; " << repro;
    check_invariants(warm, repro);
    ASSERT_EQ(warm.stats.rpq.size(), cold.stats.rpq.size()) << repro;

    // Warm under each adversarial schedule.
    for (const auto& schedule : hc.schedules) {
      const std::uint64_t fseed = qseed ^ 0x7f4a7u;
      db->set_fault_schedule(schedule, fseed);
      const QueryResult faulted = db->query(query);
      EXPECT_EQ(faulted.count, expected)
          << "warm under " << schedule << " fseed=" << fseed << "; " << repro;
      check_invariants(faulted, repro);
    }

    // Fault-free re-ask after the faulted runs.
    db->set_fault_schedule("none", 0);
    const QueryResult again = db->query(query);
    EXPECT_EQ(again.count, expected) << "after faults; " << repro;
    check_invariants(again, repro);
  }
}

TEST(DifferentialFault, CacheColdWarmPoisonAgreeUnderFaults) {
  CacheHarnessConfig hc;
  hc.num_queries = env_int("RPQD_DIFF_QUERIES", 32) / 2;
  hc.schedules = {"reorder", "chaos"};
  run_cache_differential(hc);
}

// Crash-stop x result cache: the victim run aborts and its partial
// result must never be cached (only clean results are admitted); the
// re-ask executes again and is exact.
TEST(DifferentialFault, CacheCrashStopNeverPersistsPartialFacts) {
  EngineConfig ec;
  ec.workers_per_machine = 2;
  ec.buffers_per_machine = 48;
  ec.buffer_bytes = 256;
  ec.result_cache_max_bytes = 1 << 20;
  const std::string query =
      "SELECT COUNT(*) FROM MATCH (a) -/:next*/-> (b)";
  for (std::uint64_t fseed : {3u, 19u, 101u}) {
    Database db(synthetic::make_chain(48), 3, ec);
    const std::uint64_t expected =
        baseline::reference_evaluate(query, db.graph()).count;
    db.set_fault_schedule("crash-stop", fseed);
    const QueryResult first = db.query(query);
    if (first.aborted) {
      EXPECT_EQ(db.result_cache_stats().inserts, 0u)
          << "aborted run's partial result was cached; fseed=" << fseed;
      EXPECT_EQ(db.result_cache_stats().entries, 0u) << "fseed=" << fseed;
    } else {
      EXPECT_EQ(first.count, expected) << "fseed=" << fseed;
    }
    // The re-ask (crash schedule arms run 0 only) must be exact, cached
    // or executed alike — and never a replay of an aborted result.
    const QueryResult second = db.query(query);
    EXPECT_FALSE(second.aborted) << "fseed=" << fseed;
    EXPECT_EQ(second.count, expected) << "fseed=" << fseed;
    if (first.aborted) {
      EXPECT_FALSE(second.stats.result_cache_hit) << "fseed=" << fseed;
    }
  }
}

// Acceptance-scale cache sweep, registered under `tier2-cache`.
TEST(DifferentialFault, Tier2CacheColdWarmPoison) {
  if (std::getenv("RPQD_TIER2_CACHE") == nullptr) {
    GTEST_SKIP() << "set RPQD_TIER2_CACHE=1 (or run ctest -L tier2-cache)";
  }
  CacheHarnessConfig hc;
  hc.num_queries = 80;
  hc.schedules = {"none",  "reorder", "dup-storm",
                  "credit-jitter", "chaos", "loss", "corrupt-storm"};
  hc.base_seed = 67;
  run_cache_differential(hc);
}

// Acceptance-scale lossy-fabric sweep, registered under `tier2-loss`:
// >= 200 queries x the three lossy schedules x three partition counts,
// every run exact against the oracle with no hangs (the ctest TIMEOUT is
// the hang detector — a lost credit return or termination status that
// the transport fails to recover wedges the run).
TEST(DifferentialFault, Tier2LossSweep) {
  if (std::getenv("RPQD_TIER2_LOSS") == nullptr) {
    GTEST_SKIP() << "set RPQD_TIER2_LOSS=1 (or run ctest -L tier2-loss)";
  }
  HarnessConfig hc;
  hc.num_queries = std::max(200, env_int("RPQD_DIFF_QUERIES", 200));
  hc.schedules = {"loss", "corrupt-storm", "lossy-chaos"};
  hc.machine_counts = {2, 3, 5};
  hc.base_seed = 73;
  hc.retry = true;
  run_differential(hc);
}

// Acceptance-scale concurrent sweep: every schedule (including
// crash-free ones at higher K), registered under `tier2-concurrent`.
TEST(DifferentialFault, Tier2ConcurrentWaves) {
  if (std::getenv("RPQD_TIER2_CONCURRENT") == nullptr) {
    GTEST_SKIP() << "set RPQD_TIER2_CONCURRENT=1 (or run ctest -L "
                    "tier2-concurrent)";
  }
  ConcurrentHarnessConfig cc;
  cc.waves = 12;
  cc.inflight = 6;
  cc.schedules = {"none",          "reorder", "dup-storm",
                  "credit-jitter", "chaos",   "slow-machine"};
  cc.machines = 3;
  cc.base_seed = 47;
  run_concurrent_differential(cc);
}

// Acceptance-scale sweep, run under the `tier2-fuzz` ctest label (see
// tests/CMakeLists.txt) so plain tier-1 ctest stays fast. ASan/TSan
// builds run it via the tier2-fuzz-* CMake test presets.
TEST(DifferentialFault, Tier2Exhaustive) {
  if (std::getenv("RPQD_TIER2_FUZZ") == nullptr) {
    GTEST_SKIP() << "set RPQD_TIER2_FUZZ=1 (or run ctest -L tier2-fuzz)";
  }
  HarnessConfig hc;
  hc.num_queries = std::max(200, env_int("RPQD_DIFF_QUERIES", 200));
  hc.schedules = {"none", "reorder", "dup-storm", "credit-jitter",
                  "slow-machine", "chaos"};
  hc.machine_counts = {2, 3, 5};
  hc.base_seed = 31;
  run_differential(hc);
}

}  // namespace
}  // namespace rpqd
