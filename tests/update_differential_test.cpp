// Differential harness for online updates (DESIGN.md §12): seeded
// update batches interleaved with generated queries under the existing
// adversarial fault schedules, every query checked against the
// brute-force reference oracle ON THE SNAPSHOT IT PINNED
// (Database::materialize_snapshot of result.stats.snapshot_epoch), with
// the result cache enabled so the coherence plumbing — label-scoped
// result eviction, single-flight epoch stamping — is fuzzed along the
// way. Occasional merge_deltas() calls fold the
// delta segments mid-sweep; a merge changes representation only, so
// agreement must hold straight through it.
//
// The concurrent variant submits a wave of queries and applies a batch
// while they are in flight: each awaited result must match the oracle of
// its OWN pinned epoch (some pin the pre-update snapshot, some the
// post-update one — both are right answers, torn reads are not).
//
// Sizing: the always-on smoke runs are tier-1; Tier2UpdateSweep (ctest
// label `tier2-updates`, enabled by RPQD_TIER2_UPDATES=1) runs the
// acceptance-scale sweep.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "api/rpqd.h"
#include "baseline/reference.h"
#include "common/rng.h"
#include "ldbc/synthetic.h"
#include "query_gen.h"

namespace rpqd {
namespace {

int env_int(const char* name, int fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atoi(value) : fallback;
}

/// Post-run distributed invariants (the same bar as the solo
/// differential harness: credits, consensus depth, index dedup).
void check_invariants(const QueryResult& result, const std::string& repro) {
  EXPECT_EQ(result.stats.flow_outstanding, 0u)
      << "flow-control credit leak; " << repro;
  EXPECT_EQ(result.stats.flow_overflow_outstanding, 0u)
      << "stale overflow credit bookkeeping; " << repro;
  EXPECT_NE(result.abort_reason, AbortReason::kCreditStarvation)
      << "credit starvation; " << repro;
  for (std::size_t g = 0; g < result.stats.rpq.size(); ++g) {
    const RpqStageStats& r = result.stats.rpq[g];
    EXPECT_EQ(r.index_duplicate_entries, 0u)
        << "duplicate reach-index entries in group " << g << "; " << repro;
    if (r.consensus_max_depth.has_value()) {
      EXPECT_EQ(*r.consensus_max_depth, r.max_depth_observed)
          << "consensus depth != max observed depth in group " << g << "; "
          << repro;
    } else {
      EXPECT_EQ(r.max_depth_observed, 0u)
          << "group " << g << " observed depth without consensus; " << repro;
    }
  }
}

/// Seeded valid-by-construction batch against the materialized graph:
/// edge inserts between alive vertices, deletes of edges that exist,
/// vertex inserts (sometimes wired in), vertex deletes of pre-existing
/// alive vertices. Returns an empty batch only when the graph has
/// nothing left to mutate.
UpdateBatch random_batch(Rng& rng, const Graph& g, unsigned num_ops) {
  UpdateBatch batch;
  std::vector<VertexId> alive;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.alive(v)) alive.push_back(v);
  }
  const unsigned nvl =
      static_cast<unsigned>(g.catalog().num_vertex_labels());
  const unsigned nel = static_cast<unsigned>(g.catalog().num_edge_labels());
  std::set<std::tuple<VertexId, VertexId, LabelId>> deleted_edges;
  std::set<VertexId> deleted_vertices;
  std::size_t inserted = 0;
  for (unsigned i = 0; i < num_ops; ++i) {
    switch (rng.next_below(4)) {
      case 0: {  // vertex insert, sometimes wired to an existing vertex
        VertexInsert vi;
        vi.label = static_cast<LabelId>(rng.next_below(nvl));
        batch.vertex_inserts.push_back(vi);
        const VertexId fresh =
            static_cast<VertexId>(g.num_vertices() + inserted++);
        if (!alive.empty() && rng.next_below(2) == 0) {
          const VertexId src = alive[rng.next_below(alive.size())];
          if (deleted_vertices.count(src) == 0) {
            batch.edge_inserts.push_back(
                {src, fresh, static_cast<LabelId>(rng.next_below(nel))});
          }
        }
        break;
      }
      case 1: {  // edge insert between alive, not-deleted-here vertices
        if (alive.size() < 2) break;
        const VertexId src = alive[rng.next_below(alive.size())];
        const VertexId dst = alive[rng.next_below(alive.size())];
        if (deleted_vertices.count(src) != 0 ||
            deleted_vertices.count(dst) != 0) {
          break;
        }
        batch.edge_inserts.push_back(
            {src, dst, static_cast<LabelId>(rng.next_below(nel))});
        break;
      }
      case 2: {  // delete an existing edge (dedup by (src,dst,elabel))
        if (alive.empty()) break;
        const VertexId src = alive[rng.next_below(alive.size())];
        const auto [lo, hi] = g.out().range(src);
        if (lo == hi) break;
        const AdjEntry& e = g.out().entry(lo + rng.next_below(hi - lo));
        const auto key = std::make_tuple(src, e.other, e.elabel);
        if (!deleted_edges.insert(key).second) break;
        batch.edge_deletes.push_back({src, e.other, e.elabel});
        break;
      }
      default: {  // delete a pre-existing alive vertex (at most a few)
        if (alive.empty() || deleted_vertices.size() >= 2) break;
        const VertexId v = alive[rng.next_below(alive.size())];
        if (!deleted_vertices.insert(v).second) break;
        batch.vertex_deletes.push_back({v});
        break;
      }
    }
  }
  return batch;
}

struct UpdateHarnessConfig {
  int rounds = 4;           // graphs
  int steps_per_round = 10; // alternating query / update steps
  std::vector<std::string> schedules;
  unsigned machines = 3;
  std::uint64_t base_seed = 61;
};

/// Solo sweep: one database per round, interleaving seeded batches with
/// oracle-checked generated queries under each fault schedule. The
/// result cache is ON — a stale hit shows up as a count mismatch
/// against the pinned-epoch oracle.
void run_update_differential(const UpdateHarnessConfig& uc) {
  testgen::QueryGenConfig qcfg;
  qcfg.num_vertex_labels = 2;
  qcfg.num_edge_labels = 2;
  qcfg.conjunction_prob = 0.2;

  for (int round = 0; round < uc.rounds; ++round) {
    synthetic::RandomGraphConfig gcfg;
    gcfg.num_vertices = 22;
    gcfg.num_edges = 50;
    gcfg.num_vertex_labels = 2;
    gcfg.num_edge_labels = 2;
    gcfg.allow_self_loops = round % 2 == 1;
    const std::uint64_t gseed =
        uc.base_seed * 1000 + static_cast<std::uint64_t>(round);
    gcfg.seed = gseed;

    EngineConfig ec;
    ec.workers_per_machine = 2;
    ec.buffers_per_machine = 48;
    ec.buffer_bytes = 256;
    ec.profile = true;
    ec.result_cache_max_bytes = 1 << 20;
    Database db(synthetic::make_random(gcfg), uc.machines, ec);

    std::uint64_t qseed = uc.base_seed * 100003 +
                          static_cast<std::uint64_t>(round) * 7919;
    Rng batch_rng(gseed ^ 0xb17c5u);
    for (int step = 0; step < uc.steps_per_round; ++step) {
      if (step % 2 == 1) {
        // Mutation step: apply a seeded batch; every third one also
        // folds the deltas (merge must be invisible to results).
        const UpdateBatch batch = random_batch(
            batch_rng, *db.materialize_snapshot(db.graph_epoch()),
            1 + static_cast<unsigned>(batch_rng.next_below(3)));
        if (!batch.empty()) db.apply_update(batch);
        if (step % 6 == 3) db.merge_deltas();
        continue;
      }
      Rng rng(++qseed);
      const std::string query = testgen::random_query(rng, qcfg);
      {
        // Skip oracle-unsupported shapes (checked on the current graph).
        try {
          baseline::reference_evaluate(query,
                                       *db.materialize_snapshot(
                                           db.graph_epoch()));
        } catch (const UnsupportedError&) {
          continue;
        }
      }
      for (const auto& schedule : uc.schedules) {
        const std::uint64_t fseed = qseed ^ 0x5bf03u;
        db.set_fault_schedule(schedule, fseed);
        const std::string repro =
            "repro: qseed=" + std::to_string(qseed) + " gseed=" +
            std::to_string(gseed) + " epoch=" +
            std::to_string(db.graph_epoch()) + " schedule=" + schedule +
            " fseed=" + std::to_string(fseed) + " machines=" +
            std::to_string(uc.machines) + " query=" + query;
        const QueryResult result = db.query(query);
        const std::uint64_t expected =
            baseline::reference_evaluate(
                query, *db.materialize_snapshot(result.stats.snapshot_epoch))
                .count;
        EXPECT_EQ(result.count, expected) << repro;
        if (!result.stats.result_cache_hit &&
            !result.stats.result_cache_coalesced) {
          check_invariants(result, repro);
        }
      }
    }
  }
}

TEST(UpdateDifferential, InterleavedBatchesAgreeWithPinnedEpochOracle) {
  UpdateHarnessConfig uc;
  uc.rounds = env_int("RPQD_UPDATE_DIFF_ROUNDS", 4);
  uc.schedules = {"none", "reorder", "dup-storm", "chaos", "loss"};
  uc.base_seed = 61;
  run_update_differential(uc);
}

TEST(UpdateDifferential, CreditJitterAndMergeHeavyAblation) {
  UpdateHarnessConfig uc;
  uc.rounds = env_int("RPQD_UPDATE_DIFF_ROUNDS", 4) / 2 + 1;
  uc.steps_per_round = 8;
  uc.schedules = {"credit-jitter", "chaos"};
  uc.machines = 2;
  uc.base_seed = 89;
  run_update_differential(uc);
}

/// Concurrent variant: a wave of submissions races one apply_update.
/// Each result must equal the oracle of the epoch IT pinned — proof of
/// snapshot isolation (no torn batch) on the serving path.
void run_concurrent_update_wave(int waves, unsigned inflight,
                                const std::string& schedule,
                                std::uint64_t base_seed) {
  testgen::QueryGenConfig qcfg;
  qcfg.num_vertex_labels = 2;
  qcfg.num_edge_labels = 2;
  qcfg.conjunction_prob = 0.2;

  for (int wave = 0; wave < waves; ++wave) {
    synthetic::RandomGraphConfig gcfg;
    gcfg.num_vertices = 20;
    gcfg.num_edges = 46;
    gcfg.num_vertex_labels = 2;
    gcfg.num_edge_labels = 2;
    gcfg.allow_self_loops = wave % 2 == 1;
    const std::uint64_t gseed =
        base_seed * 1000 + static_cast<std::uint64_t>(wave);
    gcfg.seed = gseed;

    EngineConfig ec;
    ec.workers_per_machine = 2;
    ec.buffers_per_machine = 48;
    ec.buffer_bytes = 256;
    ec.result_cache_max_bytes = 1 << 20;
    Database db(synthetic::make_random(gcfg), 3, ec);
    db.set_fault_schedule(schedule, gseed ^ 0x77u);
    SchedulerConfig sc;
    sc.max_inflight = inflight;
    db.configure_scheduler(sc);

    std::vector<std::string> queries;
    std::uint64_t qseed =
        base_seed * 100003 + static_cast<std::uint64_t>(wave) * 977;
    while (queries.size() < inflight * 2) {
      Rng rng(++qseed);
      const std::string query = testgen::random_query(rng, qcfg);
      try {
        baseline::reference_evaluate(query,
                                     *db.materialize_snapshot(
                                         db.graph_epoch()));
      } catch (const UnsupportedError&) {
        continue;
      }
      queries.push_back(query);
    }

    Rng batch_rng(gseed ^ 0xb17c5u);
    std::vector<QueryTicket> tickets;
    tickets.reserve(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      tickets.push_back(db.submit(queries[i]));
      if (i + 1 == queries.size() / 2) {
        // Mid-wave mutation: earlier submissions may have pinned the old
        // epoch, later ones the new — both must match their own oracle.
        const UpdateBatch batch = random_batch(
            batch_rng, *db.materialize_snapshot(db.graph_epoch()),
            1 + static_cast<unsigned>(batch_rng.next_below(3)));
        if (!batch.empty()) db.apply_update(batch);
      }
    }
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      const QueryResult result = db.await(tickets[i]);
      const std::string repro =
          "repro: wave gseed=" + std::to_string(gseed) + " schedule=" +
          schedule + " i=" + std::to_string(i) + " epoch=" +
          std::to_string(result.stats.snapshot_epoch) + " query=" +
          queries[i];
      ASSERT_FALSE(result.aborted)
          << to_string(result.abort_reason) << "; " << repro;
      const std::uint64_t expected =
          baseline::reference_evaluate(
              queries[i],
              *db.materialize_snapshot(result.stats.snapshot_epoch))
              .count;
      EXPECT_EQ(result.count, expected) << repro;
    }
  }
}

TEST(UpdateDifferential, ConcurrentWaveRacesOneUpdate) {
  run_concurrent_update_wave(env_int("RPQD_UPDATE_DIFF_WAVES", 4), 4,
                             "none", 101);
  run_concurrent_update_wave(2, 3, "reorder", 113);
}

// Acceptance-scale sweep (ctest -L tier2-updates).
TEST(UpdateDifferential, Tier2UpdateSweep) {
  if (std::getenv("RPQD_TIER2_UPDATES") == nullptr) {
    GTEST_SKIP() << "set RPQD_TIER2_UPDATES=1 (ctest -L tier2-updates)";
  }
  UpdateHarnessConfig uc;
  uc.rounds = 12;
  uc.steps_per_round = 20;
  uc.schedules = {"none",  "reorder",       "dup-storm",
                  "credit-jitter", "chaos", "loss", "corrupt-storm"};
  uc.base_seed = 211;
  run_update_differential(uc);
  UpdateHarnessConfig two;
  two.rounds = 8;
  two.steps_per_round = 16;
  two.schedules = {"reorder", "chaos"};
  two.machines = 2;
  two.base_seed = 223;
  run_update_differential(two);
  run_concurrent_update_wave(10, 5, "chaos", 227);
}

}  // namespace
}  // namespace rpqd
