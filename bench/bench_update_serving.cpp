// Online-update serving benchmark (DESIGN.md §12).
//
// A Zipf-distributed query stream over a pool of distinct RPQs is
// interleaved with seeded edge-churn batches at increasing update rates
// (updates per 16 stream slots), against a Database with the result
// cache on. Reported per rate:
//
//   - query latency (mean/p50/p95) — the cost of running against delta
//     segments plus the cache re-warms that label-scoped invalidation
//     forces (rate 0 is the pure cached-serving baseline),
//   - result-cache hit / evicted-by-update counters — how much of the
//     latency shift is churn-driven re-execution,
//   - the background merge pause (GraphStoreStats::last_merge_ms after
//     folding the accumulated deltas) — the quiescent-point cost the
//     RCU design keeps off the query path.
//
// Environment knobs (on top of bench_util.h's RPQD_BENCH_*):
//   RPQD_BENCH_UPDATE_OPS   stream slots per rate   (default 96)
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "graph/update.h"
#include "ldbc/synthetic.h"

namespace {

std::vector<std::string> query_pool() {
  return {
      "SELECT COUNT(*) FROM MATCH (a) -/:e0*/-> (b)",
      "SELECT COUNT(*) FROM MATCH (a) -/:e1*/-> (b)",
      "SELECT COUNT(*) FROM MATCH (a) -/:e0|e1{1,4}/-> (b)",
      "SELECT COUNT(*) FROM MATCH (a) -/:e0+/-> (b)",
      "SELECT COUNT(*) FROM MATCH (a) -/:e1{2,}/-> (b)",
      "SELECT COUNT(*) FROM MATCH (a) <-/:e0*/- (b)",
      "SELECT COUNT(*) FROM MATCH (a) -/:e0{1,5}/-> (b)",
      "SELECT COUNT(*) FROM MATCH (a) -/:e1+/-> (b)",
  };
}

}  // namespace

int main() {
  using namespace rpqd;
  using namespace rpqd::bench;

  const std::size_t ops =
      static_cast<std::size_t>(env_int("RPQD_BENCH_UPDATE_OPS", 96));
  const std::vector<std::string> pool = query_pool();

  synthetic::RandomGraphConfig gcfg;
  gcfg.num_vertices = 48;
  gcfg.num_edges = 160;
  gcfg.num_vertex_labels = 2;
  gcfg.num_edge_labels = 2;
  gcfg.allow_self_loops = false;
  gcfg.seed = bench_seed();
  const Graph graph = synthetic::make_random(gcfg);

  print_header("online update serving (random:48:160, 3 machines, zipf 1.2)");
  std::printf("ops=%zu pool=%zu\n\n", ops, pool.size());
  std::printf("%8s %10s %10s %10s %8s %8s %8s %10s\n", "upd/16", "mean ms",
              "p50 ms", "p95 ms", "hits", "evicted", "batches", "merge ms");

  for (const unsigned rate : {0u, 1u, 2u, 4u, 8u}) {
    EngineConfig ec;
    ec.workers_per_machine = 2;
    ec.result_cache_max_bytes = 8u << 20;
    Database db(graph, 3, ec);
    const LabelId e0 = *db.graph().catalog().find_edge_label("e0");
    const LabelId e1 = *db.graph().catalog().find_edge_label("e1");

    const std::vector<std::size_t> stream =
        zipf_stream(ops, pool.size(), 1.2,
                    bench_seed() * 1000003 + rate);
    Rng churn(bench_seed() ^ (0xc4u * (rate + 1)));
    std::vector<EdgeInsert> added;  // churn-inserted, hence deletable
    std::vector<double> latencies;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      if (i % 16 < rate) {
        UpdateBatch batch;
        if (!added.empty() && churn.next_below(3) == 0) {
          const std::size_t pick = churn.next_below(added.size());
          batch.edge_deletes.push_back(
              {added[pick].src, added[pick].dst, added[pick].elabel});
          added.erase(added.begin() + static_cast<std::ptrdiff_t>(pick));
        } else {
          batch.edge_inserts.push_back(
              {static_cast<VertexId>(churn.next_below(gcfg.num_vertices)),
               static_cast<VertexId>(churn.next_below(gcfg.num_vertices)),
               churn.next_below(2) == 0 ? e0 : e1});
          // One delete removes every parallel copy, so record each
          // (src, dst, elabel) key at most once.
          const EdgeInsert& ins = batch.edge_inserts.back();
          const bool dup = std::any_of(
              added.begin(), added.end(), [&](const EdgeInsert& e) {
                return e.src == ins.src && e.dst == ins.dst &&
                       e.elabel == ins.elabel;
              });
          if (!dup) added.push_back(ins);
        }
        db.apply_update(batch);
        continue;
      }
      Stopwatch timer;
      const QueryResult r = db.query(pool[stream[i]]);
      if (!r.aborted) latencies.push_back(timer.elapsed_ms());
    }

    const GraphStoreStats before = db.update_stats();
    double merge_ms = 0.0;
    if (db.merge_deltas()) merge_ms = db.update_stats().last_merge_ms;
    const ResultCacheStats rs = db.result_cache_stats();
    double mean = 0.0;
    for (const double v : latencies) mean += v;
    if (!latencies.empty()) mean /= static_cast<double>(latencies.size());
    std::printf("%8u %10.3f %10.3f %10.3f %8llu %8llu %8llu %10.3f\n", rate,
                mean, percentile(latencies, 50.0),
                percentile(latencies, 95.0),
                static_cast<unsigned long long>(rs.hits),
                static_cast<unsigned long long>(rs.evicted_by_update),
                static_cast<unsigned long long>(before.batches_applied),
                merge_ms);
  }
  return 0;
}
