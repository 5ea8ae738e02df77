// Result-cache serving benchmark (DESIGN.md §11).
//
// A Zipf(s)-distributed request stream over a pool of distinct RPQs is
// replayed serially against two Database configurations:
//
//   cold   result cache off — every ask executes from scratch
//   full   result cache on — a repeated normalized ask is served from
//          the store without dispatching
//
// The headline claim: at skew s = 1.2 (hot queries dominate, the
// serving regime the cache targets) `full` improves MEAN latency by
// >= 1.5x over `cold`. Uniform (s = 0) and moderate (s = 0.8) rows are
// printed for transparency — with 2x more requests than pool entries
// even the uniform stream repeats every query, so the result cache
// helps there too, just less.
//
// Environment knobs (on top of bench_util.h's RPQD_BENCH_*):
//   RPQD_BENCH_CACHE_OPS   requests per stream   (default 96)
//   RPQD_BENCH_CACHE_POOL  distinct queries      (default 12, max 12)
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "ldbc/synthetic.h"

namespace {

/// Distinct automata over the random graph's e0/e1 labels: closures,
/// bounded windows, alternations, a reverse closure.
std::vector<std::string> query_pool(std::size_t limit) {
  std::vector<std::string> pool = {
      "SELECT COUNT(*) FROM MATCH (a) -/:e0*/-> (b)",
      "SELECT COUNT(*) FROM MATCH (a) -/:e1*/-> (b)",
      "SELECT COUNT(*) FROM MATCH (a) -/:e0|e1{1,4}/-> (b)",
      "SELECT COUNT(*) FROM MATCH (a) -/:e0+/-> (b)",
      "SELECT COUNT(*) FROM MATCH (a) -/:e1{2,}/-> (b)",
      "SELECT COUNT(*) FROM MATCH (a) -/:e0|e1*/-> (b)",
      "SELECT COUNT(*) FROM MATCH (a) <-/:e0*/- (b)",
      "SELECT COUNT(*) FROM MATCH (a) -/:e1|e0{1,3}/-> (b)",
      "SELECT COUNT(*) FROM MATCH (a) -/:e0{1,5}/-> (b)",
      "SELECT COUNT(*) FROM MATCH (a) -/:e1+/-> (b)",
      "SELECT COUNT(*) FROM MATCH (a) -/:e0|e1+/-> (b)",
      "SELECT COUNT(*) FROM MATCH (a) -/:e1{1,4}/-> (b)",
  };
  if (limit < pool.size()) pool.resize(limit);
  return pool;
}

rpqd::EngineConfig mode_config(const char* mode) {
  rpqd::EngineConfig cfg;
  cfg.workers_per_machine = 2;
  if (std::string(mode) == "full") cfg.result_cache_max_bytes = 8u << 20;
  return cfg;
}

}  // namespace

int main() {
  using namespace rpqd;
  using namespace rpqd::bench;

  const std::size_t ops =
      static_cast<std::size_t>(env_int("RPQD_BENCH_CACHE_OPS", 96));
  const std::size_t pool_size = std::min<std::size_t>(
      12, static_cast<std::size_t>(env_int("RPQD_BENCH_CACHE_POOL", 12)));
  const std::vector<std::string> pool = query_pool(pool_size);

  synthetic::RandomGraphConfig gcfg;
  gcfg.num_vertices = 48;
  gcfg.num_edges = 160;
  gcfg.num_vertex_labels = 2;
  gcfg.num_edge_labels = 2;
  gcfg.allow_self_loops = false;
  gcfg.seed = bench_seed();
  const Graph graph = synthetic::make_random(gcfg);

  print_header("result cache serving (random:48:160, 3 machines)");
  std::printf("ops=%zu pool=%zu\n\n", ops, pool.size());
  std::printf("%6s %6s %10s %10s %10s %8s %8s %9s\n", "zipf", "mode",
              "mean ms", "p50 ms", "p95 ms", "hits", "misses", "speedup");

  for (const double s : {0.0, 0.8, 1.2}) {
    const std::vector<std::size_t> stream =
        zipf_stream(ops, pool.size(), s, bench_seed() * 1000003 +
                                              static_cast<std::uint64_t>(
                                                  s * 10.0));
    double cold_mean = 0.0;
    for (const char* mode : {"cold", "full"}) {
      Database db(graph, 3, mode_config(mode));
      const ServeStreamResult r = serve_stream(db, pool, stream);
      const ResultCacheStats rs = db.result_cache_stats();
      if (std::string(mode) == "cold") cold_mean = r.mean_ms;
      const double speedup =
          r.mean_ms > 0.0 && cold_mean > 0.0 ? cold_mean / r.mean_ms : 0.0;
      std::printf("%6.1f %6s %10.3f %10.3f %10.3f %8llu %8llu %8.2fx\n", s,
                  mode, r.mean_ms, r.p50_ms, r.p95_ms,
                  static_cast<unsigned long long>(rs.hits),
                  static_cast<unsigned long long>(rs.misses), speedup);
    }
    std::printf("\n");
  }
  return 0;
}
