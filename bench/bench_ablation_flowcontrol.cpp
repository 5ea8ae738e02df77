// Ablation: flow-control sizing (§3.3 / §4.2).
//
// Sweeps the per-machine buffer allowance and the RPQ preallocated depth
// window D on a wide reply-tree exploration (the Q03a/Q09a shape whose
// intermediate results explode at shallow depths — the behaviour that
// made Q03* block flow control 82M times in the paper). Reports latency,
// block counts, shared/overflow credit usage, and peak buffered bytes:
// the memory/latency trade-off the paper's flow control navigates.
#include <cstdio>

#include "bench_util.h"
#include "workloads/queries.h"

int main() {
  using namespace rpqd;
  using namespace rpqd::bench;

  const auto cfg = bench_ldbc_config();
  const int repeats = bench_repeats();
  print_header("Ablation: flow-control buffer budget and depth window");
  ldbc::LdbcStats gstats;
  Graph graph = ldbc::generate_ldbc(cfg, &gstats);
  std::printf("LDBC-like sf=%.2f (%zu messages), 8 machines, query Q09a\n\n",
              cfg.scale_factor, gstats.posts + gstats.comments);

  const std::string query =
      "SELECT COUNT(*) FROM MATCH (post:Post) <-/:replyOf*/- (m)";

  std::printf("%-10s %-8s %12s %10s %10s %10s %14s\n", "buffers", "depthD",
              "latency(ms)", "blocked", "shared", "overflow", "peak-bytes");
  auto shared_graph = std::make_shared<const Graph>(std::move(graph));
  bool failed = false;
  for (const unsigned buffers : {8u, 32u, 128u, 512u}) {
    for (const Depth window : {1u, 4u, 8u}) {
      EngineConfig ec;
      ec.workers_per_machine = 2;
      ec.buffers_per_machine = buffers;
      ec.buffer_bytes = 2048;
      ec.rpq_preallocated_depth = window;
      auto pg = std::make_shared<const PartitionedGraph>(shared_graph, 8);
      DistributedEngine engine(pg, ec);
      PreparedQuery prepared = engine.prepare(query);
      QueryResult result;
      const double ms = median_ms([&] { result = prepared.run(); }, repeats);
      std::printf("%-10u %-8u %12.2f %10llu %10llu %10llu %14llu\n", buffers,
                  window, ms,
                  static_cast<unsigned long long>(result.stats.flow_blocked),
                  static_cast<unsigned long long>(
                      result.stats.flow_shared_used),
                  static_cast<unsigned long long>(
                      result.stats.flow_overflow_used),
                  static_cast<unsigned long long>(
                      result.stats.peak_queued_bytes));
      if (result.aborted) {
        // Every budget in the sweep keeps the §3.3 progress floors, so
        // an abort (credit starvation included) is a defect, not a point.
        std::printf("  !! aborted: %s\n", to_string(result.abort_reason));
        failed = true;
      }
    }
  }
  std::printf("\n(small budgets trade latency for bounded buffering: "
              "blocked counts rise, peak bytes fall — §3.3)\n");
  return failed ? 1 : 0;
}
