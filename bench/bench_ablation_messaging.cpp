// Ablation: messaging design choices (§3.2).
//
// (a) Batching: RPQd "batches multiple contexts for the same machine and
//     stage into a single message" — sweeping the buffer size shows the
//     amortization (message counts drop, latency improves, at the price
//     of burstier memory).
// (b) Pickup priority: messages are processed "larger depth first, later
//     stage first"; the FIFO ablation disables that rule.
#include <cstdio>

#include "bench_util.h"

int main() {
  using namespace rpqd;
  using namespace rpqd::bench;

  const auto cfg = bench_ldbc_config();
  const int repeats = bench_repeats();
  print_header("Ablation: message batching and pickup priority");
  ldbc::LdbcStats gstats;
  auto shared_graph =
      std::make_shared<const Graph>(ldbc::generate_ldbc(cfg, &gstats));
  std::printf("LDBC-like sf=%.2f (%zu vertices), 8 machines, dense knows{1,2} query\n\n",
              cfg.scale_factor, gstats.total_vertices);
  auto pg = std::make_shared<const PartitionedGraph>(shared_graph, 8);

  // Batching needs many contexts per (machine, stage, depth) key: the
  // dense knows neighbourhood concentrates its traffic at depths 1-2.
  const std::string query =
      "SELECT COUNT(*) FROM MATCH (p1:Person) -/:knows{1,2}/- (p2:Person)";

  std::printf("--- (a) context batching: buffer size sweep ---\n");
  std::printf("%-12s %12s %12s %12s %14s\n", "buf-bytes", "latency(ms)",
              "messages", "contexts", "bytes-sent");
  for (const std::size_t bytes : {128u, 512u, 2048u, 8192u, 65536u}) {
    EngineConfig ec;
    ec.workers_per_machine = 2;
    ec.buffer_bytes = bytes;
    DistributedEngine engine(pg, ec);
    PreparedQuery prepared = engine.prepare(query);
    QueryResult result;
    const double ms = median_ms([&] { result = prepared.run(); }, repeats);
    std::printf("%-12zu %12.2f %12llu %12llu %14llu\n", bytes, ms,
                static_cast<unsigned long long>(result.stats.data_messages),
                static_cast<unsigned long long>(result.stats.contexts_sent),
                static_cast<unsigned long long>(result.stats.bytes_sent));
  }

  std::printf("\n--- (b) pickup priority: deep-first vs FIFO ---\n");
  std::printf("%-12s %12s %16s\n", "mode", "latency(ms)", "peak-buffered");
  for (const bool deep : {true, false}) {
    EngineConfig ec;
    ec.workers_per_machine = 2;
    ec.buffer_bytes = 1024;
    ec.deep_message_priority = deep;
    DistributedEngine engine(pg, ec);
    PreparedQuery prepared = engine.prepare(query);
    QueryResult result;
    const double ms = median_ms([&] { result = prepared.run(); }, repeats);
    std::printf("%-12s %12.2f %16llu\n", deep ? "deep-first" : "fifo", ms,
                static_cast<unsigned long long>(
                    result.stats.peak_queued_bytes));
  }
  std::printf("\n(deep-first pickup drains the pipeline towards the output "
              "before expanding new shallow work)\n");
  return 0;
}
