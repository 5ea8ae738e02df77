// Ablation: DFT (RPQd) vs level-synchronous BFT — the trade-off the
// paper's §5 limitations section describes: RPQd excels on tree
// topologies with bounded memory; when a graph/query combination creates
// many duplicated reachability paths (dense neighbourhoods, long windows)
// a BFT engine can be faster at the price of materializing large
// per-source frontiers.
//
// Memory comparison: RPQd's working set = peak buffered message bytes +
// reachability-index bytes (its only dynamic state); BFT's = peak
// (source, vertex, depth) state bytes.
#include <cstdio>

#include "baseline/bft.h"
#include "bench_util.h"

int main() {
  using namespace rpqd;
  using namespace rpqd::bench;

  const auto cfg = bench_ldbc_config();
  const int repeats = bench_repeats();
  print_header("Ablation: RPQd (async DFT) vs level-synchronous BFT");
  ldbc::LdbcStats gstats;
  auto shared_graph =
      std::make_shared<const Graph>(ldbc::generate_ldbc(cfg, &gstats));
  std::printf("LDBC-like sf=%.2f: %zu vertices, %zu edges; 8 machines\n\n",
              cfg.scale_factor, gstats.total_vertices, gstats.total_edges);

  auto pg = std::make_shared<const PartitionedGraph>(shared_graph, 8);
  EngineConfig ec;
  ec.workers_per_machine = 2;
  DistributedEngine rpqd_engine(pg, ec);
  baseline::BftEngine bft(*pg);

  struct Scenario {
    const char* name;
    const char* pgql;            // RPQd side
    baseline::BftTask task;      // equivalent BFT task
  };
  std::vector<Scenario> scenarios;
  {
    Scenario replies;
    replies.name = "reply trees (Post <-replyOf* all msgs)";
    replies.pgql = "SELECT COUNT(*) FROM MATCH (m:Post|Comment) "
                   "-/:replyOf{1,}/-> (n)";
    replies.task.source_labels = {"Post", "Comment"};
    replies.task.dir = Direction::kOut;
    replies.task.edge_labels = {"replyOf"};
    replies.task.min_hop = 1;
    replies.task.max_hop = kUnboundedDepth;
    scenarios.push_back(replies);

    Scenario knows;
    knows.name = "dense knows neighbourhoods (50 persons, {2,3}) — the "
                 "duplicate-heavy case the paper's 5 cedes to BFT";
    knows.pgql = "SELECT COUNT(*) FROM MATCH (p1:Person) -/:knows{2,3}/- "
                 "(p2:Person) WHERE p1.id <= 50";
    knows.task.source_labels = {"Person"};
    knows.task.source_id_max = 50;
    knows.task.dir = Direction::kBoth;
    knows.task.edge_labels = {"knows"};
    knows.task.min_hop = 2;
    knows.task.max_hop = 3;
    knows.task.dest_labels = {"Person"};
    scenarios.push_back(knows);
  }

  for (const auto& s : scenarios) {
    PreparedQuery prepared = rpqd_engine.prepare(s.pgql);
    QueryResult dft;
    const double dft_ms = median_ms([&] { dft = prepared.run(); }, repeats);
    baseline::BftResult bft_result;
    const double bft_ms =
        median_ms([&] { bft_result = bft.run(s.task); }, repeats);
    const std::uint64_t dft_bytes =
        dft.stats.peak_queued_bytes +
        (dft.stats.rpq.empty() ? 0 : dft.stats.rpq[0].index_bytes);

    std::printf("%s\n", s.name);
    std::printf("  counts:      rpqd=%llu bft=%llu (%s)\n",
                static_cast<unsigned long long>(dft.count),
                static_cast<unsigned long long>(bft_result.count),
                dft.count == bft_result.count ? "agree" : "MISMATCH");
    std::printf("  latency:     rpqd=%.2fms bft=%.2fms\n", dft_ms, bft_ms);
    std::printf("  peak memory: rpqd=%llu B (buffers+index)  bft=%llu B "
                "(frontier+visited)  -> bft uses %.1fx\n\n",
                static_cast<unsigned long long>(dft_bytes),
                static_cast<unsigned long long>(bft_result.peak_state_bytes),
                dft_bytes > 0 ? static_cast<double>(
                                    bft_result.peak_state_bytes) /
                                    static_cast<double>(dft_bytes)
                              : 0.0);
  }
  std::printf("(the paper's §5 trade-off: BFT may win on latency for "
              "duplicate-heavy workloads but gives up RPQd's bounded "
              "memory)\n");
  return 0;
}
