// Reliable-delivery (§13 of DESIGN.md) overhead on a lossy fabric.
//
// Two questions the reliability layer must answer before it can stay
// compiled into the engine:
//   (a) arming `reliable_transport` on a loss-free fabric must be close
//       to free — the sequence stamp, CRC, and unacked-ring bookkeeping
//       are the only tax (target <= 1.05x the plain fabric);
//   (b) the latency factor per loss / corruption rate, so harness
//       runtimes in EXPERIMENTS.md can be budgeted and regressions in
//       the retransmission path show up as a ratio, not an anecdote.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/fault.h"

int main() {
  using namespace rpqd;
  using namespace rpqd::bench;

  const auto cfg = bench_ldbc_config();
  const int repeats = bench_repeats();
  print_header("Reliable-delivery overhead over a lossy fabric");
  ldbc::LdbcStats gstats;
  auto shared_graph =
      std::make_shared<const Graph>(ldbc::generate_ldbc(cfg, &gstats));
  std::printf(
      "LDBC-like sf=%.2f (%zu vertices), 4 machines, knows{1,2} query\n\n",
      cfg.scale_factor, gstats.total_vertices);
  auto pg = std::make_shared<const PartitionedGraph>(shared_graph, 4);

  const std::string query =
      "SELECT COUNT(*) FROM MATCH (p1:Person) -/:knows{1,2}/- (p2:Person)";

  struct Point {
    const char* label;
    bool reliable;      // force reliable_transport even with no faults
    double loss_rate;
    double corrupt_rate;
  };
  const std::vector<Point> points = {
      {"plain", false, 0.0, 0.0},
      {"reliable-0%", true, 0.0, 0.0},
      {"loss-0.1%", false, 0.001, 0.0},
      {"loss-1%", false, 0.01, 0.0},
      {"loss-5%", false, 0.05, 0.0},
      {"corrupt-5%", false, 0.0, 0.05},
      {"corrupt-40%", false, 0.0, 0.40},
  };

  std::printf("%-14s %12s %8s %8s %8s %8s %8s\n", "fabric", "latency(ms)",
              "retx", "acks", "crc-hit", "dedup", "count");
  double base_ms = 0.0;
  for (const auto& p : points) {
    EngineConfig ec;
    ec.workers_per_machine = 2;
    ec.buffer_bytes = 1024;
    ec.reliable_transport = p.reliable;
    if (p.loss_rate > 0.0 || p.corrupt_rate > 0.0) {
      FaultPlan plan;
      plan.seed = 7;
      plan.loss_rate = p.loss_rate;
      plan.loss_classes = kFaultClassAll;
      plan.corrupt_rate = p.corrupt_rate;
      plan.corrupt_classes = kFaultClassAll;
      ec.fault_plan = plan;
    }
    DistributedEngine engine(pg, ec);
    PreparedQuery prepared = engine.prepare(query);
    QueryResult result;
    const double ms = median_ms([&] { result = prepared.run(); }, repeats);
    if (p.loss_rate == 0.0 && p.corrupt_rate == 0.0 && !p.reliable) {
      base_ms = ms;
    }
    std::printf(
        "%-14s %12.2f %8llu %8llu %8llu %8llu %8llu", p.label, ms,
        static_cast<unsigned long long>(result.stats.retransmits),
        static_cast<unsigned long long>(result.stats.acks_sent),
        static_cast<unsigned long long>(
            result.stats.payload_corruptions_detected),
        static_cast<unsigned long long>(result.stats.dedup_drops),
        static_cast<unsigned long long>(result.count));
    if (base_ms > 0.0 && ms != base_ms) {
      std::printf("   (%.2fx)", ms / base_ms);
    }
    std::printf("\n");
  }
  std::printf(
      "\n(\"plain\" is the pre-§13 fabric; \"reliable-0%%\" arms sequence "
      "stamps, CRCs, and the unacked ring with nothing ever lost — its "
      "ratio is the overhead budget (target <= 1.05x). Every lossy row "
      "must still produce the same count: corruption is detected by "
      "checksum and re-sent, loss is re-sent on the retransmit timer.)\n");
  return 0;
}
