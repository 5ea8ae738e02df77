// Fault-injection fabric overhead (§7 of DESIGN.md).
//
// Two questions the differential-testing fabric must answer before it
// can stay compiled into the engine:
//   (a) a default (inactive) FaultPlan must cost nothing on the fabric
//       hot path — the `faults_on_` branch is the only tax;
//   (b) each named schedule's slowdown factor, so harness runtimes in
//       EXPERIMENTS.md can be budgeted.
#include <cstdio>

#include "bench_util.h"
#include "common/fault.h"

int main() {
  using namespace rpqd;
  using namespace rpqd::bench;

  const auto cfg = bench_ldbc_config();
  const int repeats = bench_repeats();
  print_header("Fault-injection fabric overhead");
  ldbc::LdbcStats gstats;
  auto shared_graph =
      std::make_shared<const Graph>(ldbc::generate_ldbc(cfg, &gstats));
  std::printf(
      "LDBC-like sf=%.2f (%zu vertices), 4 machines, knows{1,2} query\n\n",
      cfg.scale_factor, gstats.total_vertices);
  auto pg = std::make_shared<const PartitionedGraph>(shared_graph, 4);

  const std::string query =
      "SELECT COUNT(*) FROM MATCH (p1:Person) -/:knows{1,2}/- (p2:Person)";

  std::printf("%-14s %12s %10s %10s %10s %8s\n", "schedule", "latency(ms)",
              "delayed", "dup-inj", "stalls", "count");
  double base_ms = 0.0;
  for (const auto& name : FaultPlan::schedule_names()) {
    EngineConfig ec;
    ec.workers_per_machine = 2;
    ec.buffer_bytes = 1024;
    ec.fault_plan = FaultPlan::named(name, /*seed=*/7);
    DistributedEngine engine(pg, ec);
    PreparedQuery prepared = engine.prepare(query);
    QueryResult result;
    const double ms = median_ms([&] { result = prepared.run(); }, repeats);
    if (name == "none") base_ms = ms;
    std::printf("%-14s %12.2f %10llu %10llu %10llu %8llu", name.c_str(), ms,
                static_cast<unsigned long long>(result.stats.faults_delayed),
                static_cast<unsigned long long>(
                    result.stats.faults_duplicated),
                static_cast<unsigned long long>(result.stats.faults_stalls),
                static_cast<unsigned long long>(result.count));
    if (name != "none" && base_ms > 0.0) {
      std::printf("   (%.2fx)", ms / base_ms);
    }
    std::printf("\n");
  }
  std::printf(
      "\n(\"none\" equals the fault-free fabric: FaultPlan::any() is false, "
      "so push/try_pop_data never reach the fault path; every adversarial "
      "schedule must still produce the same count)\n");
  return 0;
}
