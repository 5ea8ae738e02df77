// Tracing/profiling layer overhead (§8 of DESIGN.md).
//
// Two contracts the per-query profiler must hold before it can stay
// compiled into the engine:
//   (a) disabled profiling costs one predictable branch per hook
//       (`worker.prof == nullptr`) and performs zero profile
//       allocations — the acceptance bar is <= 2% slowdown vs a build
//       that never had the hooks (measured here as off-vs-off noise plus
//       the off-vs-on delta staying in single-digit percent);
//   (b) enabled profiling stays cheap enough for always-on use in the
//       bench suite (per-worker flat grids, no locks, merge post-join).
#include <cstdio>

#include "bench_util.h"
#include "runtime/profile.h"

int main() {
  using namespace rpqd;
  using namespace rpqd::bench;

  const auto cfg = bench_ldbc_config();
  const int repeats = bench_repeats();
  print_header("Tracing/profiling layer overhead");
  ldbc::LdbcStats gstats;
  auto shared_graph =
      std::make_shared<const Graph>(ldbc::generate_ldbc(cfg, &gstats));
  std::printf(
      "LDBC-like sf=%.2f (%zu vertices), 4 machines, knows{1,2} query\n\n",
      cfg.scale_factor, gstats.total_vertices);
  auto pg = std::make_shared<const PartitionedGraph>(shared_graph, 4);

  const std::string query =
      "SELECT COUNT(*) FROM MATCH (p1:Person) -/:knows{1,2}/- (p2:Person)";

  std::printf("%-10s %12s %14s %14s %8s\n", "profiling", "latency(ms)",
              "contexts", "prof-allocs", "count");
  double off_ms = 0.0;
  for (const bool profiling : {false, true}) {
    EngineConfig ec;
    ec.workers_per_machine = 2;
    ec.buffer_bytes = 1024;
    ec.profile = profiling;
    DistributedEngine engine(pg, ec);
    PreparedQuery prepared = engine.prepare(query);
    QueryResult result;
    const std::uint64_t allocs_before = profile_allocations();
    const double ms = median_ms([&] { result = prepared.run(); }, repeats);
    const std::uint64_t allocs = profile_allocations() - allocs_before;
    if (!profiling) off_ms = ms;
    std::printf("%-10s %12.2f %14llu %14llu %8llu", profiling ? "on" : "off",
                ms,
                static_cast<unsigned long long>(
                    profiling ? result.profile.total_contexts() : 0),
                static_cast<unsigned long long>(allocs),
                static_cast<unsigned long long>(result.count));
    if (profiling && off_ms > 0.0) {
      std::printf("   (%.2fx)", ms / off_ms);
    }
    std::printf("\n");
    if (!profiling && allocs != 0) {
      std::printf("ERROR: disabled profiling performed %llu allocations\n",
                  static_cast<unsigned long long>(allocs));
      return 1;
    }
  }
  std::printf(
      "\n(\"off\" is the production default: worker.prof stays null, every "
      "hook is one never-taken branch, and profile_allocations() must not "
      "move — the run fails hard if it does)\n");
  return 0;
}
