// Skew-aware load balancing A/B (DESIGN.md §14): the table2 Q9 reply
// shape on a deep reply tree, run from an adversarial partition that
// pins every vertex on machine 0, with and without the §14 remedies —
// the profile-driven Repartitioner's proposed map plus hot-vertex
// replication (delegated fan-out). The second
// scenario re-runs the same A/B on the default hash placement, where
// the balancer has nothing to fix: arming it there is pure overhead and
// must stay within the <= 1.05x budget. The third isolates the mirrors
// on the graph they exist for: a few true hubs fanning out to tens of
// thousands of leaves, hash-placed, with the hubs as the hot set and no
// repartition, so the ratio is the delegated fan-out alone.
//
// Methodology: the simulation multiplexes every machine onto one host,
// so wall-clock is sensitive to background load. Samples interleave one
// off-arm and one on-arm execution per round and the headline ratio is
// the MEDIAN OF PER-ROUND RATIOS — paired samples over identical work,
// so drift lands on both arms of each pair alike and cancels.
//
// run_bench_suite carries the 16-machine rows into BENCH_RPQD.json as
// the "skew_balancing" array; this standalone binary adds the
// machine-count axis and the per-arm counter breakdown.
//
// Environment knobs: RPQD_BENCH_REPEATS / RPQD_BENCH_SEED (bench_util.h).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "graph/repartition.h"
#include "ldbc/synthetic.h"

namespace {

using namespace rpqd;
using namespace rpqd::bench;

/// The Q9 reply shape (table2) anchored at the tree root — the
/// hot-root traversal the skew corpus replays.
const char* kQ9 = "SELECT COUNT(*) FROM MATCH (a:Root) <-/:replyOf*/- (b)";

/// One-hop hub fan-out, the shape delegated mirrors cut messages on.
const char* kHubFanout = "SELECT COUNT(*) FROM MATCH (a:Hub) -[:knows]-> (b)";

/// `hubs` Hub vertices (ids 0..hubs-1) and `leaves` Leaf vertices; each
/// leaf is known by two hubs drawn at random, so every hub's out-degree
/// is about 2 * leaves / hubs, spread over all machines by hashing.
Graph make_hub_graph(unsigned hubs, unsigned leaves, std::uint64_t seed) {
  GraphBuilder b;
  for (unsigned h = 0; h < hubs; ++h) b.add_vertex("Hub");
  Rng rng(seed);
  for (unsigned l = 0; l < leaves; ++l) {
    const VertexId leaf = b.add_vertex("Leaf");
    for (int k = 0; k < 2; ++k) {
      b.add_edge(static_cast<VertexId>(rng.next_below(hubs)), leaf, "knows");
    }
  }
  return std::move(b).build();
}

struct AbResult {
  double off_median_ms = 0.0;
  double on_median_ms = 0.0;
  double paired_ratio = 0.0;  // median over rounds of off_i / on_i
  QueryResult off_r, on_r;
};

/// Interleaved A/B: one off sample then one on sample per round. The
/// per-round off/on ratio is the drift-cancelling estimator; the two
/// medians are kept for absolute context.
AbResult ab_run(Database& off, Database& on, const char* q, int rounds) {
  AbResult out;
  std::vector<double> off_s, on_s, ratios;
  for (int r = 0; r < rounds; ++r) {
    Stopwatch t_off;
    out.off_r = off.query(q);
    off_s.push_back(t_off.elapsed_ms());
    Stopwatch t_on;
    out.on_r = on.query(q);
    on_s.push_back(t_on.elapsed_ms());
    if (on_s.back() > 0.0) ratios.push_back(off_s.back() / on_s.back());
  }
  out.off_median_ms = median(off_s);
  out.on_median_ms = median(on_s);
  out.paired_ratio = median(ratios);
  return out;
}

/// The §14 control loop, verbatim: profile one run on the current (bad)
/// map, feed the measured per-machine load to the Repartitioner, adopt
/// its proposed map, and mirror its proposed hot set.
void balance(Database& db, unsigned machines,
             const std::vector<MachineId>& current_map) {
  const QueryResult profiled = db.query("PROFILE " + std::string(kQ9));
  auto graph = db.materialize_snapshot(db.graph_epoch());
  auto current = std::make_shared<const PartitionMap>(current_map, machines);
  Repartitioner rep(graph, machines, current);
  rep.observe(profiled.stats.machine_contexts);
  db.repartition(rep.propose().assignment);
  db.set_hot_vertices(rep.propose_hot_set(/*max_hot=*/64, /*min_degree=*/4));
}

}  // namespace

int main() {
  const int repeats = bench_repeats();
  const Graph g = synthetic::make_tree(8, 6);
  print_header("skew-aware balancing (Q9 reply shape, tree:8:6)");
  std::printf("vertices=%zu repeats=%d\n",
              static_cast<std::size_t>(g.num_vertices()), repeats);
  std::printf("  %-22s %9s %9s %7s %8s %8s\n", "scenario", "off ms", "on ms",
              "ratio", "imb off", "imb on");

  EngineConfig base;
  base.buffers_per_machine = 256;
  bool mismatch = false;

  for (const unsigned machines : {8u, 16u}) {
    // Adversarial: every vertex on machine 0. The off arm stays there;
    // the on arm runs the §14 loop first. Ratio = improvement.
    {
      const std::vector<MachineId> all0(g.num_vertices(), 0);
      Database off_db(g, machines, base);
      off_db.repartition(all0);
      Database on_db(g, machines, base);
      on_db.repartition(all0);
      balance(on_db, machines, all0);

      const AbResult r = ab_run(off_db, on_db, kQ9, repeats);
      std::printf(
          "  skewed/Q9 %2um         %9.2f %9.2f %6.2fx %8.2f %8.2f  "
          "(fanouts %llu, expands %llu)%s\n",
          machines, r.off_median_ms, r.on_median_ms, r.paired_ratio,
          r.off_r.stats.load_imbalance, r.on_r.stats.load_imbalance,
          static_cast<unsigned long long>(r.on_r.stats.mirror_fanouts),
          static_cast<unsigned long long>(r.on_r.stats.mirror_expands),
          r.off_r.count == r.on_r.count ? "" : "  COUNT MISMATCH");
      mismatch |= r.off_r.count != r.on_r.count;
    }

    // Uniform: the default hash placement, degree-ranked hot set.
    // Ratio = arming overhead (budget 1.05x); extra rounds because the
    // acceptance margin is a few percent, not a factor.
    {
      Database off_db(g, machines, base);
      Database on_db(g, machines, base);
      auto graph = on_db.materialize_snapshot(on_db.graph_epoch());
      Repartitioner rep(graph, machines);
      on_db.set_hot_vertices(
          rep.propose_hot_set(/*max_hot=*/64, /*min_degree=*/4));

      const AbResult r =
          ab_run(off_db, on_db, kQ9, std::max(repeats, 9));
      std::printf(
          "  uniform/Q9 %2um        %9.2f %9.2f %6.3fx %8.2f %8.2f  "
          "(overhead, budget 1.05x)%s\n",
          machines, r.off_median_ms, r.on_median_ms,
          r.paired_ratio > 0.0 ? 1.0 / r.paired_ratio : 0.0,
          r.off_r.stats.load_imbalance, r.on_r.stats.load_imbalance,
          r.off_r.count == r.on_r.count ? "" : "  COUNT MISMATCH");
      mismatch |= r.off_r.count != r.on_r.count;
    }
  }

  // Hubs: 16 hubs x 40,000 leaves at 16 machines, off = no hot set,
  // on = the hubs mirrored. Ratio = improvement from delegation alone.
  {
    constexpr unsigned kHubs = 16;
    constexpr unsigned kMachines = 16;
    const Graph hub_graph = make_hub_graph(kHubs, 40000, bench_seed());
    std::vector<VertexId> hot(kHubs);
    for (unsigned h = 0; h < kHubs; ++h) hot[h] = h;
    Database off_db(hub_graph, kMachines, base);
    Database on_db(hub_graph, kMachines, base);
    on_db.set_hot_vertices(hot);

    const AbResult r =
        ab_run(off_db, on_db, kHubFanout, std::max(repeats, 9));
    std::printf(
        "  hubs/fanout %2um       %9.2f %9.2f %6.2fx %8.2f %8.2f  "
        "(count %llu, fanouts %llu, expands %llu)%s\n",
        kMachines, r.off_median_ms, r.on_median_ms, r.paired_ratio,
        r.off_r.stats.load_imbalance, r.on_r.stats.load_imbalance,
        static_cast<unsigned long long>(r.on_r.count),
        static_cast<unsigned long long>(r.on_r.stats.mirror_fanouts),
        static_cast<unsigned long long>(r.on_r.stats.mirror_expands),
        r.off_r.count == r.on_r.count ? "" : "  COUNT MISMATCH");
    mismatch |= r.off_r.count != r.on_r.count;
  }
  return mismatch ? 1 : 0;
}
