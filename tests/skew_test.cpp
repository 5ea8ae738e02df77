// Skew-aware load balancing (DESIGN.md §14): PartitionMap routing,
// hot-vertex replication (delegated fan-out) exactness under fault
// schedules, mirror coherence across online updates, the profile-driven
// Repartitioner, the flush-ordering invariant, the skew regression corpus
// (tests/corpus/skew), and the rebuild-vs-query race stress.
//
// The contract under test everywhere: installing a hot set or a
// repartitioned map changes WHERE work runs, never WHAT the query
// returns — every run is checked against baseline::reference_evaluate on
// the exact snapshot it pinned.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/rpqd.h"
#include "baseline/reference.h"
#include "graph/repartition.h"
#include "ldbc/synthetic.h"
#include "reconcile.h"

#ifndef RPQD_SKEW_CORPUS_DIR
#error "RPQD_SKEW_CORPUS_DIR must point at tests/corpus/skew"
#endif

namespace rpqd {
namespace {

EngineConfig small_config() {
  EngineConfig ec;
  ec.workers_per_machine = 2;
  ec.buffers_per_machine = 48;
  ec.buffer_bytes = 256;
  return ec;
}

LabelId elabel(const Database& db, const char* name) {
  const auto id = db.graph().catalog().find_edge_label(name);
  EXPECT_TRUE(id.has_value()) << "unknown edge label " << name;
  return id.value_or(0);
}

std::vector<std::uint64_t> split_numbers(const std::string& spec) {
  std::vector<std::uint64_t> out;
  std::istringstream in(spec);
  std::string field;
  in.ignore(static_cast<std::streamsize>(spec.find(':')) + 1);
  while (std::getline(in, field, ':')) out.push_back(std::stoull(field));
  return out;
}

Graph make_graph(const std::string& spec) {
  const std::string kind = spec.substr(0, spec.find(':'));
  const auto args = split_numbers(spec);
  if (kind == "chain") return synthetic::make_chain(args.at(0));
  if (kind == "cycle") return synthetic::make_cycle(args.at(0));
  if (kind == "complete") return synthetic::make_complete(args.at(0));
  if (kind == "tree") {
    return synthetic::make_tree(static_cast<unsigned>(args.at(0)),
                                static_cast<unsigned>(args.at(1)));
  }
  if (kind == "random") {
    synthetic::RandomGraphConfig cfg;
    cfg.num_vertices = args.at(0);
    cfg.num_edges = args.at(1);
    cfg.num_vertex_labels = static_cast<unsigned>(args.at(2));
    cfg.num_edge_labels = static_cast<unsigned>(args.at(3));
    cfg.allow_self_loops = args.at(4) != 0;
    cfg.seed = args.at(5);
    return synthetic::make_random(cfg);
  }
  ADD_FAILURE() << "unknown corpus graph spec: " << spec;
  return Graph{};
}

/// The k highest-(out+in)-degree vertices — the natural hot set of a
/// reply-tree root or a random-graph hub.
std::vector<VertexId> top_degree(const Graph& g, std::size_t k) {
  std::vector<VertexId> order(g.num_vertices());
  std::iota(order.begin(), order.end(), VertexId{0});
  std::sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    const auto da = g.out().degree(a) + g.in().degree(a);
    const auto db = g.out().degree(b) + g.in().degree(b);
    if (da != db) return da > db;
    return a < b;
  });
  if (order.size() > k) order.resize(k);
  return order;
}

/// Adversarial placement: every seed vertex on machine 0 (inserts past
/// the seed still hash). The worst case §14 exists to fix.
std::vector<MachineId> all_on_machine0(const Graph& g) {
  return std::vector<MachineId>(g.num_vertices(), 0);
}

// ------------------------------------------------------ PartitionMap --

TEST(PartitionMap, RoutesThroughExplicitAssignmentWithHashFallback) {
  const PartitionMap map({2, 0, 1, 2}, 3);
  EXPECT_EQ(map.owner(0), 2u);
  EXPECT_EQ(map.owner(1), 0u);
  EXPECT_EQ(map.owner(2), 1u);
  EXPECT_EQ(map.owner(3), 2u);
  // Beyond the vector: identical to the default hash placement, so every
  // machine resolves the same owner from the id alone.
  for (VertexId v = 4; v < 40; ++v) {
    EXPECT_EQ(map.owner(v), Partition::owner(v, 3));
  }
}

TEST(PartitionMap, RejectsOutOfRangeMachine) {
  EXPECT_THROW(PartitionMap({0, 3}, 3), EngineError);
}

TEST(PartitionMap, PartitionedGraphHonorsTheMap) {
  auto g = std::make_shared<const Graph>(synthetic::make_chain(8));
  auto map = std::make_shared<const PartitionMap>(
      std::vector<MachineId>(8, 1), 3);
  const PartitionedGraph pg(g, 3, map);
  EXPECT_EQ(pg.partition(1).num_local(), 8u);
  EXPECT_EQ(pg.partition(0).num_local(), 0u);
  EXPECT_EQ(pg.partition(2).num_local(), 0u);
  for (VertexId v = 0; v < 8; ++v) EXPECT_EQ(pg.owner(v), 1u);
  EXPECT_NE(pg.partition_map(), nullptr);
}

// ------------------------------------------- Database::repartition ----

TEST(Repartition, PreservesResultsAcrossAdoptedMaps) {
  const char* q = "SELECT COUNT(*) FROM MATCH (a:Root) <-/:replyOf+/- (b)";
  const Graph oracle = synthetic::make_tree(3, 4);
  const std::uint64_t expected = baseline::reference_evaluate(q, oracle).count;

  Database db(synthetic::make_tree(3, 4), 3, small_config());
  EXPECT_EQ(db.query(q).count, expected);

  // Adversarial: everything on machine 0.
  db.repartition(all_on_machine0(db.graph()));
  EXPECT_EQ(db.query(q).count, expected);

  // Round-robin: maximal spread (and a maximal diff from the last map).
  std::vector<MachineId> rr(db.graph().num_vertices());
  for (std::size_t v = 0; v < rr.size(); ++v) {
    rr[v] = static_cast<MachineId>(v % 3);
  }
  db.repartition(rr);
  EXPECT_EQ(db.query(q).count, expected);
  EXPECT_EQ(db.update_stats().repartitions, 2u);

  // Back to hash via an empty map (everything falls through).
  db.repartition({});
  EXPECT_EQ(db.query(q).count, expected);
}

TEST(Repartition, ComposesWithOnlineUpdates) {
  const char* q = "SELECT COUNT(*) FROM MATCH (a) -/:next+/-> (b)";
  Database db(synthetic::make_chain(6), 3, small_config());
  db.repartition(all_on_machine0(db.graph()));

  UpdateBatch batch;
  batch.edge_inserts.push_back({5, 0, elabel(db, "next")});
  db.apply_update(batch);
  const Graph oracle = *db.materialize_snapshot(db.graph_epoch());
  EXPECT_EQ(db.query(q).count, baseline::reference_evaluate(q, oracle).count);

  // Repartition after the update: the rebuild folds the delta.
  std::vector<MachineId> rr(db.graph().num_vertices());
  for (std::size_t v = 0; v < rr.size(); ++v) {
    rr[v] = static_cast<MachineId>(v % 3);
  }
  db.repartition(rr);
  EXPECT_EQ(db.query(q).count, baseline::reference_evaluate(q, oracle).count);
  EXPECT_EQ(db.graph_epoch(), 1u);  // a repartition keeps the epoch
}

// ------------------------------------- delegated hot-vertex fan-out ----

TEST(HotMirror, DelegatedFanoutIsExactAndCounted) {
  // Hot-root star: one root with many children, children chained so the
  // traversal has depth. All on machine 0 = the worst skew.
  const char* q = "SELECT COUNT(*) FROM MATCH (a:Root) <-/:replyOf+/- (b)";
  const Graph oracle = synthetic::make_tree(8, 2);
  const std::uint64_t expected = baseline::reference_evaluate(q, oracle).count;

  Database db(synthetic::make_tree(8, 2), 3, small_config());
  db.repartition(all_on_machine0(db.graph()));
  db.set_hot_vertices(top_degree(db.graph(), 4));
  EXPECT_EQ(db.hot_vertices().size(), 4u);
  EXPECT_GE(db.update_stats().mirrored_vertices, 4u);

  const QueryResult on = db.query(q);
  EXPECT_EQ(on.count, expected);
  // The root IS hot and its children are re-homed to peers only by
  // hashing... under all-on-0 everything is local, so delegation sends
  // no mirror messages. Spread the children and the fan-out must fire.
  std::vector<MachineId> rr(db.graph().num_vertices());
  for (std::size_t v = 0; v < rr.size(); ++v) {
    rr[v] = static_cast<MachineId>(v % 3);
  }
  db.repartition(rr);
  const QueryResult spread = db.query(q);
  EXPECT_EQ(spread.count, expected);
  EXPECT_GT(spread.stats.mirror_fanouts, 0u);
  EXPECT_GT(spread.stats.mirror_expands, 0u);

  // Disarm by dropping the hot set: identical result, zero mirror traffic.
  db.set_hot_vertices({});
  const QueryResult off = db.query(q);
  EXPECT_EQ(off.count, expected);
  EXPECT_EQ(off.stats.mirror_fanouts, 0u);
  EXPECT_EQ(off.stats.mirror_expands, 0u);
}

TEST(HotMirror, ProfileIdentitiesHoldWithDelegationOn) {
  const char* q =
      "PROFILE SELECT COUNT(*) FROM MATCH (a:Root) <-/:replyOf*/- (b)";
  Database db(synthetic::make_tree(6, 3), 4, small_config());
  db.set_hot_vertices(top_degree(db.graph(), 8));
  const QueryResult r = db.query(q);
  // The §10 reconciliation identities must survive delegation: a mirror
  // message is a context on both ends, attributed to its source stage,
  // and the per-machine §14 counters fold to the stats.
  expect_reconciled(r, "tree:6:3 hot mirrors");
  // The text report carries the §14 balance line whenever work ran.
  EXPECT_NE(r.profile.text().find("balance: contexts"), std::string::npos);
}

TEST(HotMirror, EdgePropertyHopsDelegate) {
  // Edge-property *stores* travel with the mirror buckets; only hops
  // with edge *filters* must stay owner-local. A plain labelled hop over
  // a mirrored hub must stay exact.
  const char* q = "SELECT COUNT(*) FROM MATCH (a) -/:e0{1,3}/-> (b)";
  synthetic::RandomGraphConfig cfg;
  cfg.num_vertices = 30;
  cfg.num_edges = 120;
  cfg.num_vertex_labels = 2;
  cfg.num_edge_labels = 2;
  cfg.seed = 7;
  const Graph oracle = synthetic::make_random(cfg);
  const std::uint64_t expected = baseline::reference_evaluate(q, oracle).count;
  Database db(synthetic::make_random(cfg), 3, small_config());
  db.set_hot_vertices(top_degree(db.graph(), 6));
  EXPECT_EQ(db.query(q).count, expected);
}

TEST(HotMirror, ExactUnderEveryFaultSchedule) {
  const char* q = "SELECT COUNT(*) FROM MATCH (a:Root) <-/:replyOf+/- (b)";
  const Graph oracle = synthetic::make_tree(5, 3);
  const std::uint64_t expected = baseline::reference_evaluate(q, oracle).count;
  for (const auto& schedule : FaultPlan::schedule_names()) {
    SCOPED_TRACE("schedule=" + schedule);
    Database db(synthetic::make_tree(5, 3), 3, small_config());
    db.set_hot_vertices(top_degree(db.graph(), 4));
    db.set_fault_schedule(schedule, 11);
    // crash-stop / lossy-chaos arm a one-shot machine crash; the retry
    // runs against a healthy cluster and must be exact (the existing
    // loss-harness convention).
    const bool crashes = schedule == "crash-stop" || schedule == "lossy-chaos";
    const QueryResult r = crashes ? db.run_with_retry(q) : db.query(q);
    ASSERT_FALSE(r.aborted) << "run aborted under " << schedule;
    EXPECT_EQ(r.count, expected);
    EXPECT_EQ(r.stats.flow_outstanding, 0u);
  }
}

// --------------------------------------- mirror coherence (updates) ----

TEST(MirrorCoherence, DroppingTheHotSetDetachesEveryView) {
  // Regression: the mirror-free clone copied its views from the mirrored
  // snapshot and kept their pointers to a MirrorSet only that older
  // snapshot owned, so a query pinning the clone read freed memory once
  // the older snapshot was released (SkewStress crashed intermittently).
  auto graph = std::make_shared<const Graph>(synthetic::make_tree(4, 4));
  GraphStore store(std::make_shared<const PartitionedGraph>(graph, 3));
  store.set_hot_set(top_degree(*graph, 2));
  ASSERT_NE(store.snapshot()->view(0).mirrors(), nullptr);
  store.set_hot_set({});
  const auto snap = store.snapshot();
  EXPECT_EQ(snap->mirror_set(), nullptr);
  for (MachineId m = 0; m < 3; ++m) {
    EXPECT_EQ(snap->view(m).mirrors(), nullptr) << "machine " << int{m};
  }
}

TEST(MirrorCoherence, UpdatesOnAMirroredVertexRebuildItsMirrors) {
  // Insert and delete edges ON the mirrored hot vertex across epochs;
  // each epoch's query must match the reference on that exact epoch —
  // a stale mirror bucket would double- or under-count.
  const char* q = "SELECT COUNT(*) FROM MATCH (a) -/:next+/-> (b)";
  Database db(synthetic::make_chain(8), 3, small_config());
  db.set_hot_vertices({0, 1});
  const std::uint64_t rebuilds0 = db.update_stats().mirror_rebuilds;

  UpdateBatch grow;
  grow.edge_inserts.push_back({7, 0, elabel(db, "next")});  // onto hot 0
  grow.edge_inserts.push_back({1, 4, elabel(db, "next")});  // out of hot 1
  db.apply_update(grow);
  EXPECT_GT(db.update_stats().mirror_rebuilds, rebuilds0);
  {
    const Graph oracle = *db.materialize_snapshot(db.graph_epoch());
    EXPECT_EQ(db.query(q).count,
              baseline::reference_evaluate(q, oracle).count);
  }

  UpdateBatch shrink;
  shrink.edge_deletes.push_back({0, 1, elabel(db, "next")});
  db.apply_update(shrink);
  {
    const Graph oracle = *db.materialize_snapshot(db.graph_epoch());
    EXPECT_EQ(db.query(q).count,
              baseline::reference_evaluate(q, oracle).count);
  }

  // Deleting a hot vertex drops it from the mirrors entirely.
  UpdateBatch drop;
  drop.vertex_deletes.push_back({1});
  db.apply_update(drop);
  {
    const Graph oracle = *db.materialize_snapshot(db.graph_epoch());
    EXPECT_EQ(db.query(q).count,
              baseline::reference_evaluate(q, oracle).count);
  }
}

TEST(MirrorCoherence, UpdatesOffTheHotSetLeaveMirrorsAlone) {
  Database db(synthetic::make_chain(10), 3, small_config());
  db.set_hot_vertices({0});
  const std::uint64_t rebuilds0 = db.update_stats().mirror_rebuilds;
  UpdateBatch far;
  far.edge_inserts.push_back({8, 5, elabel(db, "next")});
  db.apply_update(far);
  // A dirty scope disjoint from the hot set must not rebuild mirrors.
  EXPECT_EQ(db.update_stats().mirror_rebuilds, rebuilds0);
}

// ------------------------------------------------ the repartitioner ----

TEST(Repartitioner, ProposalBalancesAnAdversarialPlacement) {
  auto graph = std::make_shared<const Graph>(synthetic::make_tree(4, 4));
  auto skewed = std::make_shared<const PartitionMap>(
      std::vector<MachineId>(graph->num_vertices(), 0), 4);
  Repartitioner rep(graph, 4, skewed);
  // Observed load: everything on machine 0 (matching the placement).
  rep.observe({5000, 0, 0, 0});
  EXPECT_EQ(rep.observations(), 1u);

  const RepartitionPlan plan = rep.propose();
  EXPECT_EQ(plan.assignment.size(), graph->num_vertices());
  // All cost sat on machine 0: current imbalance is the worst case.
  EXPECT_NEAR(plan.current_imbalance, 4.0, 0.01);
  EXPECT_LT(plan.predicted_imbalance, 1.5);
  EXPECT_GT(plan.moved_vertices, 0u);
}

TEST(Repartitioner, HotSetRanksByDegreeAndRespectsFloor) {
  // A star: the root's fan-in of 6 dominates the leaves' degree of 1.
  auto graph = std::make_shared<const Graph>(synthetic::make_tree(6, 1));
  Repartitioner rep(graph, 3);
  const auto hot = rep.propose_hot_set(3, 2);
  ASSERT_FALSE(hot.empty());
  EXPECT_LE(hot.size(), 3u);
  EXPECT_EQ(hot.front(), 0u);
  for (const VertexId v : hot) {
    EXPECT_GE(graph->out().degree(v) + graph->in().degree(v), 2u);
  }
  // A min_degree above every vertex yields nothing.
  EXPECT_TRUE(rep.propose_hot_set(8, 1000).empty());
}

TEST(Repartitioner, ClosedLoopImprovesBalanceEndToEnd) {
  // The full §14 loop: run skewed, profile, propose, adopt, re-run —
  // the measured per-machine context spread must tighten.
  const char* q =
      "PROFILE SELECT COUNT(*) FROM MATCH (a:Root) <-/:replyOf*/- (b)";
  EngineConfig ec = small_config();
  Database db(synthetic::make_tree(4, 5), 4, ec);
  db.repartition(all_on_machine0(db.graph()));
  const QueryResult skewed = db.query(q);
  const double imbalance_before = skewed.stats.load_imbalance;
  EXPECT_GT(imbalance_before, 3.0);  // everything on one of 4 machines

  auto graph = db.materialize_snapshot(db.graph_epoch());
  auto current = std::make_shared<const PartitionMap>(
      all_on_machine0(*graph), 4);
  Repartitioner rep(graph, 4, current);
  rep.observe(skewed.stats.machine_contexts);
  const RepartitionPlan plan = rep.propose();
  db.repartition(plan.assignment);

  const QueryResult balanced = db.query(q);
  EXPECT_EQ(balanced.count, skewed.count);
  EXPECT_LT(balanced.stats.load_imbalance, imbalance_before / 2.0);
}

// ------------------------------------------------- load-aware flush ----

TEST(LoadAwareFlush, OrderingOnlyNeverChangesResults) {
  // Outboxes flush in arrival order; how much each machine's inbox holds
  // when they do depends on placement. Neither may change the answer: an
  // alternation closure at 4 machines, re-asked on the same Database,
  // then re-asked with every vertex (and so all queue load) on machine 0.
  const char* q = "SELECT COUNT(*) FROM MATCH (a) -/:e0|e1*/-> (b)";
  synthetic::RandomGraphConfig cfg;
  cfg.num_vertices = 24;
  cfg.num_edges = 70;
  cfg.num_edge_labels = 2;
  cfg.seed = 13;
  const Graph oracle = synthetic::make_random(cfg);
  const std::uint64_t expected = baseline::reference_evaluate(q, oracle).count;
  Database db(synthetic::make_random(cfg), 4, small_config());
  EXPECT_EQ(db.query(q).count, expected);
  EXPECT_EQ(db.query(q).count, expected);
  db.repartition(all_on_machine0(db.graph()));
  EXPECT_EQ(db.query(q).count, expected);
}

// ------------------------------------------------------ skew corpus ----

struct SkewCorpusEntry {
  std::string graph_spec;
  unsigned machines = 1;
  std::string schedule;
  std::uint64_t fault_seed = 0;
  std::string hot_spec;   // hot:<k> | none
  std::string part_spec;  // all0 | hash
  std::string batch;      // mid-query update ops, or "-"
  std::string query;
  std::string source;
};

std::vector<SkewCorpusEntry> load_skew_corpus() {
  std::vector<SkewCorpusEntry> entries;
  for (const auto& file :
       std::filesystem::directory_iterator(RPQD_SKEW_CORPUS_DIR)) {
    if (file.path().extension() != ".txt") continue;
    std::ifstream in(file.path());
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
      ++lineno;
      if (line.empty() || line[0] == '#') continue;
      const auto bar1 = line.find('|');
      const auto bar2 = line.find('|', bar1 + 1);
      if (bar1 == std::string::npos || bar2 == std::string::npos) {
        ADD_FAILURE() << "malformed corpus line " << file.path() << ":"
                      << lineno;
        continue;
      }
      SkewCorpusEntry e;
      std::istringstream head(line.substr(0, bar1));
      head >> e.graph_spec >> e.machines >> e.schedule >> e.fault_seed >>
          e.hot_spec >> e.part_spec;
      if (head.fail()) {
        ADD_FAILURE() << "malformed corpus line " << file.path() << ":"
                      << lineno;
        continue;
      }
      e.batch = line.substr(bar1 + 1, bar2 - bar1 - 1);
      e.batch.erase(0, e.batch.find_first_not_of(' '));
      e.batch.erase(e.batch.find_last_not_of(' ') + 1);
      e.query = line.substr(bar2 + 1);
      e.query.erase(0, e.query.find_first_not_of(' '));
      e.source =
          file.path().filename().string() + ":" + std::to_string(lineno);
      entries.push_back(std::move(e));
    }
  }
  return entries;
}

UpdateBatch parse_batch(const Database& db, const std::string& text) {
  UpdateBatch batch;
  std::istringstream in(text);
  std::string op;
  while (std::getline(in, op, ';')) {
    op.erase(0, op.find_first_not_of(" \t"));
    op.erase(op.find_last_not_of(" \t") + 1);
    if (op.empty()) continue;
    std::istringstream fields(op.substr(3));
    std::string a, b, c;
    std::getline(fields, a, ':');
    std::getline(fields, b, ':');
    std::getline(fields, c, ':');
    if (op.rfind("ae:", 0) == 0) {
      batch.edge_inserts.push_back(
          {std::stoull(a), std::stoull(b), elabel(db, c.c_str())});
    } else if (op.rfind("de:", 0) == 0) {
      batch.edge_deletes.push_back(
          {std::stoull(a), std::stoull(b), elabel(db, c.c_str())});
    } else if (op.rfind("dv:", 0) == 0) {
      batch.vertex_deletes.push_back({std::stoull(a)});
    } else {
      ADD_FAILURE() << "unknown corpus batch op: " << op;
    }
  }
  return batch;
}

TEST(SkewCorpusReplay, BalancedRunsMatchTheOracleAndTheUnbalancedRuns) {
  const auto entries = load_skew_corpus();
  ASSERT_FALSE(entries.empty()) << "skew corpus empty: "
                                << RPQD_SKEW_CORPUS_DIR;
  for (const auto& e : entries) {
    SCOPED_TRACE(e.source + " query=" + e.query);
    const Graph oracle = make_graph(e.graph_spec);
    const std::uint64_t expected =
        baseline::reference_evaluate(e.query, oracle).count;

    // Run the same line without a hot set and with it installed (which
    // arms delegation); both must match the oracle (and hence each other)
    // under the fault schedule.
    std::uint64_t counts[2] = {0, 0};
    for (const bool armed : {false, true}) {
      Database db(make_graph(e.graph_spec), e.machines, small_config());
      if (e.part_spec == "all0") {
        db.repartition(all_on_machine0(db.graph()));
      } else if (e.part_spec != "hash") {
        FAIL() << "unknown part spec " << e.part_spec;
      }
      if (e.hot_spec.rfind("hot:", 0) == 0) {
        if (armed) {
          db.set_hot_vertices(
              top_degree(db.graph(), std::stoull(e.hot_spec.substr(4))));
        }
      } else if (e.hot_spec != "none") {
        FAIL() << "unknown hot spec " << e.hot_spec;
      }
      db.set_fault_schedule(e.schedule, e.fault_seed);

      if (e.batch != "-") {
        // Mirror-invalidation-mid-query: fire the query async, land an
        // update touching the hot set while it may be in flight, then
        // check against the epoch the query actually pinned.
        QueryTicket ticket = db.submit(e.query);
        db.apply_update(parse_batch(db, e.batch));
        const QueryResult r = db.await(ticket);
        ASSERT_FALSE(r.aborted) << "corpus run aborted";
        const Graph pinned =
            *db.materialize_snapshot(r.stats.snapshot_epoch);
        EXPECT_EQ(r.count,
                  baseline::reference_evaluate(e.query, pinned).count);
        // And a fresh query on the post-update epoch must be exact too
        // (the mirrors were rebuilt under the query's feet).
        const Graph post = *db.materialize_snapshot(db.graph_epoch());
        counts[armed] = db.query(e.query).count;
        EXPECT_EQ(counts[armed],
                  baseline::reference_evaluate(e.query, post).count);
      } else {
        // lossy-chaos arms a one-shot crash; retry against the healthy
        // cluster must be exact (the loss-corpus convention).
        const QueryResult r = e.schedule == "lossy-chaos"
                                  ? db.run_with_retry(e.query)
                                  : db.query(e.query);
        ASSERT_FALSE(r.aborted) << "corpus run aborted";
        EXPECT_EQ(r.count, expected);
        EXPECT_EQ(r.stats.flow_outstanding, 0u);
        counts[armed] = r.count;
      }
    }
    EXPECT_EQ(counts[0], counts[1]);
  }
}

// ------------------------------------------------------- race stress ----

/// Races hot-set installs, repartitions, updates on mirrored vertices,
/// and queries. Tier-1 runs a short burst; RPQD_TIER2_SKEW=1 scales it
/// up (the tier2-skew-tsan preset is the data-race gate for the mirror
/// rebuild paths).
void run_skew_stress(unsigned rounds) {
  Database db(synthetic::make_tree(4, 4), 3, small_config());
  const char* q = "SELECT COUNT(*) FROM MATCH (a:Root) <-/:replyOf*/- (b)";
  db.set_hot_vertices(top_degree(db.graph(), 4));

  std::atomic<bool> stop{false};
  std::atomic<unsigned> failures{0};
  std::atomic<std::uint64_t> completed{0};
  std::thread mutator([&] {
    const LabelId reply = elabel(db, "replyOf");
    for (unsigned i = 0; i < rounds && !stop.load(); ++i) {
      UpdateBatch grow;  // edges onto the hot root, rebuilt every epoch
      grow.edge_inserts.push_back({1 + (i % 4), 0, reply});
      db.apply_update(grow);
      db.set_hot_vertices(i % 2 == 0 ? top_degree(db.graph(), 2)
                                     : std::vector<VertexId>{});
      if (i % 3 == 0) {
        std::vector<MachineId> rr(db.graph().num_vertices());
        for (std::size_t v = 0; v < rr.size(); ++v) {
          rr[v] = static_cast<MachineId>((v + i) % 3);
        }
        db.repartition(rr);
      }
      UpdateBatch shrink;
      shrink.edge_deletes.push_back({1 + (i % 4), 0, reply});
      db.apply_update(shrink);
      // Force real interleaving: each rebuild round must overlap at
      // least one query, or the race this test exists for never runs.
      const std::uint64_t target = completed.load() + 1;
      while (completed.load() < target && !stop.load()) {
        std::this_thread::yield();
      }
    }
    stop.store(true);
  });
  std::vector<std::thread> askers;
  for (unsigned t = 0; t < 2; ++t) {
    askers.emplace_back([&] {
      while (!stop.load()) {
        const QueryResult r = db.query(q);
        if (r.aborted) {
          ++failures;
          continue;
        }
        const Graph pinned =
            *db.materialize_snapshot(r.stats.snapshot_epoch);
        if (r.count != baseline::reference_evaluate(q, pinned).count) {
          ++failures;
          stop.store(true);
        }
        completed.fetch_add(1);
      }
    });
  }
  mutator.join();
  for (auto& t : askers) t.join();
  EXPECT_EQ(failures.load(), 0u);
}

TEST(SkewStress, RacingRebuildsRepartitionsAndQueries) {
  run_skew_stress(6);
}

TEST(SkewStress, Tier2SkewStress) {
  if (std::getenv("RPQD_TIER2_SKEW") == nullptr) {
    GTEST_SKIP() << "tier-2 scale; set RPQD_TIER2_SKEW=1 (ctest -L "
                    "tier2-skew)";
  }
  run_skew_stress(120);
}

}  // namespace
}  // namespace rpqd
