// Tests for the extension features (the paper's stated future work) and
// regression tests for subtle engine bugs found during development.
#include <gtest/gtest.h>

#include "api/reach_graph.h"
#include "api/rpqd.h"
#include "baseline/reference.h"
#include "ldbc/generator.h"
#include "ldbc/schema.h"
#include "ldbc/synthetic.h"
#include "net/network.h"
#include "rpq/reach_index.h"

namespace rpqd {
namespace {

// ------------------------- index preallocation (§4.5 future work) ------

TEST(IndexPrealloc, SemanticsIdenticalToLazy) {
  ReachabilityIndex lazy(64, false);
  ReachabilityIndex eager(64, true);
  for (std::uint64_t i = 0; i < 500; ++i) {
    const auto v = static_cast<LocalVertexId>(i % 64);
    const auto rpid = (i * 7) % 50;
    const auto depth = static_cast<Depth>(i % 5);
    EXPECT_EQ(lazy.check_and_update(v, rpid, depth),
              eager.check_and_update(v, rpid, depth))
        << i;
  }
  EXPECT_EQ(lazy.stats().entries, eager.stats().entries);
  EXPECT_EQ(lazy.stats().eliminated, eager.stats().eliminated);
  EXPECT_EQ(lazy.stats().duplicated, eager.stats().duplicated);
}

TEST(IndexPrealloc, EngineResultsUnchanged) {
  EngineConfig cfg;
  cfg.workers_per_machine = 2;
  Database lazy(synthetic::make_complete(6), 3, cfg);
  cfg.reach_index_preallocate = true;
  Database eager(synthetic::make_complete(6), 3, cfg);
  const std::string q = "SELECT COUNT(*) FROM MATCH (a) -/:edge{1,3}/-> (b)";
  const auto r1 = lazy.query(q);
  const auto r2 = eager.query(q);
  EXPECT_EQ(r1.count, r2.count);
  EXPECT_EQ(r1.stats.rpq[0].index_entries, r2.stats.rpq[0].index_entries);
}

// ------------------------- FIFO pickup ablation (§3.2) -----------------

TEST(MessagePriority, FifoModePopsInArrivalOrder) {
  Network net(1);
  net.inbox(0).set_deep_priority(false);
  for (Depth d : {1u, 5u, 3u}) {
    Message m;
    m.header.type = MessageType::kData;
    m.header.stage = 2;
    m.header.depth = d;
    m.header.count = 1;
    net.send(0, std::move(m));
  }
  EXPECT_EQ(net.inbox(0).try_pop_data(net.stats())->header.depth, 1u);
  EXPECT_EQ(net.inbox(0).try_pop_data(net.stats())->header.depth, 5u);
  EXPECT_EQ(net.inbox(0).try_pop_data(net.stats())->header.depth, 3u);
}

TEST(MessagePriority, PriorityModeBreaksTiesFifo) {
  Network net(1);
  // Same depth/stage: arrival order must be preserved... observable via
  // payload size.
  for (std::size_t bytes : {10u, 20u, 30u}) {
    Message m;
    m.header.type = MessageType::kData;
    m.header.stage = 1;
    m.header.depth = 2;
    m.header.count = 1;
    m.payload.resize(bytes);
    net.send(0, std::move(m));
  }
  EXPECT_EQ(net.inbox(0).try_pop_data(net.stats())->payload.size(), 10u);
  EXPECT_EQ(net.inbox(0).try_pop_data(net.stats())->payload.size(), 20u);
  EXPECT_EQ(net.inbox(0).try_pop_data(net.stats())->payload.size(), 30u);
}

TEST(MessagePriority, EngineResultsUnchangedInFifoMode) {
  EngineConfig cfg;
  cfg.workers_per_machine = 2;
  cfg.buffer_bytes = 256;
  Database deep(synthetic::make_tree(3, 4), 4, cfg);
  cfg.deep_message_priority = false;
  Database fifo(synthetic::make_tree(3, 4), 4, cfg);
  const std::string q =
      "SELECT COUNT(*) FROM MATCH (c) -/:replyOf*/-> (r)";
  EXPECT_EQ(deep.query(q).count, fifo.query(q).count);
}

// ------------------------- reachability-graph materialization (§5) -----

TEST(ReachGraph, RebuildRoundTrips) {
  ldbc::LdbcConfig cfg;
  cfg.scale_factor = 0.03;
  const Graph original = ldbc::generate_ldbc(cfg);
  const Graph copy = std::move(rebuild_graph(original)).build();
  ASSERT_EQ(copy.num_vertices(), original.num_vertices());
  ASSERT_EQ(copy.num_edges(), original.num_edges());
  const auto age = *original.catalog().find_property(ldbc::kAge);
  const auto cage = *copy.catalog().find_property(ldbc::kAge);
  for (VertexId v = 0; v < original.num_vertices(); ++v) {
    EXPECT_EQ(copy.catalog().vertex_label_name(copy.label(v)),
              original.catalog().vertex_label_name(original.label(v)));
    EXPECT_EQ(copy.out().degree(v), original.out().degree(v));
    EXPECT_EQ(copy.in().degree(v), original.in().degree(v));
    EXPECT_EQ(copy.property(v, cage).bits, original.property(v, age).bits);
  }
}

TEST(ReachGraph, RebuildPreservesEdgeProperties) {
  GraphBuilder b;
  b.add_vertex("N");
  b.add_vertex("N");
  const EdgeId e = b.add_edge(0, 1, "t");
  b.set_edge_property(e, b.catalog().property("w", ValueType::kInt),
                      int_value(9));
  const Graph g = std::move(b).build();
  const Graph copy = std::move(rebuild_graph(g)).build();
  const auto w = *copy.catalog().find_property("w");
  const auto [begin, end] = copy.out().range(0);
  ASSERT_EQ(end - begin, 1u);
  EXPECT_EQ(as_int(copy.out().edge_property(begin, w)), 9);
}

TEST(ReachGraph, MaterializedEdgesReplaceRpq) {
  EngineConfig cfg;
  cfg.workers_per_machine = 2;
  Database db(synthetic::make_chain(10), 3, cfg);
  const auto expected =
      db.query("SELECT COUNT(*) FROM MATCH (a) -/:next{1,3}/-> (b)").count;
  Graph expanded = materialize_reachability(
      db, "SELECT id(a), id(b) FROM MATCH (a) -/:next{1,3}/-> (b)", "hop13");
  Database db2(std::move(expanded), 3, cfg);
  // The fixed-pattern query over the materialized label matches the RPQ.
  EXPECT_EQ(db2.query("SELECT COUNT(*) FROM MATCH (a) -[:hop13]-> (b)").count,
            expected);
  // And RPQs over the materialized label compose (2 applications of
  // {1,3} = {2,6} over the base label).
  const auto composed =
      db2.query("SELECT COUNT(*) FROM MATCH (a) -/:hop13{2}/-> (b)").count;
  const auto direct =
      db.query("SELECT COUNT(*) FROM MATCH (a) -/:next{2,6}/-> (b)").count;
  EXPECT_EQ(composed, direct);
}

TEST(ReachGraph, RejectsBadProjections) {
  EngineConfig cfg;
  Database db(synthetic::make_chain(4), 2, cfg);
  EXPECT_THROW(materialize_reachability(
                   db, "SELECT id(a) FROM MATCH (a) -[:next]-> (b)", "x"),
               QueryError);
  EXPECT_THROW(
      materialize_reachability(
          db, "SELECT a.id, label(b) FROM MATCH (a) -[:next]-> (b)", "x"),
      QueryError);
}


// ------------------------- prepared queries + EXPLAIN ANALYZE ----------

TEST(PreparedQuery, RunsRepeatedlyWithoutRecompilation) {
  EngineConfig cfg;
  cfg.workers_per_machine = 2;
  Database db(synthetic::make_chain(8), 3, cfg);
  auto prepared =
      db.prepare("SELECT COUNT(*) FROM MATCH (a) -/:next{1,2}/-> (b)");
  EXPECT_NE(prepared.explain().find("rpq-control"), std::string::npos);
  const auto first = prepared.run().count;
  EXPECT_EQ(first, 7u + 6u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(prepared.run().count, first);
  }
}

TEST(StageBreakdown, VisitsAndRemoteCountsPopulated) {
  EngineConfig cfg;
  cfg.workers_per_machine = 2;
  cfg.buffer_bytes = 128;  // force remote traffic
  Database db(synthetic::make_chain(12), 4, cfg);
  const auto r =
      db.query("SELECT COUNT(*) FROM MATCH (a) -/:next+/-> (b)");
  ASSERT_EQ(r.stats.stages.size(), 5u);
  // Stage 0 (start) is entered once per vertex.
  EXPECT_EQ(r.stats.stages[0].visits, 12u);
  // The control stage sees one visit per (source, depth) match.
  std::uint64_t control_visits = 0;
  for (const auto& row : r.stats.stages) {
    if (row.note.find("rpq_control") != std::string::npos) {
      control_visits = row.visits;
    }
  }
  EXPECT_GT(control_visits, 0u);
  // Remote counters balance: everything sent was processed.
  std::uint64_t in = 0;
  std::uint64_t out = 0;
  for (const auto& row : r.stats.stages) {
    in += row.remote_in;
    out += row.remote_out;
  }
  EXPECT_EQ(in, out);
  EXPECT_GT(out, 0u);  // 4 machines: some hops must have been remote
  // The rendered table mentions every stage note.
  const std::string table = r.stats.stage_table();
  for (const auto& row : r.stats.stages) {
    EXPECT_NE(table.find(row.note), std::string::npos) << table;
  }
}

// ------------------------- regressions ---------------------------------

// Regression: macro-variable slots written by a deeper RPQ iteration must
// be restored on backtrack (per-depth slot shadowing). Minimal graph from
// the original failure: after descending 3->0->1 and backtracking, the
// filter for 3->4 must see x=3's weight again, not x=0's.
TEST(Regression, PathStageSlotShadowing) {
  GraphBuilder b;
  const std::int64_t weights[] = {56, 84, 31, 1, 37};
  for (int i = 0; i < 5; ++i) {
    const VertexId v = b.add_vertex("N");
    b.set_property(v, "weight", int_value(weights[i]));
    b.set_property(v, "id", int_value(i));
  }
  b.add_edge(0, 1, "e");
  b.add_edge(2, 0, "e");
  b.add_edge(2, 0, "e");
  b.add_edge(3, 0, "e");
  b.add_edge(3, 4, "e");
  b.add_edge(4, 0, "e");
  b.add_edge(4, 2, "e");
  const std::string q =
      "PATH up AS (x) -[:e]-> (y) WHERE x.weight <= y.weight "
      "SELECT COUNT(*) FROM MATCH (a) -/:up+/-> (b)";
  const Graph base = std::move(b).build();
  for (unsigned machines : {1u, 2u, 5u}) {
    Database db(std::move(rebuild_graph(base)).build(), machines);
    EXPECT_EQ(db.query(q).count, 8u) << machines << " machines";
  }
}

// Regression: a control frame must record its save-stack window; popping
// it used to truncate ancestors' shadowed slots (the saved_base bug).
TEST(Regression, ControlFramePreservesSaveStack) {
  GraphBuilder b;
  for (int i = 0; i < 3; ++i) {
    const VertexId v = b.add_vertex("N");
    b.set_property(v, "id", int_value(i));
  }
  b.add_edge(0, 1, "e");
  b.add_edge(0, 2, "e");
  b.add_edge(1, 0, "e");
  b.add_edge(1, 2, "e");
  b.add_edge(2, 0, "e");
  const std::string q =
      "SELECT COUNT(*) FROM MATCH (a) -/:e{1,2}/-> (b), (a) -/:e{2,3}/-> "
      "(b)";
  Graph oracle = std::move(rebuild_graph(std::move(b).build())).build();
  const auto expected = baseline::reference_evaluate(q, oracle).count;
  Database db(std::move(rebuild_graph(oracle)).build(), 1);
  EXPECT_EQ(db.query(q).count, expected);
}

}  // namespace
}  // namespace rpqd
