// End-to-end tests of the distributed engine on small graphs with
// hand-computed expected results: quantifier semantics, 0-hop matching,
// undirected traversal, cycles, non-linear patterns, cross-filters,
// projections, machine-count invariance, and runtime statistics.
#include <gtest/gtest.h>

#include <algorithm>

#include "api/rpqd.h"
#include "baseline/reference.h"
#include "ldbc/synthetic.h"

namespace rpqd {
namespace {

EngineConfig test_config() {
  EngineConfig cfg;
  cfg.workers_per_machine = 2;
  cfg.buffers_per_machine = 64;
  cfg.buffer_bytes = 512;  // small buffers: force multi-buffer flows
  return cfg;
}

std::uint64_t count(Database& db, const std::string& q) {
  return db.query(q).count;
}

TEST(Engine, ChainUnboundedPlus) {
  Database db(synthetic::make_chain(10), 3, test_config());
  // 9+8+...+1 ordered reachable pairs.
  EXPECT_EQ(count(db, "SELECT COUNT(*) FROM MATCH (a) -/:next+/-> (b)"), 45u);
}

TEST(Engine, DeepChainConsensusDepthMatchesReference) {
  // 320 vertices on 4 machines: every start walks up to 319 hops, so the
  // §3.4 per-depth counters grow through several lane chunks while the
  // walk crosses machines, and the consensus must still land on the
  // deepest depth any machine touched.
  constexpr std::size_t kLength = 320;
  const std::string q =
      "SELECT COUNT(*) FROM MATCH (a:Person) -/:knows+/-> (b:Person)";
  Database db(synthetic::make_chain(kLength, "Person", "knows"), 4,
              test_config());
  const QueryResult r = db.query(q);
  EXPECT_EQ(r.count,
            baseline::reference_evaluate(
                q, synthetic::make_chain(kLength, "Person", "knows"))
                .count);
  EXPECT_EQ(r.count, kLength * (kLength - 1) / 2);
  ASSERT_EQ(r.stats.rpq.size(), 1u);
  const RpqStageStats& rpq = r.stats.rpq[0];
  ASSERT_TRUE(rpq.consensus_max_depth.has_value());
  EXPECT_EQ(*rpq.consensus_max_depth, kLength - 1);
  EXPECT_EQ(rpq.max_depth_observed, kLength - 1);
  EXPECT_EQ(rpq.index_duplicate_entries, 0u);
}

TEST(Engine, ChainStarIncludesZeroHop) {
  Database db(synthetic::make_chain(10), 3, test_config());
  EXPECT_EQ(count(db, "SELECT COUNT(*) FROM MATCH (a) -/:next*/-> (b)"), 55u);
}

TEST(Engine, ChainExactAndRangeQuantifiers) {
  Database db(synthetic::make_chain(10), 2, test_config());
  EXPECT_EQ(count(db, "SELECT COUNT(*) FROM MATCH (a) -/:next{3}/-> (b)"),
            7u);
  EXPECT_EQ(count(db, "SELECT COUNT(*) FROM MATCH (a) -/:next{2,4}/-> (b)"),
            8u + 7u + 6u);
  EXPECT_EQ(count(db, "SELECT COUNT(*) FROM MATCH (a) -/:next{0,1}/-> (b)"),
            10u + 9u);
  EXPECT_EQ(count(db, "SELECT COUNT(*) FROM MATCH (a) -/:next?/-> (b)"),
            19u);
}

TEST(Engine, ChainMinHopUnbounded) {
  Database db(synthetic::make_chain(6), 2, test_config());
  // Pairs at distance >= 3: 3+2+1.
  EXPECT_EQ(count(db, "SELECT COUNT(*) FROM MATCH (a) -/:next{3,}/-> (b)"),
            6u);
}

TEST(Engine, CycleTerminatesAndDedups) {
  Database db(synthetic::make_cycle(5), 3, test_config());
  // Every vertex reaches all 5 (including itself around the loop).
  EXPECT_EQ(count(db, "SELECT COUNT(*) FROM MATCH (a) -/:next+/-> (b)"), 25u);
  EXPECT_EQ(count(db, "SELECT COUNT(*) FROM MATCH (a) -/:next*/-> (b)"), 25u);
}

TEST(Engine, CycleWindowBeyondCycleLength) {
  Database db(synthetic::make_cycle(4), 2, test_config());
  // The only walks of length 5 and 6 from a reach a+1 and a+2 (wrap
  // around the 4-cycle): two destinations per source.
  EXPECT_EQ(count(db, "SELECT COUNT(*) FROM MATCH (a) -/:next{5,6}/-> (b)"),
            8u);
}

TEST(Engine, TreeReachRoot) {
  Database db(synthetic::make_tree(2, 3), 3, test_config());
  EXPECT_EQ(
      count(db, "SELECT COUNT(*) FROM MATCH (c) -/:replyOf+/-> (r:Root)"),
      14u);
  EXPECT_EQ(
      count(db, "SELECT COUNT(*) FROM MATCH (r:Root) <-/:replyOf+/- (c)"),
      14u);
}

TEST(Engine, UndirectedRpq) {
  Database db(synthetic::make_chain(4), 2, test_config());
  // Undirected 1-hop from each vertex: 2*3 ordered adjacent pairs.
  EXPECT_EQ(count(db, "SELECT COUNT(*) FROM MATCH (a) -/:next{1}/- (b)"), 6u);
  // Undirected reachability: everything reaches everything, including
  // itself via a back-and-forth walk of length 2.
  EXPECT_EQ(count(db, "SELECT COUNT(*) FROM MATCH (a) -/:next+/- (b)"), 16u);
}

TEST(Engine, LabelAlternationRpq) {
  GraphBuilder b;
  for (int i = 0; i < 4; ++i) b.add_vertex("N");
  b.add_edge(0, 1, "a");
  b.add_edge(1, 2, "b");
  b.add_edge(2, 3, "a");
  Database db(std::move(b).build(), 2, test_config());
  // a|b chain connects 0->3.
  EXPECT_EQ(count(db, "SELECT COUNT(*) FROM MATCH (x) -/:a|b+/-> (y)"), 6u);
  EXPECT_EQ(count(db, "SELECT COUNT(*) FROM MATCH (x) -/:a+/-> (y)"), 2u);
}

TEST(Engine, FixedPatternsAndEdgeHop) {
  Database db(synthetic::make_complete(4), 3, test_config());
  EXPECT_EQ(count(db, "SELECT COUNT(*) FROM MATCH (a) -[:edge]-> (b)"), 12u);
  // Triangles as non-linear pattern: 4*3*2 ordered.
  EXPECT_EQ(count(db,
                  "SELECT COUNT(*) FROM MATCH (a)-[:edge]->(b)-[:edge]->(c), "
                  "(a)-[:edge]->(c)"),
            24u);
}

TEST(Engine, ParallelEdgeMultiplicity) {
  GraphBuilder b;
  b.add_vertex("N");
  b.add_vertex("N");
  b.add_vertex("N");
  b.add_edge(0, 1, "e");
  b.add_edge(0, 1, "e");  // parallel
  b.add_edge(1, 2, "e");
  Database db(std::move(b).build(), 2, test_config());
  EXPECT_EQ(count(db, "SELECT COUNT(*) FROM MATCH (a) -[:e]-> (b)"), 3u);
  // Two-hop homomorphic matches: 2 (through each parallel edge).
  EXPECT_EQ(count(db, "SELECT COUNT(*) FROM MATCH (a)-[:e]->(b)-[:e]->(c)"),
            2u);
  // Two edge pattern elements between the same endpoints: each parallel
  // edge binds each element: 2x2 for (0,1) plus 1x1 for (1,2).
  EXPECT_EQ(count(db,
                  "SELECT COUNT(*) FROM MATCH (a)-[:e]->(b), (a)-[:e]->(b)"),
            5u);
}

TEST(Engine, RpqDestinationsDedupedDespiteParallelPaths) {
  // Diamond: 0->1->3, 0->2->3. Destination 3 must count once from 0.
  GraphBuilder b;
  for (int i = 0; i < 4; ++i) b.add_vertex("N");
  b.add_edge(0, 1, "e");
  b.add_edge(0, 2, "e");
  b.add_edge(1, 3, "e");
  b.add_edge(2, 3, "e");
  Database db(std::move(b).build(), 2, test_config());
  EXPECT_EQ(count(db, "SELECT COUNT(*) FROM MATCH (a) -/:e+/-> (b)"),
            3u + 1u + 1u);  // from 0: {1,2,3}; from 1: {3}; from 2: {3}
}

TEST(Engine, PaperReachabilityExample) {
  // §3.5 example: (a) -> (b) -/:p+/-> (c) over 2->0<-3, 0->1, 1->1 has
  // exactly 2 results.
  GraphBuilder b;
  for (int i = 0; i < 4; ++i) b.add_vertex("N");
  b.add_edge(2, 0, "q");
  b.add_edge(3, 0, "q");
  b.add_edge(0, 1, "p");
  b.add_edge(1, 1, "p");
  Database db(std::move(b).build(), 3, test_config());
  EXPECT_EQ(
      count(db, "SELECT COUNT(*) FROM MATCH (a) -[:q]-> (b) -/:p+/-> (c)"),
      2u);
}

TEST(Engine, ZeroHopEmitsSourceOnlyWhenDestGateMatches) {
  GraphBuilder b;
  b.add_vertex("X");
  b.add_vertex("Y");
  b.add_edge(0, 1, "e");
  Database db(std::move(b).build(), 2, test_config());
  // 0-hop: (x:X)=dest must be labelled Y => only the 1-hop match counts.
  EXPECT_EQ(count(db, "SELECT COUNT(*) FROM MATCH (a:X) -/:e*/-> (b:Y)"), 1u);
  // Without the gate both the 0-hop and the 1-hop match.
  EXPECT_EQ(count(db, "SELECT COUNT(*) FROM MATCH (a:X) -/:e*/-> (b)"), 2u);
}

TEST(Engine, CrossFilterAscendingChain) {
  Database db(synthetic::make_chain(6), 3, test_config());
  const std::string q =
      "PATH p AS (x) -[:next]-> (y) WHERE x.id < y.id "
      "SELECT COUNT(*) FROM MATCH (a) -/:p+/-> (b) WHERE a.id = 0";
  EXPECT_EQ(count(db, q), 5u);
  const std::string q2 =
      "PATH p AS (x) -[:next]-> (y) WHERE x.id > y.id "
      "SELECT COUNT(*) FROM MATCH (a) -/:p+/-> (b)";
  EXPECT_EQ(count(db, q2), 0u);
}

TEST(Engine, CrossFilterReferencingOuterVar) {
  // Chain ids ascend; restrict iterations to y.id <= a.id + 2.
  Database db(synthetic::make_chain(8), 3, test_config());
  const std::string q =
      "PATH p AS (x) -[:next]-> (y) "
      "SELECT COUNT(*) FROM MATCH (a) -/:p+/-> (b) "
      "WHERE a.id = 0 AND b.id <= a.id + 2";
  EXPECT_EQ(count(db, q), 2u);
}

TEST(Engine, MultiHopMacro) {
  Database db(synthetic::make_chain(9), 3, test_config());
  const std::string q =
      "PATH two AS (x) -[:next]-> (m) -[:next]-> (y) "
      "SELECT COUNT(*) FROM MATCH (a) -/:two+/-> (b) WHERE a.id = 0";
  // Destinations at even distances: 2, 4, 6, 8.
  EXPECT_EQ(count(db, q), 4u);
}

TEST(Engine, BoundDestinationRpq) {
  Database db(synthetic::make_cycle(6), 3, test_config());
  const std::string q =
      "SELECT COUNT(*) FROM MATCH (a) -[:next]-> (b), (a) -/:next{2,4}/-> (b)";
  // b is a's successor; walks of length 2..4 from a reach b only at... a
  // cycle of 6: distance from a to successor going around is 1 or 7; with
  // window [2,4] there is none.
  EXPECT_EQ(count(db, q), 0u);
  const std::string q2 =
      "SELECT COUNT(*) FROM MATCH (a) -[:next]-> (b), (a) -/:next{7}/-> (b)";
  EXPECT_EQ(count(db, q2), 6u);
}

TEST(Engine, ProjectionsReturnRows) {
  Database db(synthetic::make_chain(4), 2, test_config());
  auto result =
      db.query("SELECT a.id, b.id FROM MATCH (a) -[:next]-> (b)");
  EXPECT_EQ(result.rows.size(), 3u);
  ASSERT_EQ(result.columns.size(), 2u);
  std::vector<std::pair<std::string, std::string>> rows;
  for (const auto& r : result.rows) rows.emplace_back(r[0], r[1]);
  std::sort(rows.begin(), rows.end());
  EXPECT_EQ(rows[0], (std::pair<std::string, std::string>{"0", "1"}));
  EXPECT_EQ(rows[2], (std::pair<std::string, std::string>{"2", "3"}));
}

TEST(Engine, ProjectionLabelAndArithmetic) {
  Database db(synthetic::make_chain(3), 1, test_config());
  auto result = db.query(
      "SELECT label(b), b.id * 10 AS tens FROM MATCH (a) -[:next]-> (b) "
      "WHERE a.id = 0");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0], "Node");
  EXPECT_EQ(result.rows[0][1], "10");
}

TEST(Engine, MachineCountInvariance) {
  const std::string q = "SELECT COUNT(*) FROM MATCH (a) -/:next{1,3}/- (b)";
  std::uint64_t expected = 0;
  for (unsigned machines : {1u, 2u, 3u, 5u, 8u}) {
    Database db(synthetic::make_chain(12), machines, test_config());
    const auto c = count(db, q);
    if (machines == 1) {
      expected = c;
    } else {
      EXPECT_EQ(c, expected) << machines << " machines";
    }
  }
}

TEST(Engine, WorkerCountInvariance) {
  const std::string q = "SELECT COUNT(*) FROM MATCH (a) -/:edge{1,2}/-> (b)";
  std::uint64_t expected = 0;
  for (unsigned workers : {1u, 2u, 4u}) {
    EngineConfig cfg = test_config();
    cfg.workers_per_machine = workers;
    Database db(synthetic::make_complete(5), 3, cfg);
    const auto c = count(db, q);
    if (workers == 1) {
      expected = c;
    } else {
      EXPECT_EQ(c, expected) << workers << " workers";
    }
  }
}

TEST(Engine, RepeatedExecutionIsStable) {
  Database db(synthetic::make_complete(5), 4, test_config());
  const std::string q = "SELECT COUNT(*) FROM MATCH (a) -/:edge{1,3}/-> (b)";
  const auto first = count(db, q);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(count(db, q), first);
  }
}

TEST(Engine, IndexDisabledMatchesOnTrees) {
  // On a tree (no alternative paths) disabling the reachability index
  // must not change results — Figure 3's "no index" series.
  EngineConfig cfg = test_config();
  Database with(synthetic::make_tree(3, 3), 3, cfg);
  cfg.use_reachability_index = false;
  Database without(synthetic::make_tree(3, 3), 3, cfg);
  const std::string q =
      "SELECT COUNT(*) FROM MATCH (c) -/:replyOf{1,3}/-> (p)";
  EXPECT_EQ(count(with, q), count(without, q));
  // The no-index run reports zero index entries.
  EXPECT_EQ(without.query(q).stats.rpq[0].index_entries, 0u);
  EXPECT_GT(with.query(q).stats.rpq[0].index_entries, 0u);
}

TEST(Engine, StatsPerDepthMatches) {
  Database db(synthetic::make_chain(5), 2, test_config());
  const auto r =
      db.query("SELECT COUNT(*) FROM MATCH (a) -/:next*/-> (b)");
  ASSERT_EQ(r.stats.rpq.size(), 1u);
  const auto& m = r.stats.rpq[0].matches_per_depth;
  // Depth 0: all 5 sources; depth 1: 4 edges; ... depth 4: 1.
  ASSERT_EQ(m.size(), 5u);
  EXPECT_EQ(m[0], 5u);
  EXPECT_EQ(m[1], 4u);
  EXPECT_EQ(m[4], 1u);
  EXPECT_EQ(r.stats.rpq[0].max_depth_observed, 4u);
  ASSERT_TRUE(r.stats.rpq[0].consensus_max_depth.has_value());
  EXPECT_EQ(*r.stats.rpq[0].consensus_max_depth, 4u);
}

TEST(Engine, EliminationAndDuplicationCounters) {
  // Complete graph: heavy revisiting (Table 3's shape).
  Database db(synthetic::make_complete(4), 2, test_config());
  const auto r =
      db.query("SELECT COUNT(*) FROM MATCH (a) -/:edge{1,3}/-> (b)");
  EXPECT_EQ(r.count, 16u);
  EXPECT_GT(r.stats.rpq[0].total_eliminated(), 0u);
  EXPECT_EQ(r.stats.rpq[0].index_bytes, r.stats.rpq[0].index_entries * 12);
}

TEST(Engine, TightCreditsNeverStarve) {
  EngineConfig cfg = test_config();
  cfg.buffers_per_machine = 8;  // tight flow control
  cfg.buffer_bytes = 128;
  Database db(synthetic::make_complete(8), 4, cfg);
  const auto r =
      db.query("SELECT COUNT(*) FROM MATCH (a) -/:edge{1,3}/-> (b)");
  // Every source reaches the 7 others at depth 1 and itself at depth 2.
  EXPECT_EQ(r.count, 8u * 8u);
  EXPECT_NE(r.abort_reason, AbortReason::kCreditStarvation);
}

TEST(Engine, SingleStartScansOnlyOwner) {
  Database db(synthetic::make_chain(20), 4, test_config());
  const auto r = db.query(
      "SELECT COUNT(*) FROM MATCH (a) -/:next+/-> (b) WHERE ID(a) = 0");
  EXPECT_EQ(r.count, 19u);
}

TEST(Engine, EmptyResultQueries) {
  Database db(synthetic::make_chain(5), 2, test_config());
  EXPECT_EQ(count(db, "SELECT COUNT(*) FROM MATCH (a:Missing)"), 0u);
  EXPECT_EQ(count(db, "SELECT COUNT(*) FROM MATCH (a) -[:nope]-> (b)"), 0u);
  EXPECT_EQ(
      count(db, "SELECT COUNT(*) FROM MATCH (a) WHERE a.id > 100"), 0u);
}

TEST(Engine, ParseAndPlanErrorsPropagate) {
  Database db(synthetic::make_chain(3), 2, test_config());
  EXPECT_THROW(db.query("SELECT FROM"), QueryError);
  EXPECT_THROW(db.query("SELECT COUNT(*) FROM MATCH (a), (b)"),
               UnsupportedError);
}

TEST(Engine, ExplainWithoutExecution) {
  Database db(synthetic::make_chain(3), 2, test_config());
  const auto text =
      db.explain("SELECT COUNT(*) FROM MATCH (a) -/:next+/-> (b)");
  EXPECT_NE(text.find("rpq-control"), std::string::npos);
}

}  // namespace
}  // namespace rpqd
