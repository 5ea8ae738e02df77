// Stress and robustness tests: degenerate graphs, deep traversals, tiny
// flow-control budgets, repeated execution, and malformed messages.
#include <gtest/gtest.h>

#include "api/rpqd.h"
#include "baseline/reference.h"
#include "ldbc/generator.h"
#include "ldbc/synthetic.h"
#include "runtime/context.h"

namespace rpqd {
namespace {

TEST(Stress, EmptyGraph) {
  Database db(Graph{}, 4);
  EXPECT_EQ(db.query("SELECT COUNT(*) FROM MATCH (a)").count, 0u);
  EXPECT_EQ(db.query("SELECT COUNT(*) FROM MATCH (a) -/:e+/-> (b)").count,
            0u);
}

TEST(Stress, SingleVertexNoEdges) {
  GraphBuilder b;
  b.add_vertex("N");
  Database db(std::move(b).build(), 3);
  EXPECT_EQ(db.query("SELECT COUNT(*) FROM MATCH (a)").count, 1u);
  EXPECT_EQ(db.query("SELECT COUNT(*) FROM MATCH (a) -/:e*/-> (b)").count,
            1u);  // 0-hop only
  EXPECT_EQ(db.query("SELECT COUNT(*) FROM MATCH (a) -/:e+/-> (b)").count,
            0u);
}

TEST(Stress, SelfLoopUnbounded) {
  GraphBuilder b;
  b.add_vertex("N");
  b.add_edge(0, 0, "e");
  Database db(std::move(b).build(), 2);
  const auto r = db.query("SELECT COUNT(*) FROM MATCH (a) -/:e+/-> (b)");
  EXPECT_EQ(r.count, 1u);  // the vertex reaches itself; index cuts the loop
  ASSERT_TRUE(r.stats.rpq[0].consensus_max_depth.has_value());
  EXPECT_EQ(*r.stats.rpq[0].consensus_max_depth, 1u);
}

TEST(Stress, DeepChainUnbounded) {
  // 300-deep recursion: explicit frame stacks, per-depth flow-control
  // classes, and the depth consensus must all cope.
  constexpr std::size_t kN = 300;
  EngineConfig cfg;
  cfg.workers_per_machine = 2;
  cfg.buffer_bytes = 256;
  Database db(synthetic::make_chain(kN), 4, cfg);
  const auto r = db.query("SELECT COUNT(*) FROM MATCH (a) -/:next+/-> (b)");
  EXPECT_EQ(r.count, kN * (kN - 1) / 2);
  ASSERT_TRUE(r.stats.rpq[0].consensus_max_depth.has_value());
  EXPECT_EQ(*r.stats.rpq[0].consensus_max_depth, kN - 1);
  EXPECT_NE(r.abort_reason, AbortReason::kCreditStarvation);
}

TEST(Stress, RepeatedQueriesAreStableAndLeakFree) {
  EngineConfig cfg;
  cfg.workers_per_machine = 2;
  Database db(synthetic::make_tree(3, 4), 4, cfg);
  const std::string queries[] = {
      "SELECT COUNT(*) FROM MATCH (c) -/:replyOf+/-> (r:Root)",
      "SELECT COUNT(*) FROM MATCH (c) -/:replyOf{1,2}/-> (p)",
      "SELECT COUNT(*) FROM MATCH (a) -[:replyOf]-> (b)",
  };
  std::uint64_t first[3] = {0, 0, 0};
  for (int round = 0; round < 15; ++round) {
    for (int q = 0; q < 3; ++q) {
      const auto count = db.query(queries[q]).count;
      if (round == 0) {
        first[q] = count;
      } else {
        ASSERT_EQ(count, first[q]) << "round " << round << " query " << q;
      }
    }
  }
}

struct StressCase {
  std::uint64_t seed;
  unsigned machines;
  unsigned workers;
};

class TinyBudgetStress : public ::testing::TestWithParam<StressCase> {};

TEST_P(TinyBudgetStress, AgreesWithOracleUnderPressure) {
  const StressCase c = GetParam();
  synthetic::RandomGraphConfig gcfg;
  gcfg.num_vertices = 60;
  gcfg.num_edges = 200;
  gcfg.num_edge_labels = 2;
  gcfg.seed = c.seed;
  const Graph oracle = synthetic::make_random(gcfg);
  EngineConfig cfg;
  cfg.workers_per_machine = c.workers;
  cfg.buffers_per_machine = 4;  // clamps to the 2-per-slot minimum
  cfg.buffer_bytes = 64;        // forces many tiny messages
  cfg.rpq_preallocated_depth = 1;
  cfg.rpq_shared_credits_per_stage = 1;
  Database db(synthetic::make_random(gcfg), c.machines, cfg);
  for (const char* q : {
           "SELECT COUNT(*) FROM MATCH (a) -/:e0*/-> (b)",
           "SELECT COUNT(*) FROM MATCH (a) -/:e0|e1{1,3}/-> (b)",
           "SELECT COUNT(*) FROM MATCH (a) -/:e1{2,}/-> (b)",
           "SELECT COUNT(*) FROM MATCH (a) -[:e0]-> (b) -/:e1{1,2}/-> (c)",
       }) {
    EXPECT_EQ(db.query(q).count, baseline::reference_evaluate(q, oracle).count)
        << q;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, TinyBudgetStress,
    ::testing::Values(StressCase{21, 8, 3}, StressCase{22, 8, 1},
                      StressCase{23, 5, 4}, StressCase{24, 3, 2}),
    [](const ::testing::TestParamInfo<StressCase>& info) {
      return "seed" + std::to_string(info.param.seed) + "_m" +
             std::to_string(info.param.machines) + "_w" +
             std::to_string(info.param.workers);
    });

TEST(Stress, TruncatedContextDecodeThrows) {
  std::vector<std::byte> payload;
  BinaryWriter writer(payload);
  std::vector<Value> slots(3, int_value(7));
  ContextCodecState enc;
  encode_context(writer, enc, 42, 0xff, slots);
  payload.resize(payload.size() - 5);  // truncate mid-slot
  BinaryReader reader(payload);
  VertexId v;
  std::uint64_t rpid;
  std::vector<Value> out;
  ContextCodecState dec;
  EXPECT_THROW(decode_context(reader, dec, 3, v, rpid, out), EngineError);
}

TEST(Stress, LdbcDepthProfileExplodesThenDecays) {
  // The Table 2 shape must hold on the generator output itself: matches
  // peak at a shallow depth and decay monotonically afterwards.
  ldbc::LdbcConfig cfg;
  cfg.scale_factor = 0.3;
  Database db(ldbc::generate_ldbc(cfg), 4);
  const auto r = db.query(
      "SELECT COUNT(*) FROM MATCH (post:Post) <-/:replyOf*/- (m)");
  const auto& depths = r.stats.rpq[0].matches_per_depth;
  ASSERT_GE(depths.size(), 4u);
  const std::size_t peak =
      static_cast<std::size_t>(std::max_element(depths.begin(), depths.end()) -
                               depths.begin());
  EXPECT_LE(peak, 3u);  // explosion at shallow depth
  for (std::size_t d = peak + 1; d + 1 < depths.size(); ++d) {
    EXPECT_LE(depths[d + 1], depths[d]) << "no decay at depth " << d;
  }
}

TEST(Stress, SixteenMachinesSmoke) {
  EngineConfig cfg;
  cfg.workers_per_machine = 1;
  Database db(synthetic::make_tree(2, 5), 16, cfg);
  EXPECT_EQ(db.query("SELECT COUNT(*) FROM MATCH (c) -/:replyOf+/-> "
                     "(r:Root)")
                .count,
            62u);  // 2^6 - 2 non-root vertices
}

}  // namespace
}  // namespace rpqd
