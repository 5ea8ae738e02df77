// Tests for the per-query tracing/profiling layer (runtime/profile.h):
// the PROFILE prefix and config opt-ins, exact reconciliation of the
// profile tree against RuntimeStats, the text/JSON renderings, and the
// disabled-mode zero-allocation contract (reusing the PR 1
// allocation-assert idiom).
#include <gtest/gtest.h>

#include <string>

#include "api/rpqd.h"
#include "ldbc/synthetic.h"
#include "reconcile.h"
#include "runtime/profile.h"

namespace rpqd {
namespace {

EngineConfig test_config() {
  EngineConfig cfg;
  cfg.workers_per_machine = 2;
  cfg.buffers_per_machine = 64;
  cfg.buffer_bytes = 512;  // small buffers: force multi-buffer flows
  return cfg;
}

constexpr const char* kPlusQuery =
    "SELECT COUNT(*) FROM MATCH (a) -/:next+/-> (b)";

TEST(Profile, DisabledByDefaultAndAllocationFree) {
  Database db(synthetic::make_chain(12), 3, test_config());
  (void)db.query(kPlusQuery);  // warm up any lazy one-time allocations
  const std::uint64_t before = profile_allocations();
  const QueryResult r = db.query(kPlusQuery);
  EXPECT_FALSE(r.profile.enabled);
  EXPECT_TRUE(r.profile.stages.empty());
  // The tier-1 contract: with profiling off, the collection layer
  // performs zero allocations (one never-taken branch per hook).
  EXPECT_EQ(profile_allocations(), before);
  EXPECT_EQ(r.profile.text(), "PROFILE: disabled\n");
  EXPECT_EQ(r.count, 66u);  // 11+10+...+1
}

TEST(Profile, PrefixEnablesForThatQueryOnly) {
  Database db(synthetic::make_chain(12), 3, test_config());
  const QueryResult plain = db.query(kPlusQuery);
  const QueryResult prof =
      db.query(std::string("PROFILE ") + kPlusQuery);
  EXPECT_FALSE(plain.profile.enabled);
  EXPECT_TRUE(prof.profile.enabled);
  EXPECT_EQ(prof.count, plain.count);  // the prefix changes nothing else
  // Case-insensitive, leading whitespace allowed.
  const QueryResult lower =
      db.query(std::string("  profile ") + kPlusQuery);
  EXPECT_TRUE(lower.profile.enabled);
  EXPECT_EQ(lower.count, plain.count);
  // The next unprefixed query is unaffected.
  EXPECT_FALSE(db.query(kPlusQuery).profile.enabled);
}

TEST(Profile, PrefixWorksOnEveryEntry) {
  Database db(synthetic::make_chain(12), 3, test_config());
  const std::string text = std::string("PROFILE ") + kPlusQuery;
  PreparedQuery prepared = db.prepare(text);
  const QueryResult first = prepared.run();
  EXPECT_TRUE(first.profile.enabled);
  EXPECT_EQ(first.count, 66u);
  EXPECT_TRUE(prepared.run().profile.enabled);  // every run, not once
  EXPECT_FALSE(db.prepare(kPlusQuery).run().profile.enabled);
  EXPECT_EQ(db.explain(text), db.explain(kPlusQuery));
  EXPECT_NE(db.explain(text).find("rpq-control"), std::string::npos);

  const QueryResult submitted = db.await(db.submit(text));
  EXPECT_TRUE(submitted.profile.enabled);
  EXPECT_EQ(submitted.count, 66u);
  const QueryResult retried = db.run_with_retry(text);
  EXPECT_TRUE(retried.profile.enabled);
  EXPECT_EQ(retried.count, 66u);
}

TEST(Profile, ConfigFlagEnablesEveryQuery) {
  EngineConfig cfg = test_config();
  cfg.profile = true;
  Database db(synthetic::make_chain(8), 2, cfg);
  const QueryResult r = db.query(kPlusQuery);
  EXPECT_TRUE(r.profile.enabled);
  EXPECT_GT(r.profile.totals().contexts, 0u);
}

TEST(Profile, ReconcilesExactlyWithRuntimeStats) {
  Database db(synthetic::make_chain(16), 4, test_config());
  const QueryResult r =
      db.query(std::string("PROFILE ") + kPlusQuery);
  // Every context/message/byte the fabric counted is attributed to
  // exactly one (stage, machine, depth) cell, every sent one was
  // received, and the per-machine counters fold to the stats.
  expect_reconciled(r, "chain:16 PROFILE +");
  EXPECT_GT(r.profile.totals().contexts, 0u);
  EXPECT_GT(r.stats.term_rounds, 0u);  // == the machines' fold
  EXPECT_GT(r.stats.flow_fast_path, 0u);
}

TEST(Profile, IndexProbeOutcomesMatchRpqStats) {
  // A cycle forces eliminations; the per-cell index accounting must sum
  // to the same totals as the Table 2/3 statistics.
  Database db(synthetic::make_cycle(8), 3, test_config());
  const QueryResult r =
      db.query(std::string("PROFILE ") + kPlusQuery);
  ASSERT_TRUE(r.profile.enabled);
  ASSERT_EQ(r.stats.rpq.size(), 1u);
  // `+` has min_hop = 1: depth-0 entries count as matches but sit below
  // the index window (§4.5) and are never probed.
  ASSERT_FALSE(r.stats.rpq[0].matches_per_depth.empty());
  const ProfileDepthRow all = r.profile.totals();
  EXPECT_EQ(all.index_probes, r.stats.rpq[0].total_matches() -
                                  r.stats.rpq[0].matches_per_depth[0]);
  EXPECT_EQ(all.index_eliminated, r.stats.rpq[0].total_eliminated());
  EXPECT_EQ(all.index_duplicated, r.stats.rpq[0].total_duplicated());
  EXPECT_GT(all.index_eliminated, 0u);
}

TEST(Profile, TextAndJsonRenderings) {
  Database db(synthetic::make_chain(10), 3, test_config());
  const QueryResult r =
      db.query(std::string("PROFILE ") + kPlusQuery);
  const std::string text = r.profile.text();
  EXPECT_NE(text.find("PROFILE"), std::string::npos);
  EXPECT_NE(text.find("S0"), std::string::npos);    // stage line
  EXPECT_NE(text.find("credits m0"), std::string::npos);
  const std::string json = r.profile.to_json();
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"enabled\": true"), std::string::npos);
  EXPECT_NE(json.find("\"stages\": ["), std::string::npos);
  EXPECT_NE(json.find("\"credits\": ["), std::string::npos);
  EXPECT_NE(json.find("\"totals\": {"), std::string::npos);
  EXPECT_NE(json.find("\"depths\": ["), std::string::npos);
}

TEST(Profile, GrowthBeyondPreallocatedDepthsStillReconciles) {
  // A tiny preallocation window forces the counted geometric growth path
  // on a deep RPQ; the tree must stay exact.
  EngineConfig cfg = test_config();
  cfg.profile_preallocated_depths = 2;
  Database db(synthetic::make_chain(20), 3, cfg);
  const std::uint64_t before = profile_allocations();
  const QueryResult r =
      db.query(std::string("PROFILE ") + kPlusQuery);
  EXPECT_GT(profile_allocations(), before);  // slots + growth are counted
  EXPECT_EQ(r.count, 190u);  // 19+18+...+1
  expect_reconciled(r, "chain:20 prealloc=2");
}

TEST(Profile, PreparedQueryFollowsEngineConfig) {
  EngineConfig cfg = test_config();
  Database db(synthetic::make_chain(8), 2, cfg);
  PreparedQuery q = db.prepare(kPlusQuery);
  EXPECT_FALSE(q.run().profile.enabled);
  db.config().profile = true;
  EXPECT_TRUE(q.run().profile.enabled);
}

}  // namespace
}  // namespace rpqd
