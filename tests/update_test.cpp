// Online graph updates with snapshot isolation (DESIGN.md §12): store /
// snapshot units (batch application, tombstone cascades, atomicity,
// merge, materialization), bootstrap seeding over appended and
// tombstoned locals, the cache-coherence satellites — stale result
// after a mutation (regression), mid-flight invalidation of a
// single-flight leader, the queued-past-deadline dispatch check — and
// the update regression corpus (tests/corpus/updates/*.txt), where every
// replay compares the engine against the reference oracle on the
// materialized snapshot of the epoch the query pinned.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "api/rpqd.h"
#include "baseline/reference.h"
#include "graph/store.h"
#include "graph/update.h"
#include "ldbc/generator.h"
#include "ldbc/schema.h"
#include "ldbc/synthetic.h"
#include "pgql/parser.h"
#include "plan/planner.h"
#include "rpq/cache_key.h"
#include "runtime/admission.h"
#include "runtime/result_cache.h"

#ifndef RPQD_UPDATE_CORPUS_DIR
#error "RPQD_UPDATE_CORPUS_DIR must point at tests/corpus/updates"
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

LabelId vlabel(const Database& db, const char* name) {
  const auto id = db.graph().catalog().find_vertex_label(name);
  EXPECT_TRUE(id.has_value()) << "unknown vertex label " << name;
  return id.value_or(0);
}

LabelId elabel(const Database& db, const char* name) {
  const auto id = db.graph().catalog().find_edge_label(name);
  EXPECT_TRUE(id.has_value()) << "unknown edge label " << name;
  return id.value_or(0);
}

constexpr const char* kChainPlus =
    "SELECT COUNT(*) FROM MATCH (a) -/:next+/-> (b)";

// ---- batch application over the snapshot chain --------------------------

TEST(GraphStoreTest, InsertedEdgeVisibleAtNextEpochOnly) {
  Database db(synthetic::make_chain(4), 2, small_config());
  EXPECT_EQ(db.graph_epoch(), 0u);
  const QueryResult before = db.query(kChainPlus);
  EXPECT_EQ(before.count, 6u);  // ordered pairs i < j on a 4-chain
  EXPECT_EQ(before.stats.snapshot_epoch, 0u);

  UpdateBatch batch;
  batch.edge_inserts.push_back({3, 0, elabel(db, "next")});
  const UpdateResult receipt = db.apply_update(batch);
  EXPECT_EQ(receipt.epoch, 1u);
  EXPECT_EQ(receipt.new_edges.size(), 1u);
  EXPECT_TRUE(receipt.dirty.edges_changed);
  EXPECT_FALSE(receipt.dirty.vertices_changed);
  EXPECT_EQ(db.graph_epoch(), 1u);

  // Closing the chain into a cycle: every vertex reaches all four.
  const QueryResult after = db.query(kChainPlus);
  EXPECT_EQ(after.count, 16u);
  EXPECT_EQ(after.stats.snapshot_epoch, 1u);
}

TEST(GraphStoreTest, VertexDeleteCascadesBothDirections) {
  Database db(synthetic::make_chain(4), 2, small_config());
  UpdateBatch batch;
  batch.vertex_deletes.push_back({1});
  const UpdateResult receipt = db.apply_update(batch);
  EXPECT_EQ(receipt.edges_deleted, 2u);  // 0->1 and 1->2
  EXPECT_TRUE(receipt.dirty.vertices_changed);
  EXPECT_TRUE(receipt.dirty.edges_changed);

  // Tombstoned vertices are unaddressable: the scan skips them and only
  // the surviving 2->3 edge remains traversable.
  EXPECT_EQ(db.query("SELECT COUNT(*) FROM MATCH (a)").count, 3u);
  EXPECT_EQ(db.query(kChainPlus).count, 1u);
}

TEST(GraphStoreTest, ParallelEdgeDeleteDropsAllCopies) {
  Database db(synthetic::make_chain(2), 2, small_config());
  UpdateBatch dup;
  dup.edge_inserts.push_back({0, 1, elabel(db, "next")});
  db.apply_update(dup);
  // Homomorphic matching counts parallels separately.
  EXPECT_EQ(db.query("SELECT COUNT(*) FROM MATCH (a) -[:next]-> (b)").count,
            2u);

  UpdateBatch del;
  del.edge_deletes.push_back({0, 1, elabel(db, "next")});
  const UpdateResult receipt = db.apply_update(del);
  EXPECT_EQ(receipt.edges_deleted, 2u);
  EXPECT_EQ(db.query("SELECT COUNT(*) FROM MATCH (a) -[:next]-> (b)").count,
            0u);
}

TEST(GraphStoreTest, VertexInsertSeedsTheScan) {
  Database db(synthetic::make_chain(3), 2, small_config());
  UpdateBatch batch;
  VertexInsert vi;
  vi.label = vlabel(db, "Node");
  const auto id_prop = db.graph().catalog().find_property("id");
  ASSERT_TRUE(id_prop.has_value());
  vi.props.push_back({*id_prop, int_value(99)});
  batch.vertex_inserts.push_back(vi);
  // Wire the new vertex (id 3 = pre-batch count) into the chain tail.
  batch.edge_inserts.push_back({2, 3, elabel(db, "next")});
  const UpdateResult receipt = db.apply_update(batch);
  ASSERT_EQ(receipt.new_vertices.size(), 1u);
  EXPECT_EQ(receipt.new_vertices[0], 3u);

  EXPECT_EQ(db.query("SELECT COUNT(*) FROM MATCH (a) WHERE a.id = 99").count,
            1u);
  EXPECT_EQ(db.query(kChainPlus).count, 6u);  // now a 4-chain
}

TEST(GraphStoreTest, InvalidBatchAppliesNothing) {
  Database db(synthetic::make_chain(4), 2, small_config());
  const std::uint64_t before = db.query(kChainPlus).count;

  // The edge insert references a vertex that does not exist; the whole
  // batch — including the valid vertex insert before it — must roll off.
  UpdateBatch batch;
  VertexInsert vi;
  vi.label = vlabel(db, "Node");
  batch.vertex_inserts.push_back(vi);
  batch.edge_inserts.push_back({99, 0, elabel(db, "next")});
  EXPECT_THROW(db.apply_update(batch), QueryError);

  EXPECT_EQ(db.graph_epoch(), 0u);
  EXPECT_EQ(db.update_stats().batches_applied, 0u);
  EXPECT_EQ(db.query("SELECT COUNT(*) FROM MATCH (a)").count, 4u);
  EXPECT_EQ(db.query(kChainPlus).count, before);
}

TEST(GraphStoreTest, SameBatchInsertThenDeleteIsANoOpEdge) {
  Database db(synthetic::make_chain(3), 2, small_config());
  UpdateBatch batch;
  batch.edge_inserts.push_back({2, 0, elabel(db, "next")});
  batch.edge_deletes.push_back({2, 0, elabel(db, "next")});
  const UpdateResult receipt = db.apply_update(batch);
  EXPECT_EQ(receipt.epoch, 1u);
  EXPECT_EQ(db.query(kChainPlus).count, 3u);  // still a plain 3-chain
}

TEST(GraphStoreTest, MergeKeepsEpochAndResults) {
  Database db(synthetic::make_chain(6), 3, small_config());
  UpdateBatch b1;
  b1.edge_inserts.push_back({5, 0, elabel(db, "next")});
  db.apply_update(b1);
  UpdateBatch b2;
  b2.vertex_deletes.push_back({2});
  db.apply_update(b2);
  const std::uint64_t expected = db.query(kChainPlus).count;
  ASSERT_GT(db.update_stats().delta_entries, 0u);

  EXPECT_TRUE(db.merge_deltas());
  EXPECT_EQ(db.graph_epoch(), 2u);  // merge changes representation only
  EXPECT_EQ(db.update_stats().delta_entries, 0u);
  EXPECT_EQ(db.update_stats().merges, 1u);
  EXPECT_EQ(db.query(kChainPlus).count, expected);
  EXPECT_FALSE(db.merge_deltas()) << "nothing left to fold";

  // Updates keep working on the merged base (vertex ids are stable).
  UpdateBatch b3;
  b3.edge_inserts.push_back({0, 3, elabel(db, "next")});
  db.apply_update(b3);
  EXPECT_EQ(db.graph_epoch(), 3u);
  EXPECT_EQ(db.query(kChainPlus).count,
            baseline::reference_evaluate(kChainPlus,
                                         *db.materialize_snapshot(3))
                .count);
}

TEST(GraphStoreTest, AutoMergeTriggersOnDeltaVolume) {
  EngineConfig ec = small_config();
  ec.delta_merge_entries = 1;
  Database db(synthetic::make_chain(4), 2, ec);
  UpdateBatch batch;
  batch.edge_inserts.push_back({3, 0, elabel(db, "next")});
  db.apply_update(batch);
  EXPECT_GE(db.update_stats().merges, 1u);
  EXPECT_EQ(db.update_stats().delta_entries, 0u);
  EXPECT_EQ(db.query(kChainPlus).count, 16u);
}

TEST(GraphStoreTest, MaterializeReplaysEveryEpoch) {
  Database db(synthetic::make_random({14, 30, 2, 2, false, 5}), 2,
              small_config());
  const std::string q = "SELECT COUNT(*) FROM MATCH (a) -/:e0*/-> (b)";
  std::vector<std::uint64_t> engine_counts;
  engine_counts.push_back(db.query(q).count);

  UpdateBatch b1;
  b1.edge_inserts.push_back({0, 5, elabel(db, "e0")});
  b1.edge_inserts.push_back({5, 9, elabel(db, "e0")});
  db.apply_update(b1);
  engine_counts.push_back(db.query(q).count);

  UpdateBatch b2;
  b2.vertex_deletes.push_back({5});
  db.apply_update(b2);
  engine_counts.push_back(db.query(q).count);

  for (std::uint64_t e = 0; e <= 2; ++e) {
    const auto oracle = db.materialize_snapshot(e);
    EXPECT_EQ(engine_counts[e], baseline::reference_evaluate(q, *oracle).count)
        << "epoch " << e;
  }
}

TEST(GraphStoreTest, WarmResultCacheStaysCoherentAcrossUpdatesAndMerge) {
  EngineConfig ec = small_config();
  ec.result_cache_max_bytes = 1 << 20;
  Database db(synthetic::make_chain(8), 3, ec);
  EXPECT_EQ(db.query(kChainPlus).count, 28u);
  EXPECT_EQ(db.query(kChainPlus).count, 28u);  // warm result

  UpdateBatch batch;
  batch.edge_inserts.push_back({7, 0, elabel(db, "next")});
  db.apply_update(batch);
  EXPECT_EQ(db.query(kChainPlus).count, 64u);

  ASSERT_TRUE(db.merge_deltas());
  // A merge keeps the epoch and the visible graph, so the entry cached
  // after the update stays valid.
  const QueryResult merged = db.query(kChainPlus);
  EXPECT_EQ(merged.count, 64u);
  EXPECT_TRUE(merged.stats.result_cache_hit);
}

// ---- bootstrap seeding (§3.2) -------------------------------------------

/// Alive vertices of `g` that a stage 0 with label alternation `labels`
/// (empty = any label) admits: what bootstrap must seed.
std::uint64_t stage_zero_candidates(const Graph& g,
                                    const std::vector<std::string>& labels) {
  std::uint64_t n = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (!g.alive(v)) continue;
    const std::string& name = g.catalog().vertex_label_name(g.label(v));
    if (labels.empty() ||
        std::find(labels.begin(), labels.end(), name) != labels.end()) {
      ++n;
    }
  }
  return n;
}

TEST(Bootstrap, SeedsOnlyStageZeroCandidates) {
  ldbc::LdbcConfig cfg;
  cfg.scale_factor = 0.05;
  struct Case {
    const char* text;
    std::vector<std::string> labels;
  };
  const std::vector<Case> cases = {
      {"SELECT COUNT(*) FROM MATCH (p:Person) -/:knows{1,2}/-> (q)",
       {ldbc::kPerson}},
      {"SELECT COUNT(*) FROM MATCH (x:Person|Post) -/:knows|hasCreator+/-> (y)",
       {ldbc::kPerson, ldbc::kPost}},
      {"SELECT COUNT(*) FROM MATCH (a) -[:replyOf]-> (b)", {}},
  };
  for (const unsigned workers : {1u, 3u}) {
    SCOPED_TRACE("workers_per_machine=" + std::to_string(workers));
    EngineConfig ec = small_config();
    ec.workers_per_machine = workers;
    Database db(ldbc::generate_ldbc(cfg), 4, ec);
    const LabelId person = vlabel(db, ldbc::kPerson);
    std::vector<VertexId> persons;
    for (VertexId v = 0; v < db.graph().num_vertices(); ++v) {
      if (db.graph().label(v) == person) persons.push_back(v);
    }
    ASSERT_GE(persons.size(), 2u);
    const VertexId kept = persons[0];
    const VertexId deleted = persons[1];
    const VertexId missing =
        static_cast<VertexId>(db.graph().num_vertices() + 100);
    const auto id_prop = db.graph().catalog().find_property(ldbc::kIdProp);
    ASSERT_TRUE(id_prop.has_value());
    const std::int64_t kept_id = as_int(db.graph().property(kept, *id_prop));

    const auto check = [&](const std::string& where,
                           std::vector<VertexId> id_starts) {
      SCOPED_TRACE(where);
      const auto snap = db.materialize_snapshot(db.graph_epoch());
      for (const Case& c : cases) {
        const QueryResult r = db.query(c.text);
        EXPECT_EQ(r.count, baseline::reference_evaluate(c.text, *snap).count)
            << c.text;
        EXPECT_EQ(r.stats.seeds, stage_zero_candidates(*snap, c.labels))
            << c.text;
      }
      for (const VertexId k : id_starts) {
        const std::string text =
            "SELECT COUNT(*) FROM MATCH (p) -/:knows+/-> (q) WHERE ID(p) = " +
            std::to_string(k);
        const bool exists = k < snap->num_vertices() && snap->alive(k);
        const QueryResult r = db.query(text);
        EXPECT_EQ(r.count, baseline::reference_evaluate(text, *snap).count)
            << text;
        EXPECT_EQ(r.stats.seeds, exists ? 1u : 0u) << text;
      }
      // Stage 0's property filter and a label missing from the catalog
      // (a constant-false filter) are part of its vertex match too: the
      // first seeds only the one Person with that id, the second none.
      const std::string by_property =
          "SELECT COUNT(*) FROM MATCH (p:Person) -/:knows+/-> (q) "
          "WHERE p.id = " +
          std::to_string(kept_id);
      const QueryResult r = db.query(by_property);
      EXPECT_EQ(r.count, baseline::reference_evaluate(by_property, *snap).count)
          << by_property;
      EXPECT_EQ(r.stats.seeds, 1u) << by_property;
      const std::string missing_label =
          "SELECT COUNT(*) FROM MATCH (a:Missing) -/:knows+/-> (b)";
      const QueryResult none = db.query(missing_label);
      EXPECT_EQ(none.count, 0u);
      EXPECT_EQ(none.stats.seeds, 0u);
    };
    check("seed graph", {kept, deleted, missing});

    // One Person appended (and wired into `knows`), another tombstoned.
    UpdateBatch batch;
    VertexInsert vi;
    vi.label = person;
    batch.vertex_inserts.push_back(vi);
    const auto added = static_cast<VertexId>(db.graph().num_vertices());
    batch.edge_inserts.push_back({added, kept, elabel(db, ldbc::kKnows)});
    batch.vertex_deletes.push_back({deleted});
    db.apply_update(batch);
    check("after apply_update", {kept, deleted, added, missing});
    ASSERT_TRUE(db.merge_deltas());
    check("after merge_deltas", {kept, deleted, added, missing});
  }
}

// ---- satellite: stale cached result after a mutation (regression) -------

TEST(UpdateCoherenceTest, CachedResultNeverSurvivesARelevantUpdate) {
  EngineConfig ec = small_config();
  ec.result_cache_max_bytes = 1 << 20;
  Database db(synthetic::make_chain(4), 2, ec);

  EXPECT_EQ(db.query(kChainPlus).count, 6u);
  const QueryResult warm = db.query(kChainPlus);
  EXPECT_EQ(warm.count, 6u);
  ASSERT_TRUE(warm.stats.result_cache_hit) << "cache failed to warm";

  UpdateBatch batch;
  batch.edge_inserts.push_back({3, 0, elabel(db, "next")});
  db.apply_update(batch);
  EXPECT_GE(db.result_cache_stats().evicted_by_update, 1u);

  // The bug this locks: before partition/label-granular invalidation was
  // wired into apply_update, this re-ask returned the warmed count of 6
  // from the cache — a result describing a graph that no longer exists.
  const QueryResult after = db.query(kChainPlus);
  EXPECT_FALSE(after.stats.result_cache_hit)
      << "stale result served from the cache after a graph mutation";
  EXPECT_EQ(after.count, 16u);
}

TEST(UpdateCoherenceTest, UnrelatedLabelsKeepTheirCachedEntries) {
  EngineConfig ec = small_config();
  ec.result_cache_max_bytes = 1 << 20;
  Database db(synthetic::make_random({16, 36, 2, 2, false, 7}), 2, ec);
  const std::string q0 = "SELECT COUNT(*) FROM MATCH (a) -/:e0+/-> (b)";
  db.query(q0);
  ASSERT_TRUE(db.query(q0).stats.result_cache_hit);

  // A batch dirtying only vertex label L1 cannot change a query whose
  // scan is unlabelled... so it MUST evict (wildcard scan). A query
  // anchored on :L0 with only :e0 hops survives an L1-only insert.
  const std::string anchored =
      "SELECT COUNT(*) FROM MATCH (a:L0) -/:e0+/-> (b)";
  db.query(anchored);
  ASSERT_TRUE(db.query(anchored).stats.result_cache_hit);

  UpdateBatch batch;
  VertexInsert vi;
  vi.label = vlabel(db, "L1");
  batch.vertex_inserts.push_back(vi);
  db.apply_update(batch);

  EXPECT_FALSE(db.query(q0).stats.result_cache_hit)
      << "wildcard-scan entry must go on any vertex insert";
  EXPECT_TRUE(db.query(anchored).stats.result_cache_hit)
      << "label-disjoint entry should survive (partition-granular "
         "invalidation, not nuke-everything)";
}

// A result cache first built after some updates is born at the installed
// snapshot's epoch, so it hears every later update notification in order.
// The concurrent window behind this (an update that has advanced the
// store but not yet installed its snapshot) is raced by
// tier2_update_stress; this pins the birth epoch itself.
TEST(UpdateCoherenceTest, CacheBornAfterUpdatesStartsAtTheInstalledEpoch) {
  Database db(synthetic::make_chain(4), 2, small_config());  // cache off
  const auto oracle = [&db] {
    return baseline::reference_evaluate(
               kChainPlus, *db.materialize_snapshot(db.graph_epoch()))
        .count;
  };
  UpdateBatch close_cycle;
  close_cycle.edge_inserts.push_back({3, 0, elabel(db, "next")});
  db.apply_update(close_cycle);
  ASSERT_EQ(db.graph_epoch(), 1u);

  db.config().result_cache_max_bytes = 1 << 20;
  EXPECT_EQ(db.query(kChainPlus).count, oracle());
  EXPECT_EQ(db.result_cache_stats().coherent_epoch, 1u);
  EXPECT_TRUE(db.query(kChainPlus).stats.result_cache_hit);

  UpdateBatch shortcut;
  shortcut.edge_inserts.push_back({0, 2, elabel(db, "next")});
  db.apply_update(shortcut);  // aborts if the notification is out of order
  EXPECT_EQ(db.result_cache_stats().coherent_epoch, 2u);
  const QueryResult after = db.query(kChainPlus);
  EXPECT_FALSE(after.stats.result_cache_hit);
  EXPECT_EQ(after.count, oracle());
}

// ---- result-cache epoch protocol (unit level) ---------------------------

QueryResult tiny_result(std::uint64_t count) {
  QueryResult r;
  r.count = count;
  return r;
}

TEST(ResultCacheEpochTest, ProbeFromTheFutureAbortsLoudly) {
  ResultCache cache(1 << 20);
  // A probe pinning epoch 1 when the cache never heard of an update is
  // the mutation-without-invalidation hole: fail, never serve.
  EXPECT_THROW(cache.acquire("q", false, 1), EngineError);
}

TEST(ResultCacheEpochTest, StaleProbeBypassesInsteadOfServing) {
  ResultCache cache(1 << 20);
  auto lead = cache.acquire("q", false, 0);
  ASSERT_EQ(lead.role, ResultCache::Role::kLeader);
  cache.complete(lead.flight, "q", false, tiny_result(6));
  ASSERT_EQ(cache.acquire("q", false, 0).role, ResultCache::Role::kHit);

  DirtyScope dirty;
  dirty.edges_changed = true;
  cache.on_graph_update(1, dirty);
  // The wildcard-scope entry is gone; and a probe still pinning epoch 0
  // must not lead a flight whose result could be admitted.
  const auto stale = cache.acquire("q", false, 0);
  EXPECT_EQ(stale.role, ResultCache::Role::kBypass);
  EXPECT_EQ(cache.stats().bypassed_stale, 1u);
}

TEST(ResultCacheEpochTest, MidFlightInvalidationDropsTheStaleLeader) {
  ResultCache cache(1 << 20);
  auto stale_leader = cache.acquire("q", false, 0);
  ASSERT_EQ(stale_leader.role, ResultCache::Role::kLeader);

  DirtyScope dirty;
  dirty.edges_changed = true;
  dirty.vertices_changed = true;
  cache.on_graph_update(1, dirty);

  // A new asker pinned the post-update snapshot: it must NOT follow the
  // stale flight (it would inherit a result of the old graph) — it
  // replaces the registration and becomes the new leader.
  auto fresh_leader = cache.acquire("q", false, 1);
  ASSERT_EQ(fresh_leader.role, ResultCache::Role::kLeader);
  EXPECT_EQ(cache.stats().flights_restarted, 1u);

  // The stale leader finishes cleanly; its followers get the result but
  // the store must refuse it.
  cache.complete(stale_leader.flight, "q", false, tiny_result(6));
  EXPECT_EQ(cache.stats().stale_flight_drops, 1u);
  EXPECT_EQ(cache.stats().inserts, 0u);

  // The fresh leader's completion is the one that lands.
  cache.complete(fresh_leader.flight, "q", false, tiny_result(16));
  EXPECT_EQ(cache.stats().inserts, 1u);
  const auto hit = cache.acquire("q", false, 1);
  ASSERT_EQ(hit.role, ResultCache::Role::kHit);
  EXPECT_EQ(hit.result.count, 16u);
}

TEST(ResultCacheEpochTest, StalePinBypassesOnEveryAdmissionPath) {
  // apply_update notifies the cache before it installs the snapshot.
  // Freeze the engine between those two steps: the cache has heard of
  // epoch 1 while the engine still serves epoch 0, so every probe pins a
  // stale epoch — on the first probe and again on the re-pin.
  auto pg = std::make_shared<const PartitionedGraph>(
      std::make_shared<const Graph>(synthetic::make_chain(4)), 2);
  DistributedEngine engine(pg, small_config());
  GraphStore store(pg);
  UpdateBatch batch;
  batch.edge_inserts.push_back(
      {3, 0, *pg->global().catalog().find_edge_label("next")});
  const UpdateResult receipt = store.apply(batch);
  ResultCache cache(1 << 20);
  cache.on_graph_update(receipt.epoch, receipt.dirty);

  // Database::query's side: admit, run inline, complete.
  Admission blocking = admit(engine, &cache, kChainPlus);
  EXPECT_EQ(blocking.role, ResultCache::Role::kBypass);
  EXPECT_EQ(blocking.snapshot->epoch(), 0u);
  EXPECT_EQ(cache.stats().bypassed_stale, 2u);
  RunControl rc;
  QueryResult inline_result = engine.run(
      *blocking.plan, engine.config_snapshot(), rc, blocking.snapshot);
  blocking.complete(inline_result);
  EXPECT_TRUE(inline_result.stats.result_cache_bypassed);
  EXPECT_EQ(inline_result.count, 6u);  // the pinned epoch-0 chain

  // QueryScheduler::submit's side: the same handshake, booked once.
  {
    QueryScheduler sched(&engine, SchedulerConfig{}, &cache);
    const QueryResult scheduled = sched.await(sched.submit(kChainPlus));
    EXPECT_TRUE(scheduled.stats.result_cache_bypassed);
    EXPECT_EQ(scheduled.count, 6u);
    EXPECT_EQ(sched.stats().cache_bypassed, 1u);
    EXPECT_EQ(sched.stats().admitted, 1u);
  }
  ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.bypassed_stale, 4u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.inserts, 0u);
  EXPECT_EQ(stats.entries, 0u);

  // Installing the announced snapshot closes the gap: the next ask leads
  // and its clean result is admitted, so the one after it hits.
  engine.install_snapshot(store.snapshot());
  Admission lead = admit(engine, &cache, kChainPlus);
  ASSERT_EQ(lead.role, ResultCache::Role::kLeader);
  RunControl lead_rc;
  QueryResult fresh = engine.run(*lead.plan, engine.config_snapshot(),
                                 lead_rc, lead.snapshot);
  lead.complete(fresh);
  EXPECT_FALSE(fresh.stats.result_cache_bypassed);
  EXPECT_EQ(fresh.count, 16u);  // the epoch-1 cycle
  stats = cache.stats();
  EXPECT_EQ(stats.bypassed_stale, 4u);
  EXPECT_EQ(stats.inserts, 1u);
  QueryScheduler sched(&engine, SchedulerConfig{}, &cache);
  const QueryTicket hit = sched.submit(kChainPlus);
  EXPECT_EQ(hit.admission(), AdmissionOutcome::kCachedHit);
  EXPECT_EQ(sched.await(hit).count, 16u);
}

TEST(ResultCacheEpochTest, ScopeEvictionIsLabelGranular) {
  ResultCache cache(1 << 20);
  ResultCacheScope e0_only;
  e0_only.all_vertex_labels = false;
  e0_only.vertex_labels = {0};
  e0_only.all_edge_labels = false;
  e0_only.edge_labels = {0};
  auto lead = cache.acquire("q", false, 0);
  cache.complete(lead.flight, "q", false, tiny_result(1), e0_only);

  DirtyScope other;  // touches edge label 1 only
  other.edges_changed = true;
  other.edge_labels = {1};
  cache.on_graph_update(1, other);
  EXPECT_EQ(cache.acquire("q", false, 1).role, ResultCache::Role::kHit);
  EXPECT_EQ(cache.stats().evicted_by_update, 0u);

  DirtyScope matching;
  matching.edges_changed = true;
  matching.edge_labels = {0};
  cache.on_graph_update(2, matching);
  EXPECT_EQ(cache.stats().evicted_by_update, 1u);
  EXPECT_NE(cache.acquire("q", false, 2).role, ResultCache::Role::kHit);
}

// ---- plan label footprint (rpq/cache_key.h) -----------------------------

TEST(ResultCacheScopeTest, ScopeAffectedPredicate) {
  DirtyScope vertex_l1;
  vertex_l1.vertices_changed = true;
  vertex_l1.vertex_labels = {1};
  DirtyScope edge_l0;
  edge_l0.edges_changed = true;
  edge_l0.edge_labels = {0};

  const ResultCacheScope wildcard;  // conservative default
  EXPECT_TRUE(scope_affected(wildcard, vertex_l1));
  EXPECT_TRUE(scope_affected(wildcard, edge_l0));

  ResultCacheScope narrow;
  narrow.all_vertex_labels = false;
  narrow.vertex_labels = {0};
  narrow.all_edge_labels = false;
  narrow.edge_labels = {2};
  EXPECT_FALSE(scope_affected(narrow, vertex_l1));
  EXPECT_FALSE(scope_affected(narrow, edge_l0));
  DirtyScope vertex_l0;
  vertex_l0.vertices_changed = true;
  vertex_l0.vertex_labels = {0};
  EXPECT_TRUE(scope_affected(narrow, vertex_l0));

  ResultCacheScope scan_only;  // a plan with no edge hops at all
  scan_only.all_vertex_labels = false;
  scan_only.vertex_labels = {0};
  scan_only.all_edge_labels = false;
  EXPECT_FALSE(scope_affected(scan_only, edge_l0))
      << "edge-only updates cannot change a pure vertex scan";
}

TEST(ResultCacheScopeTest, PlanFootprintExtraction) {
  const Graph g = synthetic::make_random({16, 36, 2, 2, false, 7});
  const auto scope_of = [&g](const std::string& text) {
    return result_cache_scope(plan_query(pgql::parse(text), g.catalog()));
  };

  const auto anchored =
      scope_of("SELECT COUNT(*) FROM MATCH (a:L0) -/:e1+/-> (b)");
  EXPECT_FALSE(anchored.all_vertex_labels);
  ASSERT_EQ(anchored.vertex_labels.size(), 1u);
  EXPECT_FALSE(anchored.all_edge_labels);
  ASSERT_EQ(anchored.edge_labels.size(), 1u);

  const auto wild = scope_of("SELECT COUNT(*) FROM MATCH (a) -/:e0*/-> (b)");
  EXPECT_TRUE(wild.all_vertex_labels) << "unlabelled scan = vertex wildcard";
  EXPECT_FALSE(wild.all_edge_labels);

  const auto scan = scope_of("SELECT COUNT(*) FROM MATCH (a:L1)");
  EXPECT_FALSE(scan.all_vertex_labels);
  EXPECT_FALSE(scan.all_edge_labels);
  EXPECT_TRUE(scan.edge_labels.empty())
      << "a hop-less plan is immune to edge updates";

  const auto multi =
      scope_of("SELECT COUNT(*) FROM MATCH (a:L0) -/:e0|e1{1,3}/-> (b:L1)");
  EXPECT_FALSE(multi.all_edge_labels);
  EXPECT_EQ(multi.edge_labels.size(), 2u) << "hop alternation unions";
}

// ---- satellite: deadline re-checked at dispatch -------------------------

TEST(UpdateSchedulerTest, QueuedPastDeadlineAbortsAtDispatch) {
  // An unbounded exploration (cycle, reachability index off, no depth
  // cap) occupies the single in-flight slot until the engine's deadline
  // watchdog kills it — so everything queued behind it has, by
  // construction, out-waited the deadline when its turn comes.
  EngineConfig ec = small_config();
  ec.use_reachability_index = false;
  ec.query_deadline_ms = 40;
  Database db(synthetic::make_cycle(8), 2, ec);
  SchedulerConfig sc;
  sc.max_inflight = 1;
  sc.max_queued = 8;
  db.configure_scheduler(sc);

  const std::string slow = "SELECT COUNT(*) FROM MATCH (a) -/:next*/-> (b)";
  QueryTicket hog = db.submit(slow);
  QueryTicket q1 = db.submit("SELECT COUNT(*) FROM MATCH (a)");
  QueryTicket q2 = db.submit("SELECT COUNT(*) FROM MATCH (b)");

  const QueryResult hog_result = db.await(hog);
  EXPECT_TRUE(hog_result.aborted);
  EXPECT_EQ(hog_result.abort_reason, AbortReason::kDeadline);

  // The regression this locks: the scheduler used to dispatch queued
  // submissions with no deadline re-check, so q1/q2 would RUN (and
  // likely complete) long after their deadline passed.
  for (QueryTicket* t : {&q1, &q2}) {
    const QueryResult r = db.await(*t);
    EXPECT_TRUE(r.aborted);
    EXPECT_EQ(r.abort_reason, AbortReason::kDeadline);
    EXPECT_GE(r.stats.queue_ms, 40.0);
  }
  EXPECT_GE(db.scheduler_stats().deadline_lapsed_in_queue, 1u);
}

// ---- scheduled path pins the admission snapshot -------------------------

TEST(UpdateSchedulerTest, SubmitPinsTheEpochAtAdmission) {
  EngineConfig ec = small_config();
  ec.result_cache_max_bytes = 1 << 20;
  Database db(synthetic::make_chain(4), 2, ec);

  QueryResult r0 = db.await(db.submit(kChainPlus));
  EXPECT_EQ(r0.count, 6u);
  EXPECT_EQ(r0.stats.snapshot_epoch, 0u);

  UpdateBatch batch;
  batch.edge_inserts.push_back({3, 0, elabel(db, "next")});
  db.apply_update(batch);

  QueryResult r1 = db.await(db.submit(kChainPlus));
  EXPECT_EQ(r1.count, 16u) << "stale result after update on submit path";
  EXPECT_EQ(r1.stats.snapshot_epoch, 1u);
  EXPECT_FALSE(r1.stats.result_cache_hit);

  // Warm again at the new epoch: now it may hit.
  QueryResult r2 = db.await(db.submit(kChainPlus));
  EXPECT_EQ(r2.count, 16u);
  EXPECT_TRUE(r2.stats.result_cache_hit);
}

// ---- regression corpus replay -------------------------------------------

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

/// Parses the corpus batch mini-language (see updates_corpus.txt header).
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
    if (op.rfind("av:", 0) == 0) {
      VertexInsert vi;
      vi.label = vlabel(db, a.c_str());
      batch.vertex_inserts.push_back(vi);
    } else if (op.rfind("ae:", 0) == 0) {
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

struct UpdateCorpusEntry {
  std::string graph_spec;
  unsigned machines = 1;
  std::string schedule;
  std::uint64_t fault_seed = 0;
  std::string mode;
  std::string batch;
  std::string query;
  std::string source;
};

std::vector<UpdateCorpusEntry> load_update_corpus() {
  std::vector<UpdateCorpusEntry> entries;
  for (const auto& file :
       std::filesystem::directory_iterator(RPQD_UPDATE_CORPUS_DIR)) {
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
      UpdateCorpusEntry e;
      std::istringstream head(line.substr(0, bar1));
      head >> e.graph_spec >> e.machines >> e.schedule >> e.fault_seed >>
          e.mode;
      if (head.fail()) {
        ADD_FAILURE() << "malformed corpus line " << file.path() << ":"
                      << lineno;
        continue;
      }
      e.batch = line.substr(bar1 + 1, bar2 - bar1 - 1);
      e.query = line.substr(bar2 + 1);
      e.query.erase(0, e.query.find_first_not_of(' '));
      e.source =
          file.path().filename().string() + ":" + std::to_string(lineno);
      entries.push_back(std::move(e));
    }
  }
  return entries;
}

TEST(UpdateCorpusReplay, AllEntriesAgreeWithOracleOnTheirPinnedEpoch) {
  const auto entries = load_update_corpus();
  ASSERT_FALSE(entries.empty()) << "update corpus empty: "
                                << RPQD_UPDATE_CORPUS_DIR;
  for (const auto& e : entries) {
    SCOPED_TRACE(e.source + " mode=" + e.mode + " query=" + e.query);
    EngineConfig ec = small_config();
    ec.result_cache_max_bytes = 1 << 20;
    Database db(make_graph(e.graph_spec), e.machines, ec);
    db.set_fault_schedule(e.schedule, e.fault_seed);

    const std::uint64_t cold_expected =
        baseline::reference_evaluate(e.query, *db.materialize_snapshot(0))
            .count;
    EXPECT_EQ(db.query(e.query).count, cold_expected);
    const QueryResult warm = db.query(e.query);
    EXPECT_EQ(warm.count, cold_expected);
    ASSERT_TRUE(warm.stats.result_cache_hit) << "cache failed to warm";

    const UpdateBatch batch = parse_batch(db, e.batch);
    if (e.mode == "atomic-fail") {
      EXPECT_THROW(db.apply_update(batch), QueryError);
      EXPECT_EQ(db.graph_epoch(), 0u);
      const QueryResult again = db.query(e.query);
      EXPECT_EQ(again.count, cold_expected);
      EXPECT_TRUE(again.stats.result_cache_hit)
          << "a rejected batch must not invalidate anything";
    } else if (e.mode == "warm") {
      db.apply_update(batch);
      const std::uint64_t fresh_expected =
          baseline::reference_evaluate(
              e.query, *db.materialize_snapshot(db.graph_epoch()))
              .count;
      const QueryResult after = db.query(e.query);
      EXPECT_EQ(after.count, fresh_expected);
      EXPECT_FALSE(after.stats.result_cache_hit)
          << "stale cached result served after the update";
      EXPECT_EQ(after.stats.snapshot_epoch, db.graph_epoch());
    } else {
      ADD_FAILURE() << "unknown corpus mode " << e.mode;
    }
  }
}

}  // namespace
}  // namespace rpqd
