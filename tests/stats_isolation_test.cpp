// Regression tests locking the per-query stats isolation invariant:
// every query on a long-lived Database gets fresh NetStats, flow-control,
// reachability-index, and profile state — counters never bleed from one
// query into the next. The engine guarantees this by construction (a
// fresh Network/MachineRuntime set per run); these tests pin it against
// future refactors that might cache or pool that state.
//
// Determinism note: with one worker per machine on acyclic chain graphs
// the traversal set — and therefore count, contexts_sent, RPQ matches,
// index entries, and max depth — is schedule-independent. Message/byte
// counts depend on flush boundaries and are deliberately NOT compared.
#include <gtest/gtest.h>

#include <string>

#include "api/rpqd.h"
#include "ldbc/synthetic.h"
#include "runtime/profile.h"

namespace rpqd {
namespace {

EngineConfig iso_config() {
  EngineConfig cfg;
  cfg.workers_per_machine = 1;  // deterministic traversal accounting
  cfg.buffers_per_machine = 64;
  cfg.buffer_bytes = 256;
  return cfg;
}

constexpr const char* kHeavy = "SELECT COUNT(*) FROM MATCH (a) -/:next+/-> (b)";
constexpr const char* kLight =
    "SELECT COUNT(*) FROM MATCH (a) -/:next{1,2}/-> (b)";

TEST(StatsIsolation, BackToBackQueriesAreIndependent) {
  Database db(synthetic::make_chain(14), 3, iso_config());
  const QueryResult heavy = db.query(kHeavy);
  const QueryResult light = db.query(kLight);

  // Reference: the same light query on a Database that never ran the
  // heavy one. Identical deterministic counters ⇒ nothing leaked.
  Database fresh(synthetic::make_chain(14), 3, iso_config());
  const QueryResult baseline = fresh.query(kLight);

  EXPECT_EQ(light.count, baseline.count);
  EXPECT_EQ(light.stats.contexts_sent, baseline.stats.contexts_sent);
  ASSERT_EQ(light.stats.rpq.size(), baseline.stats.rpq.size());
  for (std::size_t g = 0; g < light.stats.rpq.size(); ++g) {
    EXPECT_EQ(light.stats.rpq[g].total_matches(),
              baseline.stats.rpq[g].total_matches());
    EXPECT_EQ(light.stats.rpq[g].total_eliminated(),
              baseline.stats.rpq[g].total_eliminated());
    EXPECT_EQ(light.stats.rpq[g].index_entries,
              baseline.stats.rpq[g].index_entries);
    EXPECT_EQ(light.stats.rpq[g].max_depth_observed,
              baseline.stats.rpq[g].max_depth_observed);
  }
  ASSERT_EQ(light.stats.stages.size(), baseline.stats.stages.size());
  for (std::size_t s = 0; s < light.stats.stages.size(); ++s) {
    EXPECT_EQ(light.stats.stages[s].visits, baseline.stats.stages[s].visits);
    EXPECT_EQ(light.stats.stages[s].remote_out,
              baseline.stats.stages[s].remote_out);
  }
  // Sanity: the heavy query really did dwarf the light one, so leaked
  // accumulation would have been visible in the equalities above.
  EXPECT_GT(heavy.stats.contexts_sent, light.stats.contexts_sent);
  EXPECT_GT(heavy.stats.rpq[0].total_matches(),
            light.stats.rpq[0].total_matches());
  // Credit books are clean after every run, in both orders.
  for (const QueryResult* r : {&heavy, &light, &baseline}) {
    EXPECT_EQ(r->stats.flow_outstanding, 0u);
    EXPECT_EQ(r->stats.flow_overflow_outstanding, 0u);
    EXPECT_NE(r->abort_reason, AbortReason::kCreditStarvation);
  }
}

TEST(StatsIsolation, PeakQueuedBytesIsPerQuery) {
  // peak_queued_bytes is a per-query high-water mark: a light query after
  // a heavy one must not inherit the heavy query's peak.
  Database db(synthetic::make_chain(14), 3, iso_config());
  const QueryResult heavy = db.query(kHeavy);
  const QueryResult light = db.query(kLight);
  EXPECT_GT(heavy.stats.peak_queued_bytes, 0u);
  EXPECT_LE(light.stats.peak_queued_bytes, heavy.stats.peak_queued_bytes);
}

TEST(StatsIsolation, ProfileStateDoesNotLeakAcrossQueries) {
  Database db(synthetic::make_chain(12), 3, iso_config());
  const QueryResult prof = db.query(std::string("PROFILE ") + kHeavy);
  ASSERT_TRUE(prof.profile.enabled);
  const std::uint64_t contexts_first = prof.profile.total_contexts();
  // An unprofiled query in between allocates nothing.
  const std::uint64_t before = profile_allocations();
  EXPECT_FALSE(db.query(kHeavy).profile.enabled);
  EXPECT_EQ(profile_allocations(), before);
  // A second profiled run starts from a zeroed tree, not the first's.
  const QueryResult again = db.query(std::string("PROFILE ") + kHeavy);
  EXPECT_EQ(again.profile.total_contexts(), contexts_first);
  EXPECT_EQ(again.profile.total_ctx_sent(), prof.profile.total_ctx_sent());
}

// ---- concurrent serving (runtime/scheduler.h) -------------------------
// The isolation bar while queries OVERLAP: per-query stats, profile
// trees, and credit books must reconcile exactly as if each query ran
// alone. This doubles as the NetStats aliasing audit regression: every
// NetStats / peak_queued_bytes counter hangs off the run's own Network
// (see the audit note in net/network.h), so a heavy neighbour must not
// bleed into a light query's numbers. The deliberately engine-global
// counters (fault_run_seq_, epoch_seq_ — see runtime/engine.h) are
// excluded by design and documented there.

TEST(StatsIsolation, OverlappingQueriesReconcileExactly) {
  Database db(synthetic::make_chain(14), 3, iso_config());
  SchedulerConfig sc;
  sc.max_inflight = 2;
  db.configure_scheduler(sc);

  // Both queries in flight together, both profiled.
  QueryTicket theavy = db.submit(std::string("PROFILE ") + kHeavy);
  QueryTicket tlight = db.submit(std::string("PROFILE ") + kLight);
  const QueryResult heavy = db.await(theavy);
  const QueryResult light = db.await(tlight);
  ASSERT_FALSE(heavy.aborted);
  ASSERT_FALSE(light.aborted);

  // Solo references on a database that never served concurrently.
  Database fresh(synthetic::make_chain(14), 3, iso_config());
  const QueryResult solo_heavy = fresh.query(std::string("PROFILE ") + kHeavy);
  const QueryResult solo_light = fresh.query(std::string("PROFILE ") + kLight);

  const auto expect_identical = [](const QueryResult& got,
                                   const QueryResult& solo) {
    EXPECT_EQ(got.count, solo.count);
    EXPECT_EQ(got.stats.contexts_sent, solo.stats.contexts_sent);
    ASSERT_EQ(got.stats.rpq.size(), solo.stats.rpq.size());
    for (std::size_t g = 0; g < got.stats.rpq.size(); ++g) {
      EXPECT_EQ(got.stats.rpq[g].total_matches(),
                solo.stats.rpq[g].total_matches());
      EXPECT_EQ(got.stats.rpq[g].total_eliminated(),
                solo.stats.rpq[g].total_eliminated());
      EXPECT_EQ(got.stats.rpq[g].index_entries,
                solo.stats.rpq[g].index_entries);
      EXPECT_EQ(got.stats.rpq[g].max_depth_observed,
                solo.stats.rpq[g].max_depth_observed);
    }
    ASSERT_EQ(got.stats.stages.size(), solo.stats.stages.size());
    for (std::size_t s = 0; s < got.stats.stages.size(); ++s) {
      EXPECT_EQ(got.stats.stages[s].visits, solo.stats.stages[s].visits);
      EXPECT_EQ(got.stats.stages[s].remote_out,
                solo.stats.stages[s].remote_out);
    }
    // The profile tree reconciles against the run's OWN fabric counters
    // even while a neighbour's fabric is live.
    ASSERT_TRUE(got.profile.enabled);
    EXPECT_EQ(got.profile.total_ctx_sent(), got.stats.contexts_sent);
    EXPECT_EQ(got.profile.total_ctx_received(), got.stats.contexts_sent);
    EXPECT_EQ(got.profile.total_msgs_sent(), got.stats.data_messages);
    EXPECT_EQ(got.profile.total_contexts(), solo.profile.total_contexts());
  };
  expect_identical(light, solo_light);
  expect_identical(heavy, solo_heavy);

  // NetStats aliasing audit: the light query's byte high-water mark must
  // not inherit the heavy neighbour's (aliased counters would equalize).
  EXPECT_GT(heavy.stats.peak_queued_bytes, 0u);
  EXPECT_LE(light.stats.peak_queued_bytes, heavy.stats.peak_queued_bytes);
  for (const QueryResult* r : {&heavy, &light}) {
    EXPECT_EQ(r->stats.flow_outstanding, 0u);
    EXPECT_EQ(r->stats.flow_overflow_outstanding, 0u);
  }
}

TEST(StatsIsolation, MixedCancelCompleteWaveLeavesBooksClean) {
  // A wave where some queries are cancelled mid-flight and the rest
  // complete: after the wave, every result's credit ledger reads zero
  // outstanding and empty overflow — cancelled runs drain too.
  EngineConfig cfg = iso_config();
  cfg.use_reachability_index = false;  // blockers explore ~unboundedly
  cfg.max_exploration_depth = 64;
  Database db(synthetic::make_complete(10), 3, cfg);
  const char* kBlocker = "SELECT COUNT(*) FROM MATCH (a) -/:edge*/-> (b)";
  const char* kCheap = "SELECT COUNT(*) FROM MATCH (a) -/:edge{1,1}/-> (b)";
  const std::uint64_t cheap_expected = db.query(kCheap).count;

  SchedulerConfig sc;
  sc.max_inflight = 2;
  sc.max_queued = 8;
  db.configure_scheduler(sc);

  QueryTicket b1 = db.submit(kBlocker);
  QueryTicket b2 = db.submit(kBlocker);
  QueryTicket c1 = db.submit(kCheap);  // queued behind the blockers
  QueryTicket c2 = db.submit(kCheap);
  EXPECT_TRUE(db.cancel(b1));
  EXPECT_TRUE(db.cancel(b2));

  unsigned completed = 0, cancelled = 0;
  for (const QueryTicket* t : {&b1, &b2, &c1, &c2}) {
    const QueryResult r = db.await(*t);
    EXPECT_EQ(r.stats.flow_outstanding, 0u);
    EXPECT_EQ(r.stats.flow_overflow_outstanding, 0u);
    if (r.aborted) {
      ++cancelled;
      EXPECT_EQ(r.abort_reason, AbortReason::kUserCancel);
    } else {
      ++completed;
      EXPECT_EQ(r.count, cheap_expected);
    }
  }
  EXPECT_EQ(cancelled, 2u);
  EXPECT_EQ(completed, 2u);
  // The database serves normally after the mixed wave.
  EXPECT_EQ(db.query(kCheap).count, cheap_expected);
}

}  // namespace
}  // namespace rpqd
