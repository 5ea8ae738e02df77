// Concurrent multi-query serving: admission control, typed rejections,
// per-query credit partitions, budget slicing, targeted cancellation,
// and the async submit/await lifecycle (runtime/scheduler.h).
//
// Determinism notes: admission outcomes that depend on a slot staying
// busy are pinned with a "blocker" query — an effectively unbounded
// exploration (index off, generous depth valve) that only finishes via
// cooperative cancel — so the tests never race a fast query's natural
// completion.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/rpqd.h"
#include "ldbc/synthetic.h"

namespace rpqd {
namespace {

constexpr const char* kChainAll =
    "SELECT COUNT(*) FROM MATCH (a) -/:next+/-> (b)";
constexpr const char* kBlocker =
    "SELECT COUNT(*) FROM MATCH (a) -/:edge*/-> (b)";

EngineConfig small_config() {
  EngineConfig cfg;
  cfg.workers_per_machine = 1;
  cfg.buffers_per_machine = 64;
  cfg.buffer_bytes = 256;
  return cfg;
}

/// A Database whose kBlocker query explores a complete graph with the
/// reachability index off: astronomically more work than any test waits
/// for, so an admitted blocker holds its slot until cancelled.
Database blocker_db(unsigned machines = 2) {
  EngineConfig cfg = small_config();
  cfg.use_reachability_index = false;
  cfg.max_exploration_depth = 64;
  return Database(synthetic::make_complete(10), machines, cfg);
}

TEST(Scheduler, SubmitAwaitMatchesBlockingRun) {
  Database db(synthetic::make_chain(12), 3, small_config());
  const QueryResult blocking = db.query(kChainAll);

  std::vector<QueryTicket> tickets;
  for (int i = 0; i < 4; ++i) tickets.push_back(db.submit(kChainAll));
  for (const auto& t : tickets) {
    ASSERT_TRUE(t.valid());
    EXPECT_NE(t.admission(), AdmissionOutcome::kRejected);
    const QueryResult r = db.await(t);
    EXPECT_FALSE(r.aborted);
    EXPECT_EQ(r.count, blocking.count);
    EXPECT_EQ(r.stats.flow_outstanding, 0u);
    EXPECT_EQ(r.stats.flow_overflow_outstanding, 0u);
    // Default scheduler: 4 slots, equal credit partitions.
    EXPECT_DOUBLE_EQ(r.stats.credit_partition_share, 0.25);
    EXPECT_GE(r.stats.queue_ms, 0.0);
  }
  const SchedulerStats stats = db.scheduler_stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.rejected(), 0u);
  EXPECT_GE(stats.peak_inflight, 1u);
  // await is repeatable.
  EXPECT_EQ(db.await(tickets[0]).count, blocking.count);
}

TEST(Scheduler, QueueFullRejectsWithTypedReason) {
  Database db = blocker_db();
  SchedulerConfig sc;
  sc.max_inflight = 1;
  sc.max_queued = 1;
  db.configure_scheduler(sc);

  QueryTicket blocker = db.submit(kBlocker);
  QueryTicket waiting = db.submit(kBlocker);
  QueryTicket rejected = db.submit(kBlocker);

  EXPECT_NE(blocker.admission(), AdmissionOutcome::kRejected);
  EXPECT_NE(waiting.admission(), AdmissionOutcome::kRejected);
  ASSERT_EQ(rejected.admission(), AdmissionOutcome::kRejected);
  EXPECT_EQ(rejected.reject_reason(), AdmissionReject::kQueueFull);

  // The rejected query never ran; its result is typed and immediate.
  const QueryResult rr = db.await(rejected);
  EXPECT_TRUE(rr.aborted);
  EXPECT_EQ(rr.abort_reason, AbortReason::kAdmissionReject);
  EXPECT_EQ(rr.count, 0u);

  // Unwind: cancel both live submissions; everything drains clean.
  EXPECT_TRUE(db.cancel(waiting));
  EXPECT_TRUE(db.cancel(blocker));
  for (const auto* t : {&blocker, &waiting}) {
    const QueryResult r = db.await(*t);
    EXPECT_TRUE(r.aborted);
    EXPECT_EQ(r.abort_reason, AbortReason::kUserCancel);
    EXPECT_EQ(r.stats.flow_outstanding, 0u);
    EXPECT_EQ(r.stats.flow_overflow_outstanding, 0u);
  }
  const SchedulerStats stats = db.scheduler_stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.rejected_queue_full, 1u);
  // The waiting query was cancelled in the queue or (if dispatch won the
  // race) as a live run; either way the books balance.
  EXPECT_EQ(stats.completed + stats.cancelled_while_queued, 2u);

  // The database stays fully reusable after the wave.
  Database fresh = blocker_db();
  EXPECT_EQ(db.query(kChainAll).count, fresh.query(kChainAll).count);
}

TEST(Scheduler, ImpossibleBudgetRejectsEverySubmission) {
  // Per-query budget 100 can never fit under a global ceiling of 50:
  // zero slots, typed rejection before anything runs.
  EngineConfig cfg = small_config();
  cfg.max_live_contexts = 100;
  Database db(synthetic::make_chain(8), 2, cfg);
  SchedulerConfig sc;
  sc.global_max_live_contexts = 50;
  db.configure_scheduler(sc);

  EXPECT_EQ(db.scheduler_slots(), 0u);
  QueryTicket t = db.submit(kChainAll);
  ASSERT_EQ(t.admission(), AdmissionOutcome::kRejected);
  EXPECT_EQ(t.reject_reason(), AdmissionReject::kContextBudget);
  EXPECT_TRUE(db.await(t).aborted);
  EXPECT_EQ(db.scheduler_stats().rejected_context_budget, 1u);
}

TEST(Scheduler, ImpossibleReachIndexBudgetRejects) {
  EngineConfig cfg = small_config();
  cfg.reach_index_max_bytes = 1 << 20;
  Database db(synthetic::make_chain(8), 2, cfg);
  SchedulerConfig sc;
  sc.global_reach_index_max_bytes = 1 << 10;
  db.configure_scheduler(sc);
  QueryTicket t = db.submit(kChainAll);
  ASSERT_EQ(t.admission(), AdmissionOutcome::kRejected);
  EXPECT_EQ(t.reject_reason(), AdmissionReject::kReachIndexBudget);
}

TEST(Scheduler, GlobalBudgetCapsSlotsAndPartitions) {
  // 4 requested slots, but only two 100-context queries fit under a
  // global ceiling of 250: slots = 2, credit partitions = 1/2 each.
  EngineConfig cfg = small_config();
  cfg.max_live_contexts = 100;
  Database db(synthetic::make_chain(10), 2, cfg);
  SchedulerConfig sc;
  sc.max_inflight = 4;
  sc.global_max_live_contexts = 250;
  db.configure_scheduler(sc);

  EXPECT_EQ(db.scheduler_slots(), 2u);
  QueryTicket t = db.submit(kChainAll);
  const QueryResult r = db.await(t);
  EXPECT_FALSE(r.aborted);
  EXPECT_DOUBLE_EQ(r.stats.credit_partition_share, 0.5);
}

TEST(Scheduler, GlobalBudgetSliceTripsContextAbort) {
  // No per-query budget on the engine: each of the 2 slots runs under an
  // equal slice (here 1 live context), so a traversal that stacks frames
  // trips the sliced budget as a clean per-query abort.
  Database db(synthetic::make_chain(12), 2, small_config());
  SchedulerConfig sc;
  sc.max_inflight = 2;
  sc.global_max_live_contexts = 2;  // slice = 1 per query
  db.configure_scheduler(sc);

  const QueryResult r = db.await(db.submit(kChainAll));
  EXPECT_TRUE(r.aborted);
  EXPECT_EQ(r.abort_reason, AbortReason::kContextBudget);
  EXPECT_EQ(r.stats.flow_outstanding, 0u);
  EXPECT_EQ(r.stats.flow_overflow_outstanding, 0u);
}

TEST(Scheduler, FairnessKnobAndPartitionAblation) {
  Database db(synthetic::make_chain(10), 2, small_config());
  {
    SchedulerConfig sc;
    sc.max_inflight = 8;
    sc.min_credit_share = 0.5;  // fairness floor beats the 1/8 split
    db.configure_scheduler(sc);
    const QueryResult r = db.await(db.submit(kChainAll));
    EXPECT_DOUBLE_EQ(r.stats.credit_partition_share, 0.5);
  }
  {
    SchedulerConfig sc;
    sc.max_inflight = 8;
    sc.partition_credits = false;  // ablation: whole allowance per query
    db.configure_scheduler(sc);
    const QueryResult r = db.await(db.submit(kChainAll));
    EXPECT_DOUBLE_EQ(r.stats.credit_partition_share, 1.0);
  }
}

TEST(Scheduler, ThinPartitionStaysLiveAndCorrect) {
  // 16 buffers split 8 ways is far below one buffer per slot; the §3.3
  // progress floors (2 per slot + 1 shared) keep every partition live,
  // and correctness is unaffected — only throughput may degrade.
  EngineConfig cfg = small_config();
  cfg.buffers_per_machine = 16;
  Database db(synthetic::make_chain(14), 3, cfg);
  const QueryResult blocking = db.query(kChainAll);
  SchedulerConfig sc;
  sc.max_inflight = 8;
  db.configure_scheduler(sc);
  std::vector<QueryTicket> tickets;
  for (int i = 0; i < 8; ++i) tickets.push_back(db.submit(kChainAll));
  for (const auto& t : tickets) {
    const QueryResult r = db.await(t);
    EXPECT_FALSE(r.aborted);
    EXPECT_EQ(r.count, blocking.count);
    EXPECT_EQ(r.stats.flow_outstanding, 0u);
  }
}

TEST(Scheduler, ProfilePrefixOnSubmit) {
  Database db(synthetic::make_chain(10), 2, small_config());
  const QueryResult r =
      db.await(db.submit(std::string("PROFILE ") + kChainAll));
  ASSERT_TRUE(r.profile.enabled);
  EXPECT_EQ(r.profile.total_ctx_sent(), r.stats.contexts_sent);
  EXPECT_FALSE(db.await(db.submit(kChainAll)).profile.enabled);
}

TEST(Scheduler, CancelBeforeDispatchNeverRuns) {
  Database db = blocker_db();
  SchedulerConfig sc;
  sc.max_inflight = 1;
  sc.max_queued = 4;
  db.configure_scheduler(sc);
  QueryTicket blocker = db.submit(kBlocker);
  QueryTicket queued = db.submit(kChainAll);
  EXPECT_TRUE(db.cancel(queued));
  const QueryResult r = db.await(queued);
  EXPECT_TRUE(r.aborted);
  EXPECT_EQ(r.abort_reason, AbortReason::kUserCancel);
  // Never dispatched (or halted on arrival): no traversal work happened.
  EXPECT_EQ(r.count, 0u);
  db.cancel(blocker);
  EXPECT_TRUE(db.await(blocker).aborted);
}

TEST(Scheduler, CancelAllCoversQueuedAndRunning) {
  Database db = blocker_db();
  SchedulerConfig sc;
  sc.max_inflight = 2;
  sc.max_queued = 4;
  db.configure_scheduler(sc);
  std::vector<QueryTicket> tickets;
  for (int i = 0; i < 4; ++i) tickets.push_back(db.submit(kBlocker));
  EXPECT_GE(db.cancel_all(), 2u);
  for (const auto& t : tickets) {
    const QueryResult r = db.await(t);
    EXPECT_TRUE(r.aborted);
    EXPECT_EQ(r.stats.flow_outstanding, 0u);
    EXPECT_EQ(r.stats.flow_overflow_outstanding, 0u);
  }
}

TEST(Scheduler, ReconfigureCancelsPreviousGeneration) {
  Database db = blocker_db();
  SchedulerConfig sc;
  sc.max_inflight = 1;
  db.configure_scheduler(sc);
  QueryTicket blocker = db.submit(kBlocker);
  // Replacing the scheduler cooperatively aborts the old generation's
  // in-flight runs; the ticket stays redeemable.
  db.configure_scheduler(SchedulerConfig{});
  const QueryResult r = db.await(blocker);
  EXPECT_TRUE(r.aborted);
  EXPECT_EQ(r.abort_reason, AbortReason::kUserCancel);
  // The new generation serves normally.
  EXPECT_FALSE(db.await(db.submit(kChainAll)).aborted);
}

TEST(Scheduler, ParseErrorsThrowLikeBlockingPath) {
  Database db(synthetic::make_chain(6), 2, small_config());
  EXPECT_THROW(db.submit("SELECT FROM NONSENSE"), QueryError);
  // AdmissionReject round-trips through to_string for diagnostics.
  EXPECT_STREQ(to_string(AdmissionReject::kQueueFull), "queue-full");
  EXPECT_STREQ(to_string(AdmissionOutcome::kQueued), "queued");
  EXPECT_STREQ(to_string(AbortReason::kAdmissionReject), "admission-reject");
}

}  // namespace
}  // namespace rpqd
