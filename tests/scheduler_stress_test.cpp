// Scheduler stress: many submitter threads racing submit/await/cancel
// against the dispatcher pool, with fault schedules rotating mid-wave.
//
// The gtest-discovered test is the fast tier-1 smoke; the
// acceptance-scale version (more threads, more waves, random cancel
// timing) runs under the `tier2-concurrent` ctest label and must be
// green under TSan (tier2-concurrent-tsan preset) — it is the data-race
// gate for the whole serving path.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "api/rpqd.h"
#include "ldbc/synthetic.h"

namespace rpqd {
namespace {

const char* const kQueries[] = {
    "SELECT COUNT(*) FROM MATCH (a) -/:next+/-> (b)",
    "SELECT COUNT(*) FROM MATCH (a) -/:next{2,5}/-> (b)",
    "SELECT COUNT(*) FROM MATCH (a) -/:next*/-> (b)",
    "PROFILE SELECT COUNT(*) FROM MATCH (a) -/:next{1,3}/-> (b)",
};
constexpr std::size_t kNumQueries = sizeof(kQueries) / sizeof(kQueries[0]);

struct StressShape {
  unsigned submitter_threads = 2;
  unsigned submissions_per_thread = 6;
  unsigned waves = 1;
  bool rotate_schedules = false;
  std::uint64_t seed = 7;
};

/// Drives `shape` and checks the books: every redeemed ticket carries a
/// quiescent flow ledger, expected counts match the solo oracle for
/// clean runs, and the scheduler stats balance exactly.
void run_stress(const StressShape& shape) {
  EngineConfig cfg;
  cfg.workers_per_machine = 1;
  cfg.buffers_per_machine = 48;
  cfg.buffer_bytes = 256;
  Database db(synthetic::make_chain(16), 3, cfg);

  // Solo oracle counts, computed on the blocking path up front.
  std::uint64_t oracle[kNumQueries];
  for (std::size_t i = 0; i < kNumQueries; ++i) {
    const QueryResult r = db.query(kQueries[i]);
    ASSERT_FALSE(r.aborted);
    oracle[i] = r.count;
  }

  SchedulerConfig sc;
  sc.max_inflight = 3;
  sc.max_queued = 256;  // big enough that this shape never rejects
  db.configure_scheduler(sc);

  // Non-crashing schedules only: crash-stop has its own concurrent
  // differential test (exactly-one-victim semantics).
  const char* const schedules[] = {"none", "reorder", "dup-storm",
                                   "credit-jitter"};
  std::atomic<std::uint64_t> clean{0}, cancelled{0};
  for (unsigned wave = 0; wave < shape.waves; ++wave) {
    if (shape.rotate_schedules) {
      db.set_fault_schedule(schedules[wave % 4], shape.seed + wave);
    }
    std::vector<std::thread> submitters;
    for (unsigned t = 0; t < shape.submitter_threads; ++t) {
      submitters.emplace_back([&, t, wave] {
        std::mt19937_64 rng(shape.seed * 7919 + wave * 131 + t);
        for (unsigned i = 0; i < shape.submissions_per_thread; ++i) {
          const std::size_t q = rng() % kNumQueries;
          QueryTicket ticket = db.submit(kQueries[q]);
          ASSERT_TRUE(ticket.valid());
          ASSERT_NE(ticket.admission(), AdmissionOutcome::kRejected)
              << to_string(ticket.reject_reason());
          // A third of submissions get a racing cancel at a random point
          // of their lifetime (possibly before dispatch, possibly after
          // completion — all three races must be benign).
          if (rng() % 3 == 0) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(rng() % 500));
            db.cancel(ticket);
          }
          const QueryResult r = db.await(ticket);
          EXPECT_EQ(r.stats.flow_outstanding, 0u);
          EXPECT_EQ(r.stats.flow_overflow_outstanding, 0u);
          if (r.aborted) {
            EXPECT_EQ(r.abort_reason, AbortReason::kUserCancel);
            cancelled.fetch_add(1, std::memory_order_relaxed);
          } else {
            EXPECT_EQ(r.count, oracle[q]) << kQueries[q];
            clean.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (auto& t : submitters) t.join();
  }

  const std::uint64_t total = static_cast<std::uint64_t>(
      shape.submitter_threads * shape.submissions_per_thread * shape.waves);
  EXPECT_EQ(clean.load() + cancelled.load(), total);
  const SchedulerStats stats = db.scheduler_stats();
  EXPECT_EQ(stats.submitted, total);
  EXPECT_EQ(stats.rejected(), 0u);
  EXPECT_EQ(stats.completed + stats.cancelled_while_queued, total);
  EXPECT_EQ(stats.admitted + stats.queued, total);
  EXPECT_LE(stats.peak_inflight, 3u);

  // The database stays serviceable after the storm.
  db.set_fault_schedule("none", 1);
  const QueryResult after = db.query(kQueries[0]);
  EXPECT_FALSE(after.aborted);
  EXPECT_EQ(after.count, oracle[0]);
}

TEST(SchedulerStress, SmokeConcurrentSubmitCancel) {
  run_stress(StressShape{});
}

TEST(SchedulerStress, SmokeWithFaultSchedules) {
  StressShape shape;
  shape.waves = 2;
  shape.rotate_schedules = true;
  shape.seed = 21;
  run_stress(shape);
}

// Acceptance-scale stress (tier2-concurrent label; TSan gate). Skipped
// unless RPQD_TIER2_CONCURRENT=1 — ctest sets it via the tier2 preset.
TEST(SchedulerStress, Tier2ConcurrentStress) {
  if (std::getenv("RPQD_TIER2_CONCURRENT") == nullptr) {
    GTEST_SKIP() << "set RPQD_TIER2_CONCURRENT=1 (or ctest -L "
                    "tier2-concurrent) for the acceptance-scale stress";
  }
  for (std::uint64_t seed : {101u, 202u, 303u}) {
    StressShape shape;
    shape.submitter_threads = 4;
    shape.submissions_per_thread = 10;
    shape.waves = 4;
    shape.rotate_schedules = true;
    shape.seed = seed;
    run_stress(shape);
  }
}

}  // namespace
}  // namespace rpqd
