// The engine's persistent worker pool: every job of a batch starts at
// once (jobs of one run wait on each other), threads are reused across
// batches, and a Database's OS thread count stops growing once the pool
// has reached the peak concurrent demand.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "api/rpqd.h"
#include "baseline/reference.h"
#include "ldbc/synthetic.h"
#include "runtime/worker_pool.h"

namespace rpqd {
namespace {

/// The process's OS thread count, from /proc/self/status.
std::size_t os_threads() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "Threads:") {
      std::size_t n = 0;
      status >> n;
      return n;
    }
    status.ignore(1 << 16, '\n');
  }
  ADD_FAILURE() << "no Threads: line in /proc/self/status";
  return 0;
}

/// os_threads() once it reads the same twice 1 ms apart: a thread that
/// was just joined can stay listed for a moment while the kernel reaps it.
std::size_t settled_os_threads() {
  std::size_t last = os_threads();
  for (int i = 0; i < 100; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const std::size_t now = os_threads();
    if (now == last) return now;
    last = now;
  }
  return last;
}

TEST(WorkerPool, JobsOfOneBatchRunAtOnce) {
  WorkerPool pool;
  for (const std::size_t n : {1u, 5u, 3u, 8u}) {
    // Each job waits until every job of its batch has started: this only
    // returns if all n run concurrently.
    std::atomic<std::size_t> started{0};
    pool.run(n, [&](std::size_t) {
      started.fetch_add(1);
      while (started.load() < n) std::this_thread::yield();
    });
    EXPECT_EQ(started.load(), n);
  }
  EXPECT_EQ(pool.size(), 8u);  // the high-water mark, not the sum
}

TEST(WorkerPool, ConcurrentBatchesEachGetTheirOwnThreads) {
  WorkerPool pool;
  constexpr std::size_t kCallers = 3;
  constexpr std::size_t kJobs = 4;
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool] {
      for (int round = 0; round < 50; ++round) {
        std::atomic<std::size_t> started{0};
        pool.run(kJobs, [&](std::size_t) {
          started.fetch_add(1);
          while (started.load() < kJobs) std::this_thread::yield();
        });
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_GE(pool.size(), kJobs);
  EXPECT_LE(pool.size(), kCallers * kJobs);
}

TEST(Runtime, WorkerThreadsAreReused) {
  constexpr unsigned kMachines = 4;
  constexpr unsigned kWorkers = 2;
  EngineConfig ec;
  ec.workers_per_machine = kWorkers;
  ec.buffers_per_machine = 48;
  ec.buffer_bytes = 256;
  // Armed but never reached: every run also starts the monitor job.
  ec.query_deadline_ms = 600'000;
  const Graph oracle = synthetic::make_random({60, 180, 3, 3, false, 11});
  Database db(synthetic::make_random({60, 180, 3, 3, false, 11}), kMachines,
              ec);
  const std::vector<std::string> texts = {
      "SELECT COUNT(*) FROM MATCH (a:L0) -/:e0+/-> (b)",
      "SELECT COUNT(*) FROM MATCH (a) -/:e1|e2{1,3}/-> (b:L1)",
      "SELECT COUNT(*) FROM MATCH (a) -[:e0]-> (b) -/:e1*/-> (c)",
      "SELECT COUNT(*) FROM MATCH (a:L2) -/:e0|e1|e2+/-> (b) WHERE a.id = 7",
  };
  std::vector<std::uint64_t> expected;
  for (const auto& text : texts) {
    expected.push_back(baseline::reference_evaluate(text, oracle).count);
  }
  const std::size_t jobs_per_run = kMachines * kWorkers + 1;

  const std::size_t before = settled_os_threads();
  EXPECT_EQ(db.query(texts[0]).count, expected[0]);
  const std::size_t after_first = os_threads();
  EXPECT_EQ(db.worker_threads(), jobs_per_run);
  EXPECT_EQ(after_first, before + db.worker_threads());
  for (int i = 1; i < 200; ++i) {
    const std::size_t q = static_cast<std::size_t>(i) % texts.size();
    ASSERT_EQ(db.query(texts[q]).count, expected[q]) << texts[q];
  }
  EXPECT_EQ(os_threads(), after_first);
  EXPECT_EQ(db.worker_threads(), jobs_per_run);

  // Four callers, each with one scheduled run and one blocking run in
  // flight at a time: at most eight concurrent runs.
  constexpr unsigned kCallers = 4;
  std::atomic<unsigned> mismatches{0};
  std::vector<std::thread> callers;
  for (unsigned c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (unsigned i = 0; i < 25; ++i) {
        const std::size_t a = (c + i) % texts.size();
        const std::size_t b = (c + i + 1) % texts.size();
        const QueryTicket ticket = db.submit(texts[a]);
        if (db.query(texts[b]).count != expected[b]) ++mismatches;
        const QueryResult scheduled = db.await(ticket);
        if (scheduled.aborted || scheduled.count != expected[a]) ++mismatches;
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
  const std::size_t peak_runs = 2 * kCallers;
  EXPECT_LE(db.worker_threads(), peak_runs * jobs_per_run);
  // The only other threads left are the scheduler's dispatchers.
  EXPECT_EQ(settled_os_threads(),
            before + db.worker_threads() + db.scheduler_slots());
}

}  // namespace
}  // namespace rpqd
