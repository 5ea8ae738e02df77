// Multi-threaded stress tests for the two lock-free hot paths: the
// reachability index's CAS claim protocol and the flow-control credit
// counters. Designed to run under -DRPQD_SANITIZE=thread (the tsan
// CMake preset); assertions also hold without instrumentation.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "net/flow_control.h"
#include "rpq/reach_index.h"
#include "rpq/rpid.h"

namespace rpqd {
namespace {

TEST(ConcurrencyStress, ReachIndexMixedWorkloadStaysConsistent) {
  // All threads hammer a small vertex range with overlapping keys at
  // random depths, forcing claim races, depth races, and segment growth
  // concurrently. Invariants: one kNew per distinct (vertex, rpid) pair,
  // every other call accounted as eliminated or duplicated, and each
  // surviving depth is the minimum ever written for its key.
  constexpr unsigned kThreads = 8;
  constexpr unsigned kVertices = 32;
  constexpr unsigned kRpids = 256;
  constexpr unsigned kOpsPerThread = 20000;
  ReachabilityIndex idx(kVertices, /*preallocate=*/true, /*num_shards=*/4);
  std::vector<std::vector<std::atomic<std::uint32_t>>> min_depth(kVertices);
  for (auto& row : min_depth) {
    row = std::vector<std::atomic<std::uint32_t>>(kRpids);
    for (auto& d : row) d.store(kUnboundedDepth, std::memory_order_relaxed);
  }
  std::atomic<std::uint64_t> new_count{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + t);
      for (unsigned i = 0; i < kOpsPerThread; ++i) {
        const auto v = static_cast<LocalVertexId>(rng.next_below(kVertices));
        const std::uint64_t r = rng.next_below(kRpids);
        const auto depth = static_cast<Depth>(1 + rng.next_below(64));
        // Track the true minimum independently of the index.
        auto& expected = min_depth[v][r];
        std::uint32_t seen = expected.load(std::memory_order_relaxed);
        while (depth < seen &&
               !expected.compare_exchange_weak(seen, depth,
                                               std::memory_order_relaxed)) {
        }
        if (idx.check_and_update(v, r, depth) == ReachOutcome::kNew) {
          new_count.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  const auto stats = idx.stats();
  EXPECT_EQ(stats.entries, new_count.load());
  EXPECT_EQ(stats.entries + stats.eliminated + stats.duplicated,
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  std::uint64_t touched = 0;
  for (unsigned v = 0; v < kVertices; ++v) {
    for (unsigned r = 0; r < kRpids; ++r) {
      const auto expected = min_depth[v][r].load(std::memory_order_relaxed);
      const auto stored = idx.lookup(v, r);
      if (expected == kUnboundedDepth) {
        EXPECT_FALSE(stored.has_value());
      } else {
        ++touched;
        ASSERT_TRUE(stored.has_value()) << "v=" << v << " r=" << r;
        EXPECT_EQ(*stored, expected) << "v=" << v << " r=" << r;
      }
    }
  }
  EXPECT_EQ(touched, stats.entries);
}

TEST(ConcurrencyStress, ReachIndexConcurrentGrowth) {
  // Distinct keys from every thread, small first segments: growth (the
  // next_segment CAS) races constantly. Every insert must be kNew and
  // every key must be findable afterwards.
  constexpr unsigned kThreads = 8;
  constexpr unsigned kPerThread = 4000;
  ReachabilityIndex idx(8, /*preallocate=*/false, /*num_shards=*/2);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (unsigned i = 0; i < kPerThread; ++i) {
        const auto rpid = make_rpid_source(0, static_cast<WorkerId>(t), i);
        const auto v = static_cast<LocalVertexId>(i % 8);
        EXPECT_EQ(idx.check_and_update(v, rpid, 1), ReachOutcome::kNew);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(idx.stats().entries,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  for (unsigned t = 0; t < kThreads; ++t) {
    for (unsigned i = 0; i < kPerThread; i += 97) {
      EXPECT_TRUE(
          idx.lookup(static_cast<LocalVertexId>(i % 8),
                     make_rpid_source(0, static_cast<WorkerId>(t), i))
              .has_value());
    }
  }
}

TEST(ConcurrencyStress, FlowControlCreditsConserve) {
  // Threads acquire and release credits against shared (dest, stage,
  // depth) coordinates. Credits must conserve: everything acquired is
  // released, outstanding returns to zero, and the dedicated pools
  // refill to allow further grants.
  constexpr unsigned kThreads = 8;
  constexpr unsigned kOpsPerThread = 20000;
  EngineConfig cfg;
  cfg.buffers_per_machine = 256;
  cfg.rpq_preallocated_depth = 4;
  cfg.rpq_shared_credits_per_stage = 3;
  FlowControl fc(cfg, 2, {false, true});
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(t);
      std::vector<std::tuple<MachineId, StageId, Depth, CreditClass>> held;
      for (unsigned i = 0; i < kOpsPerThread; ++i) {
        const auto dest = static_cast<MachineId>(rng.next_below(2));
        const auto stage = static_cast<StageId>(rng.next_below(2));
        const auto depth = static_cast<Depth>(rng.next_below(8));
        if (const auto c = fc.try_acquire(dest, stage, depth)) {
          held.emplace_back(dest, stage, depth, *c);
        }
        if (!held.empty() && rng.next_below(2) == 0) {
          const auto [d, s, dp, cc] = held.back();
          held.pop_back();
          fc.release(d, s, dp, cc);
        }
      }
      for (const auto& [d, s, dp, cc] : held) fc.release(d, s, dp, cc);
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(fc.outstanding(), 0u);
  const auto stats = fc.stats();
  EXPECT_GT(stats.acquired, 0u);
  EXPECT_GT(stats.fast_path, 0u);
  // Pools refilled: a full per-slot allowance is grantable again.
  std::vector<CreditClass> drained;
  while (const auto c = fc.try_acquire(0, 0, 0)) drained.push_back(*c);
  EXPECT_GE(drained.size(), 2u);
  for (const auto c : drained) fc.release(0, 0, 0, c);
  EXPECT_EQ(fc.outstanding(), 0u);
}

TEST(ConcurrencyStress, FlowControlBlockedSendersWake) {
  // One consumer holds all credits, many producers spin on
  // wait_for_release; when the consumer releases, producers must make
  // progress (no lost wakeups, bounded by the timed wait either way).
  EngineConfig cfg;
  cfg.buffers_per_machine = 4;
  FlowControl fc(cfg, 1, {false});
  std::vector<CreditClass> held;
  while (const auto c = fc.try_acquire(0, 0, 0)) held.push_back(*c);
  ASSERT_FALSE(held.empty());

  std::atomic<unsigned> got{0};
  constexpr unsigned kProducers = 4;
  std::vector<std::thread> producers;
  for (unsigned t = 0; t < kProducers; ++t) {
    producers.emplace_back([&] {
      while (true) {
        if (const auto c = fc.try_acquire(0, 0, 0)) {
          got.fetch_add(1);
          fc.release(0, 0, 0, *c);
          return;
        }
        fc.wait_for_release(std::chrono::microseconds(500));
      }
    });
  }
  for (const auto c : held) fc.release(0, 0, 0, c);
  for (auto& th : producers) th.join();
  EXPECT_EQ(got.load(), kProducers);
  EXPECT_EQ(fc.outstanding(), 0u);
}

}  // namespace
}  // namespace rpqd
