// Tests for the reachability index (§3.5): outcome semantics, statistics
// arithmetic, rpid encoding, and concurrent check-and-update.
#include "common/error.h"
#include <gtest/gtest.h>

#include <random>
#include <thread>

#include "common/hash.h"
#include "rpq/reach_index.h"
#include "rpq/rpid.h"

namespace rpqd {

// Plants extra copies of a stored key, which the claim protocol never
// makes, so the duplicate audit has something to find.
class ReachabilityIndexTestPeer {
 public:
  /// Copies (dst, rpid) into a free slot of its probe window: in the
  /// head segment after the stored copy, or in the segment chained
  /// behind the head (chained first when missing).
  static void plant_copy(ReachabilityIndex& idx, LocalVertexId dst,
                         std::uint64_t rpid, bool chained) {
    using Index = ReachabilityIndex;
    Index::Shard& shard = idx.shards_[mix64(dst) & idx.shard_mask_];
    Index::Segment* head = shard.head.load();
    const std::uint64_t hash = Index::slot_hash(dst, rpid);
    const std::uint64_t ready = (std::uint64_t{dst} << 2) | 2;
    const Index::Entry* stored = Index::first_match(head, ready, rpid);
    ASSERT_NE(stored, nullptr);
    Index::Segment* seg = chained ? idx.next_segment(head, shard) : head;
    Index::Entry* entries = seg->entries();
    bool past_stored = chained;
    for (std::size_t probe = 0; probe < 16; ++probe) {
      Index::Entry& e = entries[(hash + probe) & (seg->capacity - 1)];
      if (&e == stored) past_stored = true;
      if (!past_stored || e.ctrl.load() != 0) continue;
      e.rpid.store(rpid);
      e.depth.store(stored->depth.load());
      e.ctrl.store(ready);
      shard.entries.fetch_add(1);
      return;
    }
    FAIL() << "no free slot in the probe window";
  }
};

namespace {

TEST(Rpid, EncodingRoundTrip) {
  const auto rpid = make_rpid_source(7, 3, 123456789);
  EXPECT_EQ(rpid_machine(rpid), 7);
  EXPECT_EQ(rpid_worker(rpid), 3);
  EXPECT_EQ(rpid_seq(rpid), 123456789u);
}

TEST(Rpid, SeqWraps48Bits) {
  const auto rpid = make_rpid_source(255, 255, ~0ull);
  EXPECT_EQ(rpid_machine(rpid), 255);
  EXPECT_EQ(rpid_worker(rpid), 255);
  EXPECT_EQ(rpid_seq(rpid), kRpidSeqMask);
}

TEST(Rpid, DistinctWorkersDistinctIds) {
  EXPECT_NE(make_rpid_source(0, 1, 5), make_rpid_source(1, 0, 5));
  EXPECT_NE(make_rpid_source(0, 0, 5), make_rpid_source(0, 0, 6));
}

TEST(ReachIndex, FirstVisitIsNew) {
  ReachabilityIndex idx(10);
  EXPECT_EQ(idx.check_and_update(3, 111, 2), ReachOutcome::kNew);
  EXPECT_EQ(idx.stats().entries, 1u);
  EXPECT_EQ(*idx.lookup(3, 111), 2u);
}

TEST(ReachIndex, SameOrLowerDepthEliminates) {
  ReachabilityIndex idx(10);
  idx.check_and_update(3, 111, 2);
  EXPECT_EQ(idx.check_and_update(3, 111, 2), ReachOutcome::kEliminated);
  EXPECT_EQ(idx.check_and_update(3, 111, 5), ReachOutcome::kEliminated);
  EXPECT_EQ(idx.stats().eliminated, 2u);
  EXPECT_EQ(*idx.lookup(3, 111), 2u);  // unchanged
}

TEST(ReachIndex, GreaterStoredDepthDuplicates) {
  ReachabilityIndex idx(10);
  idx.check_and_update(3, 111, 5);
  EXPECT_EQ(idx.check_and_update(3, 111, 2), ReachOutcome::kDuplicated);
  EXPECT_EQ(idx.stats().duplicated, 1u);
  EXPECT_EQ(*idx.lookup(3, 111), 2u);  // updated downwards
}

TEST(ReachIndex, DistinctSourcesIndependent) {
  ReachabilityIndex idx(10);
  EXPECT_EQ(idx.check_and_update(3, 1, 0), ReachOutcome::kNew);
  EXPECT_EQ(idx.check_and_update(3, 2, 0), ReachOutcome::kNew);
  EXPECT_EQ(idx.check_and_update(4, 1, 0), ReachOutcome::kNew);
  EXPECT_EQ(idx.stats().entries, 3u);
}

TEST(ReachIndex, TwelveBytesPerEntry) {
  ReachabilityIndex idx(100);
  for (std::uint64_t i = 0; i < 50; ++i) {
    idx.check_and_update(static_cast<LocalVertexId>(i % 100), i * 7, 1);
  }
  EXPECT_EQ(idx.stats().dynamic_bytes, idx.stats().entries * 12);
}

TEST(ReachIndex, LookupMissing) {
  ReachabilityIndex idx(10);
  EXPECT_FALSE(idx.lookup(3, 42).has_value());
  idx.check_and_update(3, 42, 1);
  EXPECT_FALSE(idx.lookup(4, 42).has_value());
  EXPECT_FALSE(idx.lookup(3, 43).has_value());
}

TEST(ReachIndex, OutOfRangeVertexThrows) {
  ReachabilityIndex idx(5);
  EXPECT_THROW(idx.check_and_update(9, 1, 0), EngineError);
}

TEST(ReachIndex, ConcurrentInsertsAreExact) {
  // N threads insert overlapping (vertex, rpid) pairs; the totals must be
  // exact: one kNew per distinct pair, everything else accounted as
  // eliminated (same depth everywhere).
  constexpr unsigned kThreads = 4;
  constexpr unsigned kVertices = 64;
  constexpr unsigned kRpids = 64;
  ReachabilityIndex idx(kVertices);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&idx] {
      for (unsigned v = 0; v < kVertices; ++v) {
        for (unsigned r = 0; r < kRpids; ++r) {
          idx.check_and_update(v, r, 3);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto stats = idx.stats();
  EXPECT_EQ(stats.entries, static_cast<std::uint64_t>(kVertices) * kRpids);
  EXPECT_EQ(stats.eliminated,
            static_cast<std::uint64_t>(kVertices) * kRpids * (kThreads - 1));
  EXPECT_EQ(stats.duplicated, 0u);
}

TEST(ReachIndex, PreallocatedHotPathIsAllocationFree) {
  // The §4.5 guarantee: with preallocation the bump-arena absorbs every
  // segment (first segments and growth), so inserts never hit the heap.
  ReachabilityIndex idx(4, /*preallocate=*/true, /*num_shards=*/1);
  for (std::uint64_t r = 0; r < 1000; ++r) {
    idx.check_and_update(static_cast<LocalVertexId>(r % 4), r, 1);
  }
  const auto stats = idx.stats();
  EXPECT_EQ(stats.entries, 1000u);
  EXPECT_EQ(stats.hot_allocations, 0u);
  EXPECT_GT(stats.reserved_bytes, 0u);
}

TEST(ReachIndex, LazyGrowthCountsHotAllocations) {
  // Without preallocation the same workload must grow past the initial
  // segment and report those heap allocations.
  ReachabilityIndex idx(4, /*preallocate=*/false, /*num_shards=*/1);
  for (std::uint64_t r = 0; r < 1000; ++r) {
    idx.check_and_update(static_cast<LocalVertexId>(r % 4), r, 1);
  }
  const auto stats = idx.stats();
  EXPECT_EQ(stats.entries, 1000u);
  EXPECT_GT(stats.hot_allocations, 0u);
}

TEST(ReachIndex, ManyShardsStayExact) {
  // Counts must be exact regardless of the shard count (including shard
  // counts rounded up to a power of two).
  for (const unsigned shards : {1u, 3u, 16u, 64u}) {
    ReachabilityIndex idx(100, false, shards);
    for (std::uint64_t r = 0; r < 500; ++r) {
      idx.check_and_update(static_cast<LocalVertexId>(r % 100), r / 100, 2);
    }
    EXPECT_EQ(idx.stats().entries, 500u) << "shards=" << shards;
    EXPECT_EQ(*idx.lookup(42, 3), 2u) << "shards=" << shards;
  }
}

TEST(ReachIndex, ConcurrentDepthRace) {
  // Concurrent different-depth updates must settle on the minimum depth.
  ReachabilityIndex idx(1);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < 4; ++t) {
    threads.emplace_back([&idx, t] {
      for (Depth d = 10 + t; d > 0; --d) {
        idx.check_and_update(0, 7, d);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(*idx.lookup(0, 7), 1u);
}

TEST(ReachIndex, DuplicateAuditCountsPlantedCopies) {
  // One shard, so the key under audit shares its probe windows with the
  // clean fill around it.
  ReachabilityIndex idx(64, /*preallocate=*/false, /*num_shards=*/1);
  std::mt19937_64 rng(11);
  for (int i = 0; i < 40; ++i) {
    idx.check_and_update(static_cast<LocalVertexId>(rng() % 64), rng(),
                         static_cast<Depth>(rng() % 5));
  }
  idx.check_and_update(5, 77, 2);
  EXPECT_EQ(idx.duplicate_entries(), 0u);
  ReachabilityIndexTestPeer::plant_copy(idx, 5, 77, /*chained=*/false);
  EXPECT_EQ(idx.duplicate_entries(), 1u);
  ReachabilityIndexTestPeer::plant_copy(idx, 5, 77, /*chained=*/true);
  EXPECT_EQ(idx.duplicate_entries(), 2u);
}

TEST(ReachIndex, DuplicateAuditIsZeroOnARandomFill) {
  // Random keys across shards, with repeats and growth into chained
  // segments: the claim protocol stores each key once.
  for (const bool preallocate : {false, true}) {
    ReachabilityIndex idx(256, preallocate, /*num_shards=*/4);
    std::mt19937_64 rng(29);
    for (int i = 0; i < 20000; ++i) {
      idx.check_and_update(static_cast<LocalVertexId>(rng() % 256),
                           rng() % 64, static_cast<Depth>(rng() % 8));
    }
    EXPECT_GT(idx.stats().entries, 10000u);
    EXPECT_EQ(idx.duplicate_entries(), 0u) << "preallocate=" << preallocate;
  }
}

}  // namespace
}  // namespace rpqd
