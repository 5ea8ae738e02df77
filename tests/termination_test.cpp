// Tests for the incremental termination protocol (§3.4): stability-based
// global termination, per-stage prefixes, per-depth RPQ termination, and
// the max-observed-depth consensus for unbounded RPQs.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/error.h"
#include "runtime/termination.h"

namespace rpqd {

// Builds a status the way a broadcast does, without sending it.
class TerminationDetectorTestPeer {
 public:
  static const TermStatus& build(TerminationDetector& d, Network& net) {
    d.build_status(net);
    return d.scratch_;
  }
};

namespace {

// Delivers every queued termination message on `net` into the detectors.
void pump(Network& net, std::vector<TerminationDetector*> detectors) {
  bool progress = true;
  while (progress) {
    progress = false;
    for (unsigned m = 0; m < detectors.size(); ++m) {
      while (auto msg = net.inbox(static_cast<MachineId>(m)).try_pop_term()) {
        detectors[m]->on_status(*msg);
        progress = true;
      }
    }
  }
}

TEST(Termination, SingleMachineTerminatesAfterTwoStableBroadcasts) {
  Network net(1);
  TerminationDetector d(0, 1, 2, 0);
  d.set_idle(true);
  EXPECT_FALSE(d.globally_terminated());
  d.maybe_broadcast(net, true);
  EXPECT_FALSE(d.globally_terminated());  // only one wave
  d.maybe_broadcast(net, true);
  EXPECT_TRUE(d.globally_terminated());
}

TEST(Termination, NotTerminatedWhileBusy) {
  Network net(1);
  TerminationDetector d(0, 1, 1, 0);
  d.set_idle(false);
  d.maybe_broadcast(net, true);
  d.maybe_broadcast(net, true);
  EXPECT_FALSE(d.globally_terminated());
}

TEST(Termination, InFlightMessageBlocksTermination) {
  Network net(2);
  TerminationDetector d0(0, 2, 1, 0);
  TerminationDetector d1(1, 2, 1, 0);
  d0.lane(0).note_sent(0, -1, 0, 3);  // 3 contexts sent, never processed
  d0.set_idle(true);
  d1.set_idle(true);
  for (int i = 0; i < 3; ++i) {
    d0.maybe_broadcast(net, true);
    d1.maybe_broadcast(net, true);
    pump(net, {&d0, &d1});
  }
  EXPECT_FALSE(d0.globally_terminated());
  EXPECT_FALSE(d1.globally_terminated());
  // The receiver processes them: now both must converge.
  d1.lane(0).note_processed(0, -1, 0, 3);
  for (int i = 0; i < 3; ++i) {
    d0.maybe_broadcast(net, true);
    d1.maybe_broadcast(net, true);
    pump(net, {&d0, &d1});
  }
  EXPECT_TRUE(d0.globally_terminated());
  EXPECT_TRUE(d1.globally_terminated());
}

TEST(Termination, StaleStablePeerCannotHideLiveWork) {
  // Machine 0 settles (two identical idle statuses), then processes a
  // message from machine 1 and forwards one to machine 2 without
  // broadcasting again. In the stage sums the first message (sent, yet
  // unprocessed in 0's stale counts) and the second (processed, yet
  // unsent in them) cancel; only the link counts expose the stale peer.
  Network net(3);
  TerminationDetector d0(0, 3, 1, 0);
  TerminationDetector d1(1, 3, 1, 0);
  TerminationDetector d2(2, 3, 1, 0);
  for (auto* d : {&d0, &d1, &d2}) d->set_idle(true);
  d0.maybe_broadcast(net, true);
  d0.maybe_broadcast(net, true);
  const auto send_data = [&net](MachineId from, MachineId to) {
    Message msg;
    msg.header.type = MessageType::kData;
    msg.header.src = from;
    msg.header.count = 1;
    net.send(to, std::move(msg));
  };
  d1.lane(0).note_sent(0, -1, 0, 1);
  send_data(1, 0);
  d0.lane(0).note_processed(0, -1, 0, 1);
  d0.lane(0).note_sent(0, -1, 0, 1);
  send_data(0, 2);
  d2.lane(0).note_processed(0, -1, 0, 1);
  for (int i = 0; i < 2; ++i) {
    d1.maybe_broadcast(net, true);
    d2.maybe_broadcast(net, true);
  }
  pump(net, {&d0, &d1, &d2});
  EXPECT_FALSE(d1.globally_terminated());
  EXPECT_FALSE(d2.globally_terminated());
  // Once machine 0 reports its current counts, all three agree.
  d0.maybe_broadcast(net, true);
  d0.maybe_broadcast(net, true);
  pump(net, {&d0, &d1, &d2});
  EXPECT_TRUE(d0.globally_terminated());
  EXPECT_TRUE(d1.globally_terminated());
  EXPECT_TRUE(d2.globally_terminated());
}

TEST(Termination, ActiveFramesBlockTermination) {
  Network net(1);
  TerminationDetector d(0, 1, 2, 0);
  d.lane(0).frame_pushed(1, -1, 0);
  d.set_idle(true);  // (idle flag lies; frames are authoritative too)
  d.maybe_broadcast(net, true);
  d.maybe_broadcast(net, true);
  EXPECT_FALSE(d.globally_terminated());
  d.lane(0).frame_popped(1, -1, 0);
  d.maybe_broadcast(net, true);
  d.maybe_broadcast(net, true);
  EXPECT_TRUE(d.globally_terminated());
}

TEST(Termination, CounterChangeResetsStability) {
  Network net(1);
  TerminationDetector d(0, 1, 1, 0);
  d.set_idle(true);
  d.maybe_broadcast(net, true);
  // Activity between waves: counters change, stability must restart.
  d.lane(0).note_sent(0, -1, 0, 1);
  d.lane(0).note_processed(0, -1, 0, 1);
  d.maybe_broadcast(net, true);
  EXPECT_FALSE(d.globally_terminated());
  d.maybe_broadcast(net, true);
  EXPECT_TRUE(d.globally_terminated());
}

TEST(Termination, StagePrefixAdvancesIncrementally) {
  Network net(1);
  TerminationDetector d(0, 1, 3, 0);
  // Stage 2 still has an active frame; stages 0-1 are quiet.
  d.lane(0).frame_pushed(2, -1, 0);
  d.set_idle(false);
  d.maybe_broadcast(net, true);
  d.maybe_broadcast(net, true);
  EXPECT_EQ(d.terminated_stage_prefix(), 2u);
  EXPECT_FALSE(d.globally_terminated());
  d.lane(0).frame_popped(2, -1, 0);
  d.set_idle(true);
  d.maybe_broadcast(net, true);
  d.maybe_broadcast(net, true);
  EXPECT_EQ(d.terminated_stage_prefix(), 3u);
}

TEST(Termination, DepthTerminationRequiresAllShallowerDepths) {
  Network net(1);
  TerminationDetector d(0, 1, 3, 1);
  // Depth 2 quiet, depth 1 has an unprocessed send.
  d.lane(0).note_sent(1, 0, 1, 2);
  d.lane(0).note_sent(1, 0, 2, 1);
  d.lane(0).note_processed(1, 0, 2, 1);
  d.maybe_broadcast(net, true);
  d.maybe_broadcast(net, true);
  EXPECT_TRUE(d.depth_terminated(0, 0));
  EXPECT_FALSE(d.depth_terminated(0, 1));
  EXPECT_FALSE(d.depth_terminated(0, 2));  // blocked by depth 1
  d.lane(0).note_processed(1, 0, 1, 2);
  d.maybe_broadcast(net, true);
  d.maybe_broadcast(net, true);
  EXPECT_TRUE(d.depth_terminated(0, 2));
}

TEST(Termination, ConsensusMaxDepthAcrossMachines) {
  Network net(2);
  TerminationDetector d0(0, 2, 2, 1);
  TerminationDetector d1(1, 2, 2, 1);
  // Machine 0 saw depth 3, machine 1 saw depth 5 (all work processed).
  d0.lane(0).note_sent(1, 0, 3, 1);
  d0.lane(0).note_processed(1, 0, 3, 1);
  d1.lane(0).note_sent(1, 0, 5, 1);
  d1.lane(0).note_processed(1, 0, 5, 1);
  d0.set_idle(true);
  d1.set_idle(true);
  EXPECT_FALSE(d0.consensus_max_depth(0).has_value());
  for (int i = 0; i < 3; ++i) {
    d0.maybe_broadcast(net, true);
    d1.maybe_broadcast(net, true);
    pump(net, {&d0, &d1});
  }
  ASSERT_TRUE(d0.consensus_max_depth(0).has_value());
  EXPECT_EQ(*d0.consensus_max_depth(0), 5u);
  ASSERT_TRUE(d1.consensus_max_depth(0).has_value());
  EXPECT_EQ(*d1.consensus_max_depth(0), 5u);
  EXPECT_EQ(d0.local_max_depth(0), 3u);
  EXPECT_EQ(d1.local_max_depth(0), 5u);
}

TEST(Termination, StaleStatusesIgnored) {
  Network net(2);
  TerminationDetector d0(0, 2, 1, 0);
  TerminationDetector d1(1, 2, 1, 0);
  d0.set_idle(true);
  d1.set_idle(true);
  d0.maybe_broadcast(net, true);
  d1.maybe_broadcast(net, true);
  pump(net, {&d0, &d1});
  // Replay d1's first status at d0 (duplicate / reordered delivery): it
  // must not corrupt the prev/last pair.
  d0.maybe_broadcast(net, true);
  d1.maybe_broadcast(net, true);
  pump(net, {&d0, &d1});
  EXPECT_TRUE(d0.globally_terminated());
}

// A status broadcast duplicated in flight (dup-storm schedule) carries
// the same sequence number twice; the duplicate must NOT masquerade as
// the confirming second wave, or a machine would declare termination
// after a single genuine report.
TEST(Termination, DuplicatedStatusIsNotASecondWave) {
  Network net(2);
  FaultPlan plan;
  plan.dup_term_prob = 1.0;  // every status delivered twice
  net.set_fault_plan(plan);
  TerminationDetector d0(0, 2, 1, 0);
  TerminationDetector d1(1, 2, 1, 0);
  d0.set_idle(true);
  d1.set_idle(true);
  d0.maybe_broadcast(net, true);
  d1.maybe_broadcast(net, true);
  pump(net, {&d0, &d1});
  EXPECT_FALSE(d0.globally_terminated());
  EXPECT_FALSE(d1.globally_terminated());
  // Genuine second wave (also duplicated): now both converge.
  d0.maybe_broadcast(net, true);
  d1.maybe_broadcast(net, true);
  pump(net, {&d0, &d1});
  EXPECT_TRUE(d0.globally_terminated());
  EXPECT_TRUE(d1.globally_terminated());
}

// Delayed delivery reorders statuses: when waves A,B,C arrive as C,B,A,
// redelivering the newest (a duplicate) must not fabricate stability, and
// anything older than the two stored waves must be dropped. A reordered
// wave that lands *between* the stored pair is a genuine confirmation:
// sent/processed counters are monotone, so an identical (B, C) pair proves
// every intermediate wave was identical too (DESIGN.md §13).
TEST(Termination, ReorderedAndReplayedStatusesAreSafe) {
  Network net(2);
  TerminationDetector d0(0, 2, 1, 0);
  TerminationDetector d1(1, 2, 1, 0);
  d0.set_idle(true);
  d1.set_idle(true);
  // d1's history: wave A with an unprocessed send, then processed, then
  // waves B and C (stable counters).
  d1.lane(0).note_sent(0, -1, 0, 1);
  d1.maybe_broadcast(net, true);  // A: sent=1 processed=0
  d1.lane(0).note_processed(0, -1, 0, 1);
  d1.maybe_broadcast(net, true);  // B: sent=1 processed=1
  d1.maybe_broadcast(net, true);  // C: identical to B
  std::vector<Message> captured;
  while (auto msg = net.inbox(0).try_pop_term()) {
    captured.push_back(*msg);
  }
  ASSERT_EQ(captured.size(), 3u);
  d0.maybe_broadcast(net, true);
  d0.maybe_broadcast(net, true);  // d0's own two stable waves
  // Only the newest wave C has arrived: one status of d1 != stable.
  d0.on_status(captured[2]);
  EXPECT_FALSE(d0.globally_terminated());
  // Replaying C must not pair with itself as two identical waves.
  d0.on_status(captured[2]);
  EXPECT_FALSE(d0.globally_terminated());
  // The reordered older wave B arrives late and fills the confirmation
  // slot: (B, C) is a genuine identical pair, so the protocol completes.
  d0.on_status(captured[1]);
  EXPECT_TRUE(d0.globally_terminated());
  // Wave A (older than both stored waves, pre-stability counters) replayed
  // afterwards is stale and must not perturb the decision.
  d0.on_status(captured[0]);
  EXPECT_TRUE(d0.globally_terminated());
}

TEST(Termination, BroadcastSkippedWhenUnchangedAndNotForced) {
  Network net(2);
  TerminationDetector d0(0, 2, 1, 0);
  d0.set_idle(true);
  d0.maybe_broadcast(net, false);  // first: always sends (state change)
  d0.maybe_broadcast(net, false);  // unchanged, not forced: skipped
  EXPECT_EQ(net.counters().term_messages, 1u);
  d0.maybe_broadcast(net, true);  // forced: second wave
  EXPECT_EQ(net.counters().term_messages, 2u);
}

TEST(Termination, LanesSumExactlyAcrossWorkers) {
  // Four workers push, send, process and pop frames of one RPQ group at
  // depths up to 5000, growing each lane through several chunks, while a
  // fifth thread sums the lanes into statuses. Each worker keeps one
  // frame pinned at stage 0 / depth 0 throughout, so every status must
  // read exactly four active frames there.
  constexpr unsigned kWorkers = 4;
  constexpr Depth kMaxDepth = 5000;
  constexpr unsigned kRounds = 6;
  Network net(1);
  TerminationDetector d(0, 1, 2, 1, kWorkers);
  std::atomic<unsigned> running{kWorkers};
  std::vector<std::thread> workers;
  for (unsigned w = 0; w < kWorkers; ++w) {
    d.lane(w).frame_pushed(0, 0, 0);
  }
  for (unsigned w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&d, &running, w] {
      TerminationDetector::Lane& lane = d.lane(w);
      for (unsigned round = 0; round < kRounds; ++round) {
        // Rounds alternate between the full depth and a shallow walk, so
        // the low depths see more traffic than the high ones.
        const Depth top = round % 2 == 0 ? kMaxDepth : 40 + w;
        for (Depth depth = 1; depth <= top; ++depth) {
          lane.frame_pushed(1, 0, depth);
          lane.note_sent(1, 0, depth, 1);
        }
        for (Depth depth = top; depth >= 1; --depth) {
          lane.note_processed(1, 0, depth, 1);
          lane.frame_popped(1, 0, depth);
        }
      }
      running.fetch_sub(1);
    });
  }
  std::uint64_t statuses = 0;
  std::thread reader([&] {
    while (running.load() > 0) {
      const TermStatus& s = TerminationDetectorTestPeer::build(d, net);
      ++statuses;
      // Pops read before pushes may over-report by what was pushed in
      // between, never past every push of the test; a lane read as more
      // popped than pushed wraps far beyond that.
      EXPECT_EQ(s.stages[0][2], kWorkers);
      EXPECT_LE(s.stages[1][2], std::uint64_t{kWorkers} * kRounds * kMaxDepth);
      ASSERT_EQ(s.groups.size(), 1u);
      ASSERT_FALSE(s.groups[0].empty());
      EXPECT_EQ(s.groups[0][0][2], kWorkers);
      for (std::size_t depth = 1; depth < s.groups[0].size(); ++depth) {
        ASSERT_LE(s.groups[0][depth][2], kWorkers * kRounds)
            << "depth " << depth;
      }
    }
  });
  for (auto& t : workers) t.join();
  reader.join();
  EXPECT_GT(statuses, 0u);
  for (unsigned w = 0; w < kWorkers; ++w) d.lane(w).frame_popped(0, 0, 0);

  const TermStatus& s = TerminationDetectorTestPeer::build(d, net);
  constexpr std::uint64_t kDeepRounds = (kRounds + 1) / 2;
  std::uint64_t stage_sent = 0;
  for (unsigned w = 0; w < kWorkers; ++w) {
    stage_sent += kDeepRounds * kMaxDepth + (kRounds - kDeepRounds) * (40 + w);
  }
  EXPECT_EQ(s.stages[0], (std::array<std::uint64_t, 3>{0, 0, 0}));
  EXPECT_EQ(s.stages[1],
            (std::array<std::uint64_t, 3>{stage_sent, stage_sent, 0}));
  ASSERT_EQ(s.groups[0].size(), kMaxDepth + 1);
  EXPECT_EQ(s.groups[0][0], (std::array<std::uint64_t, 3>{0, 0, 0}));
  for (Depth depth = 1; depth <= kMaxDepth; ++depth) {
    std::uint64_t per_depth = kWorkers * kDeepRounds;
    for (unsigned w = 0; w < kWorkers; ++w) {
      if (depth <= 40 + w) per_depth += kRounds - kDeepRounds;
    }
    ASSERT_EQ(s.groups[0][depth],
              (std::array<std::uint64_t, 3>{per_depth, per_depth, 0}))
        << "depth " << depth;
  }
  EXPECT_EQ(d.local_max_depth(0), kMaxDepth);
  EXPECT_EQ(d.stage_totals(1),
            (std::pair<std::uint64_t, std::uint64_t>{stage_sent, stage_sent}));
}

TEST(Termination, PopWithoutPushIsRejected) {
  TerminationDetector d(0, 1, 2, 1, 2);
  d.lane(0).frame_pushed(1, 0, 3);
  // Another lane's push does not balance this lane's pop.
  EXPECT_THROW(d.lane(1).frame_popped(1, 0, 3), EngineError);
  d.lane(0).frame_popped(1, 0, 3);
  EXPECT_THROW(d.lane(0).frame_popped(1, 0, 3), EngineError);
}

}  // namespace
}  // namespace rpqd
