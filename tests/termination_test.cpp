// Tests for the incremental termination protocol (§3.4): stability-based
// global termination, per-stage prefixes, per-depth RPQ termination, and
// the max-observed-depth consensus for unbounded RPQs.
#include <gtest/gtest.h>

#include "runtime/termination.h"

namespace rpqd {
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
  d0.note_sent(0, -1, 0, 3);  // 3 contexts sent, never processed
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
  d1.note_processed(0, -1, 0, 3);
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
  d1.note_sent(0, -1, 0, 1);
  send_data(1, 0);
  d0.note_processed(0, -1, 0, 1);
  d0.note_sent(0, -1, 0, 1);
  send_data(0, 2);
  d2.note_processed(0, -1, 0, 1);
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
  d.frame_pushed(1, -1, 0);
  d.set_idle(true);  // (idle flag lies; frames are authoritative too)
  d.maybe_broadcast(net, true);
  d.maybe_broadcast(net, true);
  EXPECT_FALSE(d.globally_terminated());
  d.frame_popped(1, -1, 0);
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
  d.note_sent(0, -1, 0, 1);
  d.note_processed(0, -1, 0, 1);
  d.maybe_broadcast(net, true);
  EXPECT_FALSE(d.globally_terminated());
  d.maybe_broadcast(net, true);
  EXPECT_TRUE(d.globally_terminated());
}

TEST(Termination, StagePrefixAdvancesIncrementally) {
  Network net(1);
  TerminationDetector d(0, 1, 3, 0);
  // Stage 2 still has an active frame; stages 0-1 are quiet.
  d.frame_pushed(2, -1, 0);
  d.set_idle(false);
  d.maybe_broadcast(net, true);
  d.maybe_broadcast(net, true);
  EXPECT_EQ(d.terminated_stage_prefix(), 2u);
  EXPECT_FALSE(d.globally_terminated());
  d.frame_popped(2, -1, 0);
  d.set_idle(true);
  d.maybe_broadcast(net, true);
  d.maybe_broadcast(net, true);
  EXPECT_EQ(d.terminated_stage_prefix(), 3u);
}

TEST(Termination, DepthTerminationRequiresAllShallowerDepths) {
  Network net(1);
  TerminationDetector d(0, 1, 3, 1);
  // Depth 2 quiet, depth 1 has an unprocessed send.
  d.note_sent(1, 0, 1, 2);
  d.note_sent(1, 0, 2, 1);
  d.note_processed(1, 0, 2, 1);
  d.maybe_broadcast(net, true);
  d.maybe_broadcast(net, true);
  EXPECT_TRUE(d.depth_terminated(0, 0));
  EXPECT_FALSE(d.depth_terminated(0, 1));
  EXPECT_FALSE(d.depth_terminated(0, 2));  // blocked by depth 1
  d.note_processed(1, 0, 1, 2);
  d.maybe_broadcast(net, true);
  d.maybe_broadcast(net, true);
  EXPECT_TRUE(d.depth_terminated(0, 2));
}

TEST(Termination, ConsensusMaxDepthAcrossMachines) {
  Network net(2);
  TerminationDetector d0(0, 2, 2, 1);
  TerminationDetector d1(1, 2, 2, 1);
  // Machine 0 saw depth 3, machine 1 saw depth 5 (all work processed).
  d0.note_sent(1, 0, 3, 1);
  d0.note_processed(1, 0, 3, 1);
  d1.note_sent(1, 0, 5, 1);
  d1.note_processed(1, 0, 5, 1);
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
  d1.note_sent(0, -1, 0, 1);
  d1.maybe_broadcast(net, true);  // A: sent=1 processed=0
  d1.note_processed(0, -1, 0, 1);
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

}  // namespace
}  // namespace rpqd
