// Tests for the simulated fabric: inbox priority (§3.2 — deeper depth
// first, later stage first), DONE credit return at delivery time,
// termination-message routing, and statistics.
#include "common/error.h"
#include <gtest/gtest.h>

#include "net/network.h"

namespace rpqd {
namespace {

Message data_message(MachineId src, StageId stage, Depth depth,
                     std::uint32_t count = 1, std::size_t bytes = 8) {
  Message m;
  m.header.type = MessageType::kData;
  m.header.src = src;
  m.header.stage = stage;
  m.header.depth = depth;
  m.header.count = count;
  m.payload.resize(bytes);
  return m;
}

TEST(Inbox, PriorityDeeperDepthFirst) {
  Network net(1);
  net.send(0, data_message(0, 2, 1));
  net.send(0, data_message(0, 2, 5));
  net.send(0, data_message(0, 2, 3));
  auto& inbox = net.inbox(0);
  EXPECT_EQ(inbox.try_pop_data()->header.depth, 5u);
  EXPECT_EQ(inbox.try_pop_data()->header.depth, 3u);
  EXPECT_EQ(inbox.try_pop_data()->header.depth, 1u);
  EXPECT_FALSE(inbox.try_pop_data().has_value());
}

TEST(Inbox, PriorityLaterStageFirstAtSameDepth) {
  Network net(1);
  net.send(0, data_message(0, 1, 2));
  net.send(0, data_message(0, 4, 2));
  net.send(0, data_message(0, 3, 2));
  auto& inbox = net.inbox(0);
  EXPECT_EQ(inbox.try_pop_data()->header.stage, 4u);
  EXPECT_EQ(inbox.try_pop_data()->header.stage, 3u);
  EXPECT_EQ(inbox.try_pop_data()->header.stage, 1u);
}

TEST(Inbox, DepthDominatesStage) {
  Network net(1);
  net.send(0, data_message(0, 9, 0));
  net.send(0, data_message(0, 1, 4));
  EXPECT_EQ(net.inbox(0).try_pop_data()->header.depth, 4u);
}

TEST(Inbox, DoneMessagesReleaseCreditsImmediately) {
  EngineConfig cfg;
  cfg.buffers_per_machine = 4;
  FlowControl fc(cfg, 2, {false});
  Network net(2);
  net.inbox(0).attach_flow_control(&fc);

  // Exhaust machine 0's credits towards machine 1.
  std::vector<CreditClass> held;
  while (const auto c = fc.try_acquire(1, 0, 0)) held.push_back(*c);
  ASSERT_FALSE(held.empty());
  EXPECT_FALSE(fc.try_acquire(1, 0, 0).has_value());

  // Machine 1 sends a DONE back: credit must be usable without any
  // worker popping anything.
  Message done;
  done.header.type = MessageType::kDone;
  done.header.src = 1;
  done.header.stage = 0;
  done.header.credit = held[0];
  done.header.credit_depth = 0;
  net.send(0, std::move(done));
  EXPECT_TRUE(fc.try_acquire(1, 0, 0).has_value());
  EXPECT_EQ(net.counters().done_messages, 1u);
  EXPECT_FALSE(net.inbox(0).has_data());  // DONEs never queue as data
}

TEST(Inbox, TerminationMessagesQueueSeparately) {
  Network net(1);
  Message term;
  term.header.type = MessageType::kTermination;
  term.header.src = 0;
  net.send(0, std::move(term));
  EXPECT_FALSE(net.inbox(0).has_data());
  EXPECT_TRUE(net.inbox(0).try_pop_term().has_value());
  EXPECT_FALSE(net.inbox(0).try_pop_term().has_value());
  EXPECT_EQ(net.counters().term_messages, 1u);
}

TEST(Network, StatsCountDataBytesAndContexts) {
  Network net(2);
  net.send(1, data_message(0, 1, 0, 3, 100));
  net.send(1, data_message(0, 1, 0, 2, 50));
  EXPECT_EQ(net.counters().data_messages, 2u);
  EXPECT_EQ(net.counters().contexts_sent, 5u);
  EXPECT_EQ(net.counters().bytes_sent, 150u);
}

TEST(Network, PeakQueuedBytesHighWaterMark) {
  Network net(1);
  Inbox& inbox = net.inbox(0);
  net.send(0, data_message(0, 1, 0, 1, 100));
  net.send(0, data_message(0, 1, 0, 1, 200));
  EXPECT_EQ(inbox.queued_bytes(), 300u);
  EXPECT_EQ(inbox.peak_queued_bytes(), 300u);
  inbox.try_pop_data();
  inbox.try_pop_data();
  EXPECT_EQ(inbox.queued_bytes(), 0u);
  EXPECT_EQ(inbox.peak_queued_bytes(), 300u);  // peak sticks
}

/// The cluster's buffered-byte peak as the engine reports it: the
/// machine-counter fold over every inbox's own peak.
std::uint64_t folded_peak_queued_bytes(Network& net) {
  MachineCounters cluster;
  for (MachineId m = 0; m < net.num_machines(); ++m) {
    MachineCounters machine;
    machine.peak_queued_bytes = net.inbox(m).peak_queued_bytes();
    cluster += machine;
  }
  return cluster.peak_queued_bytes;
}

TEST(Network, PerMachinePeakIsMaxNotSum) {
  Network net(2);
  // Both machines hold bytes simultaneously: the cluster-wide sum peaks
  // at 300, but no single machine ever buffers more than 200 — the
  // per-machine memory metric must report 200, not 300.
  net.send(0, data_message(1, 1, 0, 1, 100));
  net.send(1, data_message(0, 1, 0, 1, 200));
  EXPECT_EQ(net.inbox(0).peak_queued_bytes(), 100u);
  EXPECT_EQ(net.inbox(1).peak_queued_bytes(), 200u);
  EXPECT_EQ(folded_peak_queued_bytes(net), 200u);
}

TEST(Network, PerMachinePeaksAtDifferentTimes) {
  Network net(2);
  // Machine 0 peaks at 300 and fully drains before machine 1 receives
  // anything: the true max across machines is 300, and the two peaks
  // must not be added together (that would report 420).
  net.send(0, data_message(1, 1, 0, 1, 300));
  EXPECT_TRUE(net.inbox(0).try_pop_data().has_value());
  net.send(1, data_message(0, 1, 0, 1, 120));
  EXPECT_TRUE(net.inbox(1).try_pop_data().has_value());
  EXPECT_EQ(net.inbox(0).peak_queued_bytes(), 300u);
  EXPECT_EQ(net.inbox(1).peak_queued_bytes(), 120u);
  EXPECT_EQ(net.inbox(0).queued_bytes(), 0u);
  EXPECT_EQ(net.inbox(1).queued_bytes(), 0u);
  EXPECT_EQ(folded_peak_queued_bytes(net), 300u);
}

TEST(Network, SendToUnknownMachineThrows) {
  Network net(2);
  EXPECT_THROW(net.send(5, data_message(0, 0, 0)), EngineError);
}

// ---- fault-injection fabric (common/fault.h) ----

TEST(Fault, DelayedDataStaysInvisibleUntilItsReleaseTick) {
  Network net(1);
  FaultPlan plan;
  plan.delay_prob = 1.0;
  plan.delay_window = 4;
  net.set_fault_plan(plan);
  net.send(0, data_message(0, 1, 0, 2, 64));
  auto& inbox = net.inbox(0);
  // The message is in limbo: owned by this machine (it blocks
  // termination via has_data) but not yet poppable — except that pops
  // are the tick clock, so it must surface within delay_window pops.
  EXPECT_TRUE(inbox.has_data());
  EXPECT_EQ(inbox.data_size(), 1u);
  EXPECT_EQ(net.counters().faults_delayed, 1u);
  EXPECT_EQ(net.counters().data_messages, 1u);  // counted on arrival
  int pops_until_visible = 0;
  std::optional<Message> msg;
  while (!(msg = inbox.try_pop_data()).has_value()) {
    ASSERT_LT(++pops_until_visible, 5);  // bounded by delay_window
  }
  EXPECT_EQ(msg->header.count, 2u);
  EXPECT_FALSE(inbox.has_data());
  // Limbo bytes belong to the receiving machine from arrival on.
  EXPECT_EQ(inbox.queued_bytes(), 0u);
  EXPECT_EQ(inbox.peak_queued_bytes(), 64u);
}

TEST(Fault, DuplicatedDataIsDeliveredExactlyOnce) {
  Network net(1);
  FaultPlan plan;
  plan.dup_data_prob = 1.0;
  net.set_fault_plan(plan);
  net.send(0, data_message(0, 1, 0, 1, 32));
  EXPECT_EQ(net.counters().faults_duplicated, 1u);
  EXPECT_EQ(net.counters().faults_dup_dropped, 1u);
  // The transport dedup absorbs the copy: engine-visible stats and the
  // queue see one message.
  EXPECT_EQ(net.counters().data_messages, 1u);
  EXPECT_EQ(net.counters().contexts_sent, 1u);
  EXPECT_TRUE(net.inbox(0).try_pop_data().has_value());
  EXPECT_FALSE(net.inbox(0).try_pop_data().has_value());
}

TEST(Fault, DuplicatedDoneReleasesItsCreditExactlyOnce) {
  EngineConfig cfg;
  cfg.buffers_per_machine = 4;
  FlowControl fc(cfg, 2, {false});
  Network net(2);
  FaultPlan plan;
  plan.dup_done_prob = 1.0;
  net.set_fault_plan(plan);
  net.inbox(0).attach_flow_control(&fc);

  std::vector<CreditClass> held;
  while (const auto c = fc.try_acquire(1, 0, 0)) held.push_back(*c);
  ASSERT_FALSE(held.empty());

  Message done;
  done.header.type = MessageType::kDone;
  done.header.src = 1;
  done.header.stage = 0;
  done.header.credit = held[0];
  done.header.credit_depth = 0;
  net.send(0, std::move(done));
  EXPECT_EQ(net.counters().faults_duplicated, 1u);
  // Exactly one credit came back — a double release would either assert
  // inside FlowControl or hand out more credits than exist.
  EXPECT_TRUE(fc.try_acquire(1, 0, 0).has_value());
  EXPECT_FALSE(fc.try_acquire(1, 0, 0).has_value());
}

TEST(Fault, JitteredDoneReleasesCreditAfterPickupTicks) {
  EngineConfig cfg;
  cfg.buffers_per_machine = 4;
  FlowControl fc(cfg, 2, {false});
  Network net(2);
  FaultPlan plan;
  plan.done_delay_prob = 1.0;
  plan.done_delay_window = 3;
  net.set_fault_plan(plan);
  net.inbox(0).attach_flow_control(&fc);

  std::vector<CreditClass> held;
  while (const auto c = fc.try_acquire(1, 0, 0)) held.push_back(*c);
  ASSERT_FALSE(held.empty());

  Message done;
  done.header.type = MessageType::kDone;
  done.header.src = 1;
  done.header.stage = 0;
  done.header.credit = held[0];
  done.header.credit_depth = 0;
  net.send(0, std::move(done));
  // The credit is in limbo: not yet released, the sender stays blocked.
  EXPECT_FALSE(fc.try_acquire(1, 0, 0).has_value());
  EXPECT_EQ(net.counters().faults_delayed, 1u);
  // Pickup polls advance the limbo clock; within the window the DONE is
  // delivered and the credit usable again.
  for (int tick = 0; tick < 3; ++tick) {
    net.inbox(0).try_pop_data();
  }
  EXPECT_TRUE(fc.try_acquire(1, 0, 0).has_value());
}

TEST(Fault, DrainDeliversLimboedDonesAfterShutdown) {
  EngineConfig cfg;
  cfg.buffers_per_machine = 4;
  FlowControl fc(cfg, 2, {false});
  Network net(2);
  FaultPlan plan;
  plan.done_delay_prob = 1.0;
  plan.done_delay_window = 1000;  // far beyond any pop in this test
  net.set_fault_plan(plan);
  net.inbox(0).attach_flow_control(&fc);

  std::vector<CreditClass> held;
  while (const auto c = fc.try_acquire(1, 0, 0)) held.push_back(*c);
  const std::size_t total = held.size();
  for (const auto credit : held) {
    Message done;
    done.header.type = MessageType::kDone;
    done.header.src = 1;
    done.header.stage = 0;
    done.header.credit = credit;
    done.header.credit_depth = 0;
    net.send(0, std::move(done));
  }
  EXPECT_FALSE(fc.try_acquire(1, 0, 0).has_value());
  // Post-join drain (engine shutdown path): every held credit returns,
  // so the credit-leak audit sees a fully drained fabric.
  net.inbox(0).drain_faults();
  std::size_t reacquired = 0;
  while (fc.try_acquire(1, 0, 0).has_value()) ++reacquired;
  EXPECT_EQ(reacquired, total);
}

TEST(Fault, TerminationStatusesAreDuplicatedNotDeduped) {
  Network net(1);
  FaultPlan plan;
  plan.dup_term_prob = 1.0;
  net.set_fault_plan(plan);
  Message term;
  term.header.type = MessageType::kTermination;
  term.header.src = 0;
  net.send(0, std::move(term));
  // Both copies reach the protocol: tolerating them is the §3.4
  // detector's job, not the transport's.
  EXPECT_TRUE(net.inbox(0).try_pop_term().has_value());
  EXPECT_TRUE(net.inbox(0).try_pop_term().has_value());
  EXPECT_FALSE(net.inbox(0).try_pop_term().has_value());
  EXPECT_EQ(net.counters().term_messages, 2u);
}

TEST(Fault, SameSeedSamePlanSameDeliveryOrder) {
  const auto run = [](std::uint64_t seed) {
    Network net(1);
    FaultPlan plan;
    plan.seed = seed;
    plan.delay_prob = 0.5;
    plan.delay_window = 6;
    plan.dup_data_prob = 0.3;
    net.set_fault_plan(plan);
    for (unsigned i = 0; i < 40; ++i) {
      net.send(0, data_message(0, 1, i % 5, /*count=*/i + 1));
    }
    std::vector<std::uint32_t> order;
    // Pops double as limbo ticks; 40 messages resolve well within
    // 40 + 6 polls.
    for (int pops = 0; pops < 200 && order.size() < 40; ++pops) {
      if (auto msg = net.inbox(0).try_pop_data()) {
        order.push_back(msg->header.count);
      }
    }
    return order;
  };
  const auto a = run(42);
  const auto b = run(42);
  const auto c = run(43);
  ASSERT_EQ(a.size(), 40u);
  EXPECT_EQ(a, b);  // same seed: byte-identical fault schedule
  EXPECT_NE(a, c);  // different seed: different schedule
}

}  // namespace
}  // namespace rpqd
