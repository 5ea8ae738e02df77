// Reliable delivery over a lossy, corrupting fabric (DESIGN.md §13).
//
// Contract under test: with a lossy FaultPlan (loss_rate / corrupt_rate)
// or EngineConfig::reliable_transport, the Network layers per-link
// sequence numbers, CRC32 checksums, cumulative + selective acks, and
// seeded-backoff retransmission over the adversarial fabric — and every
// protocol riding on it (data, DONE credit returns, §3.4 termination,
// kAbort) must either finish exactly (oracle counts, zero outstanding
// credits, consensus == max depth) or escalate a dead link into a typed
// AbortReason::kMachineFailure within a bounded number of retransmits.
// A hang is never acceptable: every end-to-end test runs under a
// watchdog.
//
// The corpus companion (tests/corpus/loss/loss_shapes.txt) pins the
// named loss shapes — full-class loss, DONE-only starvation, dead data
// links, termination-status loss, lossy chaos with a crash — as
// replayable lines; ReliableTransport.CorpusShapes replays them. The
// acceptance-scale stress runs under the `tier2-loss` ctest label,
// enabled by RPQD_TIER2_LOSS=1 (TSan green here is the data-race gate
// for the retransmit-timer and ack paths).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <vector>

#include "api/rpqd.h"
#include "baseline/reference.h"
#include "common/crc32.h"
#include "common/fault.h"
#include "ldbc/synthetic.h"
#include "net/network.h"

#ifndef RPQD_LOSS_CORPUS_DIR
#error "RPQD_LOSS_CORPUS_DIR must point at tests/corpus/loss"
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

std::uint64_t oracle_count(const std::string& query, const Graph& g) {
  return baseline::reference_evaluate(query, g).count;
}

/// Every lossy run, clean or aborted, must leave the fabric reconciled:
/// all credits home and the reach index uncorrupted.
void check_transport_invariants(const QueryResult& result,
                                const std::string& what) {
  EXPECT_EQ(result.stats.flow_outstanding, 0u)
      << "credit leak under loss; " << what;
  EXPECT_EQ(result.stats.flow_overflow_outstanding, 0u)
      << "stale overflow bookkeeping under loss; " << what;
  EXPECT_NE(result.abort_reason, AbortReason::kCreditStarvation)
      << "credit starvation under loss; " << what;
  for (std::size_t g = 0; g < result.stats.rpq.size(); ++g) {
    EXPECT_EQ(result.stats.rpq[g].index_duplicate_entries, 0u)
        << "duplicate reach-index entries in group " << g << "; " << what;
  }
}

/// A lossy fabric that wedges the engine is the bug class this layer
/// exists to prevent: fail loudly instead of hanging the suite.
QueryResult run_with_watchdog(Database& db, const std::string& query,
                              int timeout_s = 60) {
  auto fut = std::async(std::launch::async,
                        [&db, query] { return db.query(query); });
  if (fut.wait_for(std::chrono::seconds(timeout_s)) !=
      std::future_status::ready) {
    std::fprintf(stderr, "FATAL: lossy-fabric query hung past the watchdog\n");
    std::abort();
  }
  return fut.get();
}

// ------------------------------------------------------------- checksum --

TEST(Crc32, MatchesTheStandardCheckValue) {
  // The universal CRC32 test vector: crc32("123456789") == 0xcbf43926.
  const char* digits = "123456789";
  std::vector<std::byte> data;
  for (const char* p = digits; *p != '\0'; ++p) {
    data.push_back(static_cast<std::byte>(*p));
  }
  EXPECT_EQ(crc32(data), 0xcbf43926u);
  EXPECT_EQ(crc32(std::span<const std::byte>{}), 0u);
}

TEST(Crc32, OneFlippedBitChangesTheChecksum) {
  std::vector<std::byte> data(64, std::byte{0x5a});
  const std::uint32_t clean = crc32(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] ^= std::byte{1};
    EXPECT_NE(crc32(data), clean) << "flip at byte " << i;
    data[i] ^= std::byte{1};
  }
}

// ------------------------------------------------- transport unit tests --

Message data_message(MachineId src, StageId stage, Depth depth,
                     std::uint32_t count = 1, std::size_t bytes = 8) {
  Message m;
  m.header.type = MessageType::kData;
  m.header.src = src;
  m.header.stage = stage;
  m.header.depth = depth;
  m.header.count = count;
  m.payload.resize(bytes, std::byte{0x42});
  return m;
}

TEST(ReliableFabric, SequencedMessagesCarryLinkSeqAndCrc) {
  Network net(2);
  net.configure_reliability(ReliableConfig{.enabled = true});
  ASSERT_TRUE(net.reliable());
  net.send(1, data_message(0, 1, 0, 1, 16));
  net.send(1, data_message(0, 1, 0, 1, 16));
  auto first = net.inbox(1).try_pop_data();
  auto second = net.inbox(1).try_pop_data();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->header.link_seq, 1u);
  EXPECT_EQ(second->header.link_seq, 2u);
  EXPECT_EQ(first->header.crc, crc32(first->payload));
}

TEST(ReliableFabric, DuplicateDeliveryIsDroppedBeforeAnyCounting) {
  // Satellite audit: the exactly-once counters must not move for a
  // duplicate — dedup runs BEFORE data_messages/bytes/contexts counting.
  Network net(2);
  FaultPlan plan;
  plan.dup_data_prob = 1.0;        // every send injects one extra copy
  plan.loss_rate = 0.000001;       // arms the reliable layer; never fires
  net.set_fault_plan(plan);
  net.configure_reliability(ReliableConfig{});
  ASSERT_TRUE(net.reliable());
  net.send(1, data_message(0, 1, 0, 3, 32));
  EXPECT_EQ(net.counters().faults_duplicated, 1u);
  EXPECT_EQ(net.counters().dedup_drops, 1u);  // link-seq dedup, not seen_
  EXPECT_EQ(net.counters().data_messages, 1u);
  EXPECT_EQ(net.counters().contexts_sent, 3u);
  EXPECT_EQ(net.counters().bytes_sent, 32u);
  EXPECT_TRUE(net.inbox(1).try_pop_data().has_value());
  EXPECT_FALSE(net.inbox(1).try_pop_data().has_value());
}

TEST(ReliableFabric, CorruptedPayloadIsDetectedAndDropped) {
  Network net(2);
  FaultPlan plan;
  plan.corrupt_rate = 1.0;
  plan.corrupt_classes = kFaultClassData;
  net.set_fault_plan(plan);
  net.configure_reliability(ReliableConfig{});
  net.send(1, data_message(0, 1, 0, 1, 64));
  // Both the original and any retransmission are corrupted; the receiver
  // must detect and drop every copy without counting a delivery.
  EXPECT_GE(net.counters().faults_corrupted, 1u);
  EXPECT_GE(net.counters().payload_corruptions_detected, 1u);
  EXPECT_EQ(net.counters().data_messages, 0u);
  EXPECT_FALSE(net.inbox(1).has_data());
}

TEST(ReliableFabric, LostMessageIsRecoveredByPump) {
  Network net(2);
  FaultPlan plan;
  plan.seed = 7;
  plan.loss_rate = 0.5;
  plan.loss_classes = kFaultClassData;
  net.set_fault_plan(plan);
  ReliableConfig rc;
  rc.retransmit_timeout_ticks = 4;
  net.configure_reliability(rc);
  for (unsigned i = 0; i < 16; ++i) {
    net.send(1, data_message(0, 1, 0, 1, 16));
  }
  // Half the attempts vanish; pumping the timers must eventually deliver
  // every message exactly once (bounded: loss_rate < 1 and fresh dice
  // per attempt).
  for (int tick = 0; tick < 4000 && net.counters().data_messages < 16;
       ++tick) {
    net.pump(0);
  }
  EXPECT_EQ(net.counters().data_messages, 16u);
  EXPECT_GE(net.counters().faults_lost, 1u);
  EXPECT_GE(net.counters().retransmits, 1u);
  unsigned popped = 0;
  while (net.inbox(1).try_pop_data().has_value()) ++popped;
  EXPECT_EQ(popped, 16u);  // exactly once each, despite retransmission
}

// --------------------------------------------------- end-to-end queries --

TEST(ReliableTransport, LossScheduleMatchesOracle) {
  Database db(synthetic::make_complete(10), 3, small_config());
  const std::string query =
      "SELECT COUNT(*) FROM MATCH (v0) -/:edge*/-> (v1)";
  const std::uint64_t expected = oracle_count(query, db.graph());
  for (std::uint64_t fseed : {1u, 12u, 123u}) {
    db.set_fault_schedule("loss", fseed);
    const QueryResult result = run_with_watchdog(db, query);
    EXPECT_FALSE(result.aborted) << "fseed=" << fseed;
    EXPECT_EQ(result.count, expected) << "fseed=" << fseed;
    EXPECT_GE(result.stats.faults_lost, 1u) << "fseed=" << fseed;
    EXPECT_GE(result.stats.retransmits, 1u) << "fseed=" << fseed;
    check_transport_invariants(result, "loss fseed=" + std::to_string(fseed));
  }
}

TEST(ReliableTransport, CorruptStormMatchesOracleAndDetectsEveryHit) {
  Database db(synthetic::make_complete(10), 3, small_config());
  const std::string query =
      "SELECT COUNT(*) FROM MATCH (v0) -/:edge*/-> (v1)";
  const std::uint64_t expected = oracle_count(query, db.graph());
  db.set_fault_schedule("corrupt-storm", 5);
  const QueryResult result = run_with_watchdog(db, query);
  EXPECT_FALSE(result.aborted);
  EXPECT_EQ(result.count, expected);
  EXPECT_GE(result.stats.faults_corrupted, 1u);
  // Every corrupted payload must be caught by the CRC (or voided as a
  // headers-only frame, which also ticks the detection counter).
  EXPECT_GE(result.stats.payload_corruptions_detected, 1u);
  check_transport_invariants(result, "corrupt-storm");
}

// Satellite regression: a lost DONE credit return used to starve the
// sender forever (blocked in acquire_credit_blocking with no one to wake
// it). The transport retransmits the DONE; the blocked acquire loop
// pumps the timers, so the sender recovers without any external help.
TEST(ReliableTransport, LostCreditReturnsAreRetransmittedNotStarved) {
  EngineConfig ec = small_config();
  ec.buffers_per_machine = 24;  // tight credits: DONEs matter constantly
  ec.fault_plan.loss_rate = 0.4;
  ec.fault_plan.loss_classes = kFaultClassDone;  // ONLY credit returns
  Database db(synthetic::make_complete(10), 3, ec);
  const std::string query =
      "SELECT COUNT(*) FROM MATCH (v0) -/:edge*/-> (v1)";
  const std::uint64_t expected = oracle_count(query, db.graph());
  const QueryResult result = run_with_watchdog(db, query);
  EXPECT_FALSE(result.aborted);
  EXPECT_EQ(result.count, expected);
  EXPECT_GE(result.stats.faults_lost, 1u);
  EXPECT_GE(result.stats.retransmits, 1u);
  check_transport_invariants(result, "DONE-only loss");
}

// §3.4 under loss: termination statuses are dropped at a high rate; the
// transport re-delivers them in order, the two-wave protocol converges,
// and the consensus depth still equals the max observed depth.
TEST(ReliableTransport, TerminationStatusLossStillReachesConsensus) {
  EngineConfig ec = small_config();
  ec.fault_plan.loss_rate = 0.8;
  ec.fault_plan.loss_classes = kFaultClassTermination;
  Database db(synthetic::make_chain(24), 3, ec);
  const std::string query =
      "SELECT COUNT(*) FROM MATCH (a) -/:next*/-> (b)";
  const std::uint64_t expected = oracle_count(query, db.graph());
  const QueryResult result = run_with_watchdog(db, query);
  EXPECT_FALSE(result.aborted);
  EXPECT_EQ(result.count, expected);
  EXPECT_GE(result.stats.faults_lost, 1u);
  ASSERT_EQ(result.stats.rpq.size(), 1u);
  ASSERT_TRUE(result.stats.rpq[0].consensus_max_depth.has_value());
  EXPECT_EQ(*result.stats.rpq[0].consensus_max_depth,
            result.stats.rpq[0].max_depth_observed);
  check_transport_invariants(result, "termination-status loss");
}

// Satellite regression, part two: a link that NEVER delivers (loss rate
// 1.0 on data) must escalate into the typed machine-failure abort within
// the retransmit budget — bounded time, never a starved hang.
TEST(ReliableTransport, DeadDataLinkEscalatesToMachineFailure) {
  EngineConfig ec = small_config();
  ec.fault_plan.loss_rate = 1.0;
  ec.fault_plan.loss_classes = kFaultClassData;
  ec.max_retransmits = 4;           // small budget: escalate fast
  ec.retransmit_timeout_ticks = 8;
  Database db(synthetic::make_complete(10), 2, ec);
  const std::string query =
      "SELECT COUNT(*) FROM MATCH (v0) -/:edge*/-> (v1)";
  const auto start = std::chrono::steady_clock::now();
  const QueryResult result = run_with_watchdog(db, query, 30);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(result.aborted) << "dead link finished a remote query?";
  EXPECT_EQ(result.abort_reason, AbortReason::kMachineFailure);
  EXPECT_TRUE(abort_reason_retryable(result.abort_reason));
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            25) << "escalation not bounded";
  check_transport_invariants(result, "dead data link");
}

TEST(ReliableTransport, AllPayloadsCorruptedAbortsNotHangs) {
  EngineConfig ec = small_config();
  ec.fault_plan.corrupt_rate = 1.0;
  ec.fault_plan.corrupt_classes = kFaultClassData;
  ec.max_retransmits = 4;
  ec.retransmit_timeout_ticks = 8;
  Database db(synthetic::make_complete(10), 2, ec);
  const QueryResult result = run_with_watchdog(
      db, "SELECT COUNT(*) FROM MATCH (v0) -/:edge*/-> (v1)", 30);
  ASSERT_TRUE(result.aborted);
  EXPECT_EQ(result.abort_reason, AbortReason::kMachineFailure);
  EXPECT_GE(result.stats.payload_corruptions_detected, 1u);
  check_transport_invariants(result, "all data corrupted");
}

// kAbort loss tolerance: the deadline monitor's abort broadcast rides
// the lossy fabric too. pump re-broadcasts the pending abort until every
// live inbox observed it, so even a 90%-lossy abort channel terminates
// the query.
TEST(ReliableTransport, AbortBroadcastSurvivesAbortClassLoss) {
  EngineConfig ec = small_config();
  ec.fault_plan.loss_rate = 0.9;
  ec.fault_plan.loss_classes = kFaultClassAbort;
  ec.query_deadline_ms = 5;
  Database db(synthetic::make_complete(12), 3, ec);
  const std::string query =
      "SELECT COUNT(*) FROM MATCH (v0) -/:edge*/-> (v1)";
  const std::uint64_t expected = oracle_count(query, db.graph());
  const QueryResult result = run_with_watchdog(db, query, 30);
  if (result.aborted) {
    EXPECT_EQ(result.abort_reason, AbortReason::kDeadline);
  } else {
    EXPECT_EQ(result.count, expected);  // won the race with the deadline
  }
  check_transport_invariants(result, "abort-class loss");
}

// reliable_transport=true on a loss-free fabric: pure overhead mode. The
// answer is identical to the plain run and no retransmission ever fires
// (nothing is lost, acks flow, timers never expire spuriously).
TEST(ReliableTransport, ZeroLossReliableModeIsExactWithNoRetransmits) {
  const std::string query =
      "SELECT COUNT(*) FROM MATCH (v0) -/:edge*/-> (v1)";
  Database plain(synthetic::make_complete(10), 3, small_config());
  const QueryResult base = plain.query(query);

  EngineConfig ec = small_config();
  ec.reliable_transport = true;
  Database reliable(synthetic::make_complete(10), 3, ec);
  const QueryResult result = run_with_watchdog(reliable, query);
  EXPECT_FALSE(result.aborted);
  EXPECT_EQ(result.count, base.count);
  EXPECT_EQ(result.stats.faults_lost, 0u);
  EXPECT_EQ(result.stats.faults_corrupted, 0u);
  EXPECT_EQ(result.stats.retransmits, 0u);
  EXPECT_EQ(result.stats.dedup_drops, 0u);
  // Message/context tallies are scheduling-dependent (batch flush
  // timing), so only their presence is comparable — the
  // answer and the zeroed fault counters above are the exactness claim.
  EXPECT_GT(result.stats.data_messages, 0u);
  EXPECT_GE(result.stats.contexts_sent, base.stats.contexts_sent > 0 ? 1u : 0u);
  check_transport_invariants(result, "reliable, zero loss");
}

// ------------------------------------------------- observability plumb --

TEST(ReliableTransport, TransportCountersSurfaceInSummaryAndProfile) {
  EngineConfig ec = small_config();
  ec.profile = true;
  Database db(synthetic::make_complete(10), 3, ec);
  db.set_fault_schedule("loss", 99);
  const QueryResult result = run_with_watchdog(
      db, "SELECT COUNT(*) FROM MATCH (v0) -/:edge*/-> (v1)");
  ASSERT_FALSE(result.aborted);
  ASSERT_GE(result.stats.faults_lost, 1u);
  // Transport work is query-global, not stage-resolved: it is reported
  // once, on the RuntimeStats summary line, beside a profiled run's tree.
  ASSERT_TRUE(result.profile.enabled);
  EXPECT_GE(result.stats.retransmits, 1u);
  EXPECT_NE(result.stats.summary().find("transport:"), std::string::npos);

  // Fault-free runs keep the line silent.
  db.set_fault_schedule("none", 0);
  const QueryResult clean = db.query(
      "SELECT COUNT(*) FROM MATCH (v0) -/:edge*/-> (v1)");
  EXPECT_EQ(clean.stats.faults_lost, 0u);
  EXPECT_EQ(clean.stats.summary().find("transport:"), std::string::npos);
}

// --------------------------------------------------------------- corpus --

struct LossCorpusEntry {
  std::string graph_spec;
  unsigned machines = 1;
  std::string shape;  // named schedule or masked-class spec
  std::uint64_t fault_seed = 0;
  std::string query;
  std::string source;
};

Graph make_corpus_graph(const std::string& spec) {
  const std::string kind = spec.substr(0, spec.find(':'));
  std::vector<std::uint64_t> args;
  {
    std::istringstream in(spec);
    std::string field;
    in.ignore(static_cast<std::streamsize>(spec.find(':')) + 1);
    while (std::getline(in, field, ':')) args.push_back(std::stoull(field));
  }
  if (kind == "chain") return synthetic::make_chain(args.at(0));
  if (kind == "cycle") return synthetic::make_cycle(args.at(0));
  if (kind == "complete") return synthetic::make_complete(args.at(0));
  if (kind == "tree") {
    return synthetic::make_tree(static_cast<unsigned>(args.at(0)),
                                static_cast<unsigned>(args.at(1)));
  }
  ADD_FAILURE() << "unknown loss-corpus graph spec: " << spec;
  return Graph{};
}

void load_loss_corpus(std::vector<LossCorpusEntry>& entries) {
  const std::filesystem::path dir{RPQD_LOSS_CORPUS_DIR};
  for (const auto& file : std::filesystem::directory_iterator(dir)) {
    if (file.path().extension() != ".txt") continue;
    std::ifstream in(file.path());
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
      ++lineno;
      if (line.empty() || line[0] == '#') continue;
      const auto bar = line.find('|');
      ASSERT_NE(bar, std::string::npos)
          << "malformed loss-corpus line " << file.path() << ":" << lineno;
      LossCorpusEntry e;
      std::istringstream head(line.substr(0, bar));
      head >> e.graph_spec >> e.machines >> e.shape >> e.fault_seed;
      ASSERT_FALSE(head.fail())
          << "malformed loss-corpus line " << file.path() << ":" << lineno;
      e.query = line.substr(bar + 1);
      e.query.erase(0, e.query.find_first_not_of(' '));
      e.source =
          file.path().filename().string() + ":" + std::to_string(lineno);
      entries.push_back(std::move(e));
    }
  }
  ASSERT_FALSE(entries.empty()) << "loss corpus empty: " << dir;
}

/// Masked-class shapes beyond the named schedules:
///   done-loss:<pct>   loss on DONE credit returns only
///   term-loss:<pct>   loss on termination statuses only
///   data-dead         loss 1.0 on data (must escalate, not hang)
void replay_loss_entry(const LossCorpusEntry& e) {
  SCOPED_TRACE(e.source + " shape=" + e.shape + " query=" + e.query);
  const Graph oracle = make_corpus_graph(e.graph_spec);
  const std::uint64_t expected = oracle_count(e.query, oracle);
  const std::string kind = e.shape.substr(0, e.shape.find(':'));

  EngineConfig ec = small_config();
  bool expect_escalation = false;
  bool named_schedule = false;
  if (kind == "done-loss" || kind == "term-loss") {
    const double pct =
        std::stod(e.shape.substr(e.shape.find(':') + 1)) / 100.0;
    ec.fault_plan.seed = e.fault_seed;
    ec.fault_plan.loss_rate = pct;
    ec.fault_plan.loss_classes =
        kind == "done-loss" ? kFaultClassDone : kFaultClassTermination;
  } else if (kind == "data-dead") {
    ec.fault_plan.seed = e.fault_seed;
    ec.fault_plan.loss_rate = 1.0;
    ec.fault_plan.loss_classes = kFaultClassData;
    ec.max_retransmits = 4;
    ec.retransmit_timeout_ticks = 8;
    expect_escalation = true;
  } else {
    named_schedule = true;  // loss / corrupt-storm / lossy-chaos / ...
  }

  Database db(make_corpus_graph(e.graph_spec), e.machines, ec);
  if (named_schedule) db.set_fault_schedule(e.shape, e.fault_seed);

  const QueryResult result =
      named_schedule && e.shape == "lossy-chaos"
          ? db.run_with_retry(e.query)  // the schedule arms a crash
          : run_with_watchdog(db, e.query);
  if (expect_escalation) {
    // The query may legitimately finish when the partitioning kept every
    // traversal local; when it aborted it must be the typed escalation.
    if (result.aborted) {
      EXPECT_EQ(result.abort_reason, AbortReason::kMachineFailure);
    } else {
      EXPECT_EQ(result.count, expected);
    }
  } else {
    EXPECT_FALSE(result.aborted);
    EXPECT_EQ(result.count, expected);
  }
  check_transport_invariants(result, "loss corpus " + e.source);
}

TEST(ReliableTransport, CorpusShapes) {
  std::vector<LossCorpusEntry> entries;
  load_loss_corpus(entries);
  for (const auto& e : entries) replay_loss_entry(e);
}

// ------------------------------------------------------- tier2 stress ---

// Acceptance-scale stress for the `tier2-loss` label: many seeds, every
// lossy shape, with retry where a crash is armed. TSan green here is the
// data-race gate for the retransmit-timer, ack, and pump paths.
TEST(ReliableTransport, Tier2LossStress) {
  if (std::getenv("RPQD_TIER2_LOSS") == nullptr) {
    GTEST_SKIP() << "set RPQD_TIER2_LOSS=1 (or run ctest -L tier2-loss)";
  }
  const std::string query =
      "SELECT COUNT(*) FROM MATCH (v0) -/:edge*/-> (v1)";
  for (unsigned machines : {2u, 3u, 5u}) {
    Database db(synthetic::make_complete(12), machines, small_config());
    const std::uint64_t expected = oracle_count(query, db.graph());
    for (const char* schedule : {"loss", "corrupt-storm", "lossy-chaos"}) {
      for (std::uint64_t fseed = 1; fseed <= 12; ++fseed) {
        db.set_fault_schedule(schedule, fseed * 7919);
        const QueryResult result = db.run_with_retry(query);
        const std::string repro = std::string("tier2 schedule=") + schedule +
                                  " fseed=" + std::to_string(fseed * 7919) +
                                  " machines=" + std::to_string(machines);
        EXPECT_FALSE(result.aborted) << repro;
        EXPECT_EQ(result.count, expected) << repro;
        check_transport_invariants(result, repro);
      }
    }
  }
}

}  // namespace
}  // namespace rpqd
