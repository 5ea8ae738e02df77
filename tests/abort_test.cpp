// Query-lifecycle hardening tests: cooperative cancellation, deadlines,
// resource budgets, crash-stop machine failure, and retry.
//
// Contract under test (common/abort.h + the engine/machine/network abort
// protocol): any abort — user cancel, deadline, budget trip, or crash —
// ends the query with a clean QueryResult{aborted, abort_reason}; every
// flow-control credit comes home (outstanding == 0, overflow bookkeeping
// empty), the reach index holds no duplicate keys, and the Database is
// fully reusable: re-running the same query yields the exact oracle
// count again.
//
// The corpus companion (tests/corpus/abort/abort_shapes.txt) pins the
// named abort shapes — cancel at depth 0, cancel during the §3.4
// consensus, cancel while blocked on overflow credits, crash-stop of the
// start-vertex owner — as replayable lines; AbortLifecycle.CorpusShapes
// replays them. The acceptance-scale sweep (every fault schedule x a
// randomly timed mid-flight cancel, re-run compared against the oracle)
// runs under the `tier2-abort` ctest label, enabled by RPQD_TIER2_ABORT=1.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/rpqd.h"
#include "baseline/reference.h"
#include "common/fault.h"
#include "common/rng.h"
#include "ldbc/synthetic.h"
#include "net/network.h"
#include "query_gen.h"

#ifndef RPQD_CORPUS_DIR
#error "RPQD_CORPUS_DIR must point at tests/corpus"
#endif

namespace rpqd {
namespace {

/// Invariants that must hold after EVERY run, aborted or not: all
/// credits returned and the index uncorrupted. (The stronger oracle /
/// consensus / profile-reconciliation checks only apply to runs that
/// finished normally — an aborted run's counters are a partial prefix.)
void check_abort_invariants(const QueryResult& result,
                            const std::string& what) {
  EXPECT_EQ(result.stats.flow_outstanding, 0u)
      << "credit leak after abort; " << what;
  EXPECT_EQ(result.stats.flow_overflow_outstanding, 0u)
      << "stale overflow bookkeeping after abort; " << what;
  for (std::size_t g = 0; g < result.stats.rpq.size(); ++g) {
    EXPECT_EQ(result.stats.rpq[g].index_duplicate_entries, 0u)
        << "duplicate reach-index entries in group " << g << "; " << what;
  }
}

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

// ---------------------------------------------------------- user cancel --

TEST(AbortLifecycle, UserCancelMidFlightEndsCleanAndDatabaseIsReusable) {
  const std::string query =
      "SELECT COUNT(*) FROM MATCH (v0) -/:edge*/-> (v1)";
  const std::uint64_t expected = oracle_count(query, synthetic::make_complete(10));
  Database db(synthetic::make_complete(10), 3, small_config());

  QueryResult result;
  std::thread runner([&] { result = db.query(query); });
  // Hammer cancel_all until the run returns: whenever the cancel lands
  // mid-flight the result must be a clean kUserCancel abort; if the run
  // won the race it must be the exact oracle count. Either way no credit
  // may leak.
  std::atomic<bool> done{false};
  std::thread canceller([&] {
    while (!done.load(std::memory_order_acquire)) {
      db.cancel_all();
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  });
  runner.join();
  done.store(true, std::memory_order_release);
  canceller.join();

  if (result.aborted) {
    EXPECT_EQ(result.abort_reason, AbortReason::kUserCancel);
  } else {
    EXPECT_EQ(result.count, expected);
  }
  check_abort_invariants(result, "user cancel");

  // The same Database must answer the same query exactly afterwards.
  const QueryResult rerun = db.query(query);
  EXPECT_FALSE(rerun.aborted);
  EXPECT_EQ(rerun.count, expected);
  check_abort_invariants(rerun, "rerun after user cancel");
}

TEST(AbortLifecycle, CancelAllWithNoLiveQueryIsANoOp) {
  Database db(synthetic::make_chain(4), 2, small_config());
  EXPECT_EQ(db.cancel_all(), 0u);
  const QueryResult result =
      db.query("SELECT COUNT(*) FROM MATCH (v0) -[:next]-> (v1)");
  EXPECT_FALSE(result.aborted);
  EXPECT_EQ(result.count, 3u);
}

// ------------------------------------------------------------- deadline --

TEST(AbortLifecycle, DeadlineAbortsWithReasonDeadline) {
  EngineConfig ec = small_config();
  ec.query_deadline_ms = 1;  // a complete:12 star query runs far longer
  Database db(synthetic::make_complete(12), 3, ec);
  const QueryResult result =
      db.query("SELECT COUNT(*) FROM MATCH (v0) -/:edge*/-> (v1)");
  ASSERT_TRUE(result.aborted);
  EXPECT_EQ(result.abort_reason, AbortReason::kDeadline);
  check_abort_invariants(result, "deadline");

  // Disarming the deadline makes the same Database answer exactly.
  db.config().query_deadline_ms = 0;
  const QueryResult rerun =
      db.query("SELECT COUNT(*) FROM MATCH (v0) -/:edge*/-> (v1)");
  EXPECT_FALSE(rerun.aborted);
  EXPECT_EQ(rerun.count,
            oracle_count("SELECT COUNT(*) FROM MATCH (v0) -/:edge*/-> (v1)",
                         synthetic::make_complete(12)));
  check_abort_invariants(rerun, "rerun after deadline");
}

// ------------------------------------------------------------- budgets --

TEST(AbortLifecycle, ContextBudgetAbortsWithReasonContextBudget) {
  EngineConfig ec = small_config();
  ec.max_live_contexts = 1;  // any real traversal stacks >1 frame
  Database db(synthetic::make_complete(8), 2, ec);
  const QueryResult result =
      db.query("SELECT COUNT(*) FROM MATCH (v0) -/:edge*/-> (v1)");
  ASSERT_TRUE(result.aborted);
  EXPECT_EQ(result.abort_reason, AbortReason::kContextBudget);
  check_abort_invariants(result, "context budget");
  EXPECT_GE(result.stats.peak_live_contexts, 2u);

  db.config().max_live_contexts = 0;
  const QueryResult rerun =
      db.query("SELECT COUNT(*) FROM MATCH (v0) -/:edge*/-> (v1)");
  EXPECT_FALSE(rerun.aborted);
  check_abort_invariants(rerun, "rerun after context budget");
}

TEST(AbortLifecycle, ReachIndexBudgetAbortsWithReasonReachIndexBudget) {
  EngineConfig ec = small_config();
  ec.reach_index_max_bytes = 12;  // trips on the second 12-byte entry
  Database db(synthetic::make_complete(8), 2, ec);
  const QueryResult result =
      db.query("SELECT COUNT(*) FROM MATCH (v0) -/:edge*/-> (v1)");
  ASSERT_TRUE(result.aborted);
  EXPECT_EQ(result.abort_reason, AbortReason::kReachIndexBudget);
  check_abort_invariants(result, "reach-index budget");

  db.config().reach_index_max_bytes = 0;
  const QueryResult rerun =
      db.query("SELECT COUNT(*) FROM MATCH (v0) -/:edge*/-> (v1)");
  EXPECT_FALSE(rerun.aborted);
  check_abort_invariants(rerun, "rerun after reach-index budget");
}

TEST(AbortLifecycle, PeakLiveContextsTrackedWithoutArmedBudget) {
  Database db(synthetic::make_chain(8), 2, small_config());
  const QueryResult result =
      db.query("SELECT COUNT(*) FROM MATCH (v0) -/:next*/-> (v1)");
  EXPECT_FALSE(result.aborted);
  EXPECT_GE(result.stats.peak_live_contexts, 1u);
}

// -------------------------------------------- depth-cap truncation (S1) --

TEST(AbortLifecycle, DepthCapReportsTruncationInsteadOfSilence) {
  // Index off on a cyclic graph: only the max_exploration_depth valve
  // bounds the walk. It used to truncate silently; now the result says so
  // through the reason channel without aborting.
  EngineConfig ec = small_config();
  ec.use_reachability_index = false;
  ec.max_exploration_depth = 3;
  Database db(synthetic::make_cycle(6), 2, ec);
  const QueryResult result =
      db.query("SELECT COUNT(*) FROM MATCH (v0) -/:next*/-> (v1)");
  EXPECT_FALSE(result.aborted);
  EXPECT_TRUE(result.truncated);
  EXPECT_EQ(result.abort_reason, AbortReason::kDepthTruncated);
  check_abort_invariants(result, "depth truncation");
}

TEST(AbortLifecycle, UnreachedDepthCapDoesNotReportTruncation) {
  // Acyclic chain, cap far above the longest path: nothing was pruned,
  // the count is exact, no truncation flag.
  EngineConfig ec = small_config();
  ec.use_reachability_index = false;
  ec.max_exploration_depth = 32;
  const std::string query =
      "SELECT COUNT(*) FROM MATCH (v0) -/:next*/-> (v1)";
  Database db(synthetic::make_chain(6), 2, ec);
  const QueryResult result = db.query(query);
  EXPECT_FALSE(result.aborted);
  EXPECT_FALSE(result.truncated);
  EXPECT_EQ(result.abort_reason, AbortReason::kNone);
  EXPECT_EQ(result.count, oracle_count(query, synthetic::make_chain(6)));
}

// ------------------------------------------------- credit starvation --

TEST(AbortLifecycle, CreditStarvationAborts) {
  // Deterministic permanent credit block: zero shared and zero overflow
  // credits leave no credit source for depths past the dedicated window.
  // Whether or not the blocked worker may divert to inbound work, once
  // the inbox runs dry the drought cannot self-heal, and the query must
  // end in a clean kCreditStarvation abort at flow_starvation_abort_ms
  // instead of minting credit beyond the §3.3 budget.
  const std::string query =
      "SELECT COUNT(*) FROM MATCH (v0) -/:next*/-> (v1)";
  for (const unsigned nesting : {0u, 1024u}) {
    SCOPED_TRACE("max_pickup_nesting=" + std::to_string(nesting));
    EngineConfig ec = small_config();
    ec.workers_per_machine = 1;
    ec.rpq_shared_credits_per_stage = 0;
    ec.rpq_overflow_credits_per_depth = 0;
    ec.max_pickup_nesting = nesting;
    ec.flow_starvation_abort_ms = 100;
    ec.buffer_bytes = 32;  // flush every context immediately
    // chain vertices alternate owners under the modulo partition, so the
    // walk crosses machines at every hop and must reach depth >= 4.
    Database db(synthetic::make_chain(12), 2, ec);
    const auto start = std::chrono::steady_clock::now();
    const QueryResult result = db.query(query);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    ASSERT_TRUE(result.aborted);
    EXPECT_EQ(result.abort_reason, AbortReason::kCreditStarvation);
    check_abort_invariants(result, "credit starvation");
    EXPECT_LT(
        std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(), 5);

    // With sane credits restored the same Database answers exactly.
    db.config().rpq_shared_credits_per_stage = 5;
    db.config().rpq_overflow_credits_per_depth = 1;
    db.config().max_pickup_nesting = 1024;
    const QueryResult rerun = db.query(query);
    EXPECT_FALSE(rerun.aborted);
    EXPECT_EQ(rerun.count, oracle_count(query, synthetic::make_chain(12)));
  }
}

TEST(AbortLifecycle, NestingCapZeroWithSaneCreditsStaysCorrect) {
  // max_pickup_nesting = 0 alone (main-loop pickup still consumes the
  // inbox, default credit pools intact) must not abort or mis-count.
  EngineConfig ec = small_config();
  ec.max_pickup_nesting = 0;
  const std::string query =
      "SELECT COUNT(*) FROM MATCH (v0) -/:next+/-> (v1)";
  Database db(synthetic::make_chain(10), 3, ec);
  const QueryResult result = db.query(query);
  EXPECT_FALSE(result.aborted);
  EXPECT_EQ(result.count, oracle_count(query, synthetic::make_chain(10)));
  check_abort_invariants(result, "nesting cap zero");
}

// ----------------------------------------------------------- crash-stop --

/// Runs `fn` under a 30-second watchdog: a crash-stop that wedges the
/// engine (the bug this PR class exists to prevent) must fail the test,
/// not hang the suite.
QueryResult run_with_watchdog(Database& db, const std::string& query) {
  auto fut = std::async(std::launch::async,
                        [&db, query] { return db.query(query); });
  if (fut.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
    std::fprintf(stderr, "FATAL: crash-stop query hung past the watchdog\n");
    std::abort();
  }
  return fut.get();
}

TEST(AbortLifecycle, CrashStopTerminatesWithMachineFailure) {
  Database db(synthetic::make_complete(10), 3, small_config());
  db.set_fault_schedule("crash-stop", 7);
  const std::string query =
      "SELECT COUNT(*) FROM MATCH (v0) -/:edge*/-> (v1)";
  const QueryResult result = run_with_watchdog(db, query);
  ASSERT_TRUE(result.aborted);
  EXPECT_EQ(result.abort_reason, AbortReason::kMachineFailure);
  check_abort_invariants(result, "crash-stop");

  // Crash-stop is one-shot (FaultPlan::crash_run): the next run models a
  // replaced machine and must answer exactly, schedule still installed.
  const QueryResult rerun = run_with_watchdog(db, query);
  EXPECT_FALSE(rerun.aborted);
  EXPECT_EQ(rerun.count, oracle_count(query, synthetic::make_complete(10)));
  check_abort_invariants(rerun, "rerun after crash-stop");
}

TEST(AbortLifecycle, CrashStopOfStartVertexOwnerAborts) {
  // The hardest victim choice: the machine owning the single start
  // vertex dies on its very first inbox poll, before contributing
  // anything. The survivors must not hang waiting for its termination
  // status.
  constexpr unsigned kMachines = 3;
  constexpr VertexId kStart = 2;
  EngineConfig ec = small_config();
  ec.fault_plan.crash_machine =
      static_cast<int>(Partition::owner(kStart, kMachines));
  ec.fault_plan.crash_tick = 1;
  Database db(synthetic::make_complete(10), kMachines, ec);
  const QueryResult result = run_with_watchdog(
      db, "SELECT COUNT(*) FROM MATCH (v0) -/:edge*/-> (v1) WHERE ID(v0) = 2");
  ASSERT_TRUE(result.aborted);
  EXPECT_EQ(result.abort_reason, AbortReason::kMachineFailure);
  check_abort_invariants(result, "start-owner crash");
}

// ---------------------------------------------------------------- retry --

TEST(AbortLifecycle, RunWithRetryRecoversFromCrashStop) {
  Database db(synthetic::make_complete(9), 3, small_config());
  db.set_fault_schedule("crash-stop", 11);
  const std::string query =
      "SELECT COUNT(*) FROM MATCH (v0) -/:edge*/-> (v1)";
  Database::RetryPolicy policy;
  policy.backoff_base_ms = 0.1;
  policy.backoff_max_ms = 1.0;
  const QueryResult result = db.run_with_retry(query, policy);
  EXPECT_FALSE(result.aborted) << to_string(result.abort_reason);
  EXPECT_EQ(result.stats.retries, 1u);
  EXPECT_EQ(result.count, oracle_count(query, synthetic::make_complete(9)));
  check_abort_invariants(result, "retry after crash");
}

TEST(AbortLifecycle, RunWithRetryDoesNotRetryNonRetryableAborts) {
  EngineConfig ec = small_config();
  ec.query_deadline_ms = 1;  // deadline aborts are final, not transient
  Database db(synthetic::make_complete(12), 3, ec);
  const QueryResult result = db.run_with_retry(
      "SELECT COUNT(*) FROM MATCH (v0) -/:edge*/-> (v1)");
  ASSERT_TRUE(result.aborted);
  EXPECT_EQ(result.abort_reason, AbortReason::kDeadline);
  EXPECT_EQ(result.stats.retries, 0u);
}

TEST(AbortLifecycle, RunWithRetryExhaustsAttemptsOnPersistentBudgetTrip) {
  EngineConfig ec = small_config();
  ec.max_live_contexts = 1;  // trips identically on every attempt
  Database db(synthetic::make_complete(8), 2, ec);
  Database::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.backoff_base_ms = 0.1;
  policy.backoff_max_ms = 0.5;
  const QueryResult result = db.run_with_retry(
      "SELECT COUNT(*) FROM MATCH (v0) -/:edge*/-> (v1)", policy);
  ASSERT_TRUE(result.aborted);
  EXPECT_EQ(result.abort_reason, AbortReason::kContextBudget);
  EXPECT_EQ(result.stats.retries, 2u);  // 3 attempts = 2 retries
}

// ----------------------------------------- fabric-level control channel --

TEST(AbortFabric, StaleEpochDataIsDroppedAtDelivery) {
  Network net(2);
  net.set_epoch(5);
  Message msg;
  msg.header.type = MessageType::kData;
  msg.header.src = 1;
  msg.header.epoch = 3;  // a dead query's epoch
  net.inbox(0).push(std::move(msg), net.stats());
  EXPECT_FALSE(net.inbox(0).has_data());
  EXPECT_EQ(net.stats().epoch_dropped.load(), 1u);
}

TEST(AbortFabric, AbortBroadcastSetsEveryInboxAndFirstReasonWins) {
  Network net(3);
  net.broadcast_abort(AbortReason::kDeadline);
  net.broadcast_abort(AbortReason::kUserCancel);  // loses the race
  for (unsigned m = 0; m < 3; ++m) {
    EXPECT_TRUE(net.inbox(m).aborted());
    EXPECT_EQ(net.inbox(m).abort_reason(), AbortReason::kDeadline);
    EXPECT_FALSE(net.inbox(m).crashed());
  }
  EXPECT_EQ(net.stats().abort_messages.load(), 6u);
}

TEST(AbortFabric, AbortControllerFirstRequestFixesTheReason) {
  AbortController ctrl;
  EXPECT_FALSE(ctrl.armed());
  EXPECT_EQ(ctrl.reason(), AbortReason::kNone);
  EXPECT_TRUE(ctrl.request(AbortReason::kContextBudget));
  EXPECT_FALSE(ctrl.request(AbortReason::kUserCancel));
  EXPECT_TRUE(ctrl.armed());
  EXPECT_EQ(ctrl.reason(), AbortReason::kContextBudget);
  EXPECT_FALSE(abort_reason_retryable(AbortReason::kUserCancel));
  EXPECT_FALSE(abort_reason_retryable(AbortReason::kDeadline));
  EXPECT_TRUE(abort_reason_retryable(AbortReason::kMachineFailure));
  EXPECT_TRUE(abort_reason_retryable(AbortReason::kContextBudget));
  EXPECT_TRUE(abort_reason_retryable(AbortReason::kCreditStarvation));
}

// --------------------------------------------------------------- corpus --

struct AbortCorpusEntry {
  std::string graph_spec;
  unsigned machines = 1;
  std::string schedule;
  std::uint64_t fault_seed = 0;
  std::string abort_spec;
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
  if (kind == "random") {
    synthetic::RandomGraphConfig cfg;
    cfg.num_vertices = args.at(0);
    cfg.num_edges = args.at(1);
    cfg.num_vertex_labels = static_cast<unsigned>(args.at(2));
    cfg.num_edge_labels = static_cast<unsigned>(args.at(3));
    cfg.allow_self_loops = args.at(4) != 0;
    cfg.seed = args.at(5);
    return synthetic::make_random(cfg);
  }
  ADD_FAILURE() << "unknown abort-corpus graph spec: " << spec;
  return Graph{};
}

void load_abort_corpus(std::vector<AbortCorpusEntry>& entries) {
  const std::filesystem::path dir =
      std::filesystem::path(RPQD_CORPUS_DIR) / "abort";
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
          << "malformed abort-corpus line " << file.path() << ":" << lineno;
      AbortCorpusEntry e;
      std::istringstream head(line.substr(0, bar));
      head >> e.graph_spec >> e.machines >> e.schedule >> e.fault_seed >>
          e.abort_spec;
      ASSERT_FALSE(head.fail())
          << "malformed abort-corpus line " << file.path() << ":" << lineno;
      e.query = line.substr(bar + 1);
      e.query.erase(0, e.query.find_first_not_of(' '));
      e.source =
          file.path().filename().string() + ":" + std::to_string(lineno);
      entries.push_back(std::move(e));
    }
  }
  ASSERT_FALSE(entries.empty()) << "abort corpus empty: " << dir;
}

std::vector<std::uint64_t> abort_spec_args(const std::string& spec) {
  std::vector<std::uint64_t> out;
  const auto colon = spec.find(':');
  if (colon == std::string::npos) return out;
  std::istringstream in(spec.substr(colon + 1));
  std::string field;
  while (std::getline(in, field, ':')) out.push_back(std::stoull(field));
  return out;
}

/// Replays one abort-shape line: runs the query under the shape's abort
/// stimulus, checks the post-abort invariants, then re-runs cleanly on
/// the SAME Database and compares against the oracle.
void replay_abort_entry(const AbortCorpusEntry& e) {
  SCOPED_TRACE(e.source + " shape=" + e.abort_spec + " query=" + e.query);
  const Graph oracle = make_corpus_graph(e.graph_spec);
  const std::uint64_t expected = oracle_count(e.query, oracle);
  const std::string shape = e.abort_spec.substr(0, e.abort_spec.find(':'));
  const auto args = abort_spec_args(e.abort_spec);

  EngineConfig ec = small_config();
  AbortReason expect_reason = AbortReason::kNone;
  if (shape == "deadline") {
    ec.query_deadline_ms = args.at(0);
    expect_reason = AbortReason::kDeadline;
  } else if (shape == "ctx-budget") {
    ec.max_live_contexts = args.at(0);
    expect_reason = AbortReason::kContextBudget;
  } else if (shape == "idx-budget") {
    ec.reach_index_max_bytes = args.at(0);
    expect_reason = AbortReason::kReachIndexBudget;
  } else if (shape == "crash") {
    // crash:<machine>:<tick>; the machine field is a vertex id when the
    // shape is crash-start (victim = the start vertex's owner).
    ec.fault_plan.crash_machine = static_cast<int>(args.at(0));
    ec.fault_plan.crash_tick = args.at(1);
    expect_reason = AbortReason::kMachineFailure;
  } else if (shape == "crash-start") {
    ec.fault_plan.crash_machine = static_cast<int>(
        Partition::owner(static_cast<VertexId>(args.at(0)), e.machines));
    ec.fault_plan.crash_tick = args.at(1);
    expect_reason = AbortReason::kMachineFailure;
  } else if (shape == "cancel") {
    expect_reason = AbortReason::kUserCancel;
  } else if (shape == "cancel-starved") {
    // Cancel a worker parked on overflow credits: no shared pool, one
    // overflow credit per depth, tiny buffers — deep chains block.
    ec.rpq_shared_credits_per_stage = 0;
    ec.buffer_bytes = 32;
    expect_reason = AbortReason::kUserCancel;
  } else {
    FAIL() << "unknown abort shape: " << e.abort_spec;
  }

  Database db(make_corpus_graph(e.graph_spec), e.machines, ec);
  if (e.schedule != "none" || ec.fault_plan.crash_enabled()) {
    if (e.schedule != "none") db.set_fault_schedule(e.schedule, e.fault_seed);
    if (ec.fault_plan.crash_enabled()) {
      db.config().fault_plan.crash_machine = ec.fault_plan.crash_machine;
      db.config().fault_plan.crash_tick = ec.fault_plan.crash_tick;
    }
  }

  QueryResult result;
  if (shape == "cancel" || shape == "cancel-starved") {
    const std::uint64_t delay_us = args.empty() ? 0 : args.at(0);
    std::atomic<bool> done{false};
    std::thread runner([&] {
      result = run_with_watchdog(db, e.query);
      done.store(true, std::memory_order_release);
    });
    std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
    // Hammer until the run ends: either the cancel lands mid-flight or
    // the run wins the race with an exact count.
    while (!done.load(std::memory_order_acquire)) {
      db.cancel_all();
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    runner.join();
  } else {
    result = run_with_watchdog(db, e.query);
  }

  if (result.aborted) {
    EXPECT_EQ(result.abort_reason, expect_reason);
  } else {
    // The run won the race against the stimulus; it must then be exact.
    EXPECT_EQ(result.count, expected);
  }
  check_abort_invariants(result, "abort corpus run");

  // Clean re-run on the same Database: disarm the stimulus, compare
  // against the oracle (the byte-identical-rerun requirement).
  db.config().query_deadline_ms = 0;
  db.config().max_live_contexts = 0;
  db.config().reach_index_max_bytes = 0;
  db.config().fault_plan.crash_machine = -1;
  const QueryResult rerun = run_with_watchdog(db, e.query);
  EXPECT_FALSE(rerun.aborted);
  EXPECT_EQ(rerun.count, expected);
  check_abort_invariants(rerun, "abort corpus rerun");
}

TEST(AbortLifecycle, CorpusShapes) {
  std::vector<AbortCorpusEntry> entries;
  load_abort_corpus(entries);
  if (HasFatalFailure()) return;
  for (const auto& e : entries) replay_abort_entry(e);
}

// ------------------------------------------------------- tier-2 sweep --

int env_int(const char* name, int fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atoi(value) : fallback;
}

/// Core of the abort sweep: generated queries x every fault schedule x a
/// randomly-timed mid-flight cancel. Every run must end as a clean
/// kUserCancel abort or an exact count; either way no credit leaks, and
/// an immediate re-run on the same Database matches the oracle exactly.
void run_abort_sweep(int num_queries, const std::vector<std::string>& schedules,
                     std::uint64_t base_seed) {
  testgen::QueryGenConfig qcfg;
  qcfg.num_vertex_labels = 2;
  qcfg.num_edge_labels = 2;
  qcfg.conjunction_prob = 0.2;
  synthetic::RandomGraphConfig gcfg;
  gcfg.num_vertices = 24;
  gcfg.num_edges = 55;
  gcfg.num_vertex_labels = 2;
  gcfg.num_edge_labels = 2;

  for (int q = 0; q < num_queries; ++q) {
    gcfg.seed = base_seed * 1000 + static_cast<std::uint64_t>(q / 8);
    gcfg.allow_self_loops = (q / 8) % 2 == 1;
    const Graph oracle = synthetic::make_random(gcfg);
    const std::uint64_t qseed =
        base_seed * 100003 + static_cast<std::uint64_t>(q);
    Rng rng(qseed);
    const std::string query = testgen::random_query(rng, qcfg);
    std::uint64_t expected = 0;
    try {
      expected = oracle_count(query, oracle);
    } catch (const UnsupportedError&) {
      continue;
    }
    for (const auto& schedule : schedules) {
      const std::uint64_t fseed = qseed ^ 0x5bf03u;
      const std::string repro = "repro: qseed=" + std::to_string(qseed) +
                                " gseed=" + std::to_string(gcfg.seed) +
                                " schedule=" + schedule +
                                " fseed=" + std::to_string(fseed) +
                                " query=" + query;
      Database db(synthetic::make_random(gcfg), 3, small_config());
      db.set_fault_schedule(schedule, fseed);
      // Seeded mid-flight cancel delay (microseconds).
      const std::uint64_t delay_us =
          fault_hash(qseed, static_cast<std::uint64_t>(q), 13) % 400;
      QueryResult result;
      std::thread runner([&] { result = db.query(query); });
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
      db.cancel_all();
      runner.join();
      if (result.aborted) {
        // crash-stop may beat the cancel; both are legitimate ends.
        EXPECT_TRUE(result.abort_reason == AbortReason::kUserCancel ||
                    (schedule == "crash-stop" &&
                     result.abort_reason == AbortReason::kMachineFailure))
            << to_string(result.abort_reason) << "; " << repro;
      } else {
        EXPECT_EQ(result.count, expected) << repro;
      }
      check_abort_invariants(result, repro);
      // Byte-identical re-run: same Database, stimulus gone (crash-stop
      // is one-shot; cancel is not re-issued).
      const QueryResult rerun = db.query(query);
      EXPECT_FALSE(rerun.aborted) << repro;
      EXPECT_EQ(rerun.count, expected) << "rerun mismatch; " << repro;
      check_abort_invariants(rerun, "rerun; " + repro);
    }
  }
}

TEST(AbortSweep, MidFlightCancelSmoke) {
  run_abort_sweep(env_int("RPQD_ABORT_QUERIES", 6), {"none", "chaos"}, 101);
}

// Acceptance-scale sweep, run under the `tier2-abort` ctest label (see
// tests/CMakeLists.txt): every schedule including crash-stop, with
// randomly-timed mid-flight cancels and full re-run comparison.
TEST(AbortSweep, Tier2EverySchedule) {
  if (std::getenv("RPQD_TIER2_ABORT") == nullptr) {
    GTEST_SKIP() << "set RPQD_TIER2_ABORT=1 (or run ctest -L tier2-abort)";
  }
  run_abort_sweep(std::max(48, env_int("RPQD_ABORT_QUERIES", 48)),
                  {"none", "reorder", "dup-storm", "credit-jitter",
                   "slow-machine", "chaos", "crash-stop"},
                  211);
}

}  // namespace
}  // namespace rpqd
