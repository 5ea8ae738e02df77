// Result cache (DESIGN.md §11): unit tests for PGQL normalization, the
// single-flight result cache, and the Database-level wiring
// (PROFILE-vs-plain keying, abort no-admit, invalidation, eviction
// pressure) — plus the cache regression corpus replay
// (tests/corpus/cache/*.txt).
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/rpqd.h"
#include "baseline/reference.h"
#include "ldbc/synthetic.h"
#include "pgql/normalize.h"
#include "runtime/result_cache.h"

#ifndef RPQD_CACHE_CORPUS_DIR
#error "RPQD_CACHE_CORPUS_DIR must point at tests/corpus/cache"
#endif

namespace rpqd {
namespace {

// ---- PGQL normalization (pgql/normalize.h) ------------------------------

TEST(Normalize, CaseAndWhitespaceFoldToOneForm) {
  const auto a = pgql::normalize_query(
      "select   count(*)\n from\tmatch (a:L0) -/:e0*/-> (b)");
  const auto b = pgql::normalize_query(
      "SELECT COUNT(*) FROM MATCH (a:L0) -/:e0*/-> (b)");
  EXPECT_EQ(a.text, b.text);
  EXPECT_FALSE(a.profile);
  EXPECT_FALSE(b.profile);
}

TEST(Normalize, ProfilePrefixStrippedIntoFlag) {
  const auto plain =
      pgql::normalize_query("SELECT COUNT(*) FROM MATCH (a:L0)");
  const auto profiled =
      pgql::normalize_query("profile SELECT COUNT(*) FROM MATCH (a:L0)");
  EXPECT_TRUE(profiled.profile);
  EXPECT_FALSE(plain.profile);
  // Same normalized text: PROFILE is a result-cache key FLAG, not text.
  EXPECT_EQ(plain.text, profiled.text);
}

TEST(Normalize, IdentifierCasePreservedAfterColonAndDot) {
  // Labels and properties are case-sensitive catalog names; a label or
  // property spelled like a keyword must never be folded (tokens are
  // single-space separated in the canonical rendering).
  const auto q = pgql::normalize_query(
      "select count(*) from match (a:match) where a.count = 1");
  EXPECT_NE(q.text.find(": match"), std::string::npos) << q.text;
  EXPECT_NE(q.text.find(". count"), std::string::npos) << q.text;
  // The real keywords did fold.
  EXPECT_EQ(q.text.find("select"), std::string::npos) << q.text;
  EXPECT_NE(q.text.find("SELECT"), std::string::npos) << q.text;
}

TEST(Normalize, UnlexableTextFallsBackToTrimmedRaw) {
  // An unterminated string literal fails the lexer; normalization must
  // not throw and keys on the trimmed raw text (the engine rejects it
  // identically on every ask, so the key is still sound).
  const auto q = pgql::normalize_query("   SELECT 'unterminated   ");
  EXPECT_FALSE(q.profile);
  EXPECT_EQ(q.text, "SELECT 'unterminated");
}

// ---- ResultCache (runtime/result_cache.h) -------------------------------

QueryResult make_result(std::uint64_t count, std::size_t padding = 0) {
  QueryResult r;
  r.count = count;
  if (padding > 0) {
    r.rows.push_back({std::string(padding, 'x')});
  }
  return r;
}

TEST(ResultCache, MissThenHit) {
  ResultCache cache(/*max_bytes=*/1 << 20, /*admit_max_bytes=*/0);
  auto look = cache.acquire("Q", false);
  ASSERT_EQ(look.role, ResultCache::Role::kLeader);
  cache.complete(look.flight, "Q", false, make_result(42));
  auto again = cache.acquire("Q", false);
  ASSERT_EQ(again.role, ResultCache::Role::kHit);
  EXPECT_EQ(again.result.count, 42u);
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.inserts, 1u);
}

TEST(ResultCache, ProfileFlagIsPartOfTheKey) {
  ResultCache cache(1 << 20, 0);
  auto look = cache.acquire("Q", false);
  cache.complete(look.flight, "Q", false, make_result(1));
  // The profiled ask of the same text is a distinct entry: miss.
  auto profiled = cache.acquire("Q", true);
  EXPECT_EQ(profiled.role, ResultCache::Role::kLeader);
  cache.complete(profiled.flight, "Q", true, make_result(1));
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(ResultCache, DirtyResultsShareButNeverCache) {
  ResultCache cache(1 << 20, 0);
  auto look = cache.acquire("Q", false);
  QueryResult aborted = make_result(3);
  aborted.aborted = true;
  cache.complete(look.flight, "Q", false, aborted);
  EXPECT_EQ(cache.stats().rejected_dirty, 1u);
  EXPECT_EQ(cache.acquire("Q", false).role, ResultCache::Role::kLeader)
      << "an aborted result must not be served to later askers";
}

TEST(ResultCache, OversizedResultsExecuteButNeverCache) {
  ResultCache cache(/*max_bytes=*/1 << 20, /*admit_max_bytes=*/2048);
  auto look = cache.acquire("Q", false);
  cache.complete(look.flight, "Q", false, make_result(1, /*padding=*/4096));
  EXPECT_EQ(cache.stats().rejected_too_big, 1u);
  EXPECT_EQ(cache.acquire("Q", false).role, ResultCache::Role::kLeader);
}

TEST(ResultCache, EvictsLruUnderByteBudget) {
  // Each empty result estimates ~1KB; budget fits roughly two.
  ResultCache cache(/*max_bytes=*/2200, /*admit_max_bytes=*/2200);
  for (int i = 0; i < 8; ++i) {
    const std::string key = "Q" + std::to_string(i);
    auto look = cache.acquire(key, false);
    cache.complete(look.flight, key, false, make_result(i));
  }
  const auto s = cache.stats();
  EXPECT_LE(s.bytes, 2200u);
  EXPECT_GT(s.evicted, 0u);
  // The most recent key survived.
  EXPECT_EQ(cache.acquire("Q7", false).role, ResultCache::Role::kHit);
}

TEST(ResultCache, InvalidateClearsStore) {
  ResultCache cache(1 << 20, 0);
  auto look = cache.acquire("Q", false);
  cache.complete(look.flight, "Q", false, make_result(5));
  cache.invalidate();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.acquire("Q", false).role, ResultCache::Role::kLeader);
}

TEST(ResultCache, FollowerSharesTheLeadersResult) {
  ResultCache cache(1 << 20, 0);
  auto leader = cache.acquire("Q", false);
  ASSERT_EQ(leader.role, ResultCache::Role::kLeader);
  auto follower = cache.acquire("Q", false);
  ASSERT_EQ(follower.role, ResultCache::Role::kFollower);
  std::uint64_t seen = 0;
  std::thread waiter([&] { seen = ResultCache::await(follower.flight).count; });
  cache.complete(leader.flight, "Q", false, make_result(99));
  waiter.join();
  EXPECT_EQ(seen, 99u);
  EXPECT_EQ(cache.stats().coalesced, 1u);
}

TEST(ResultCache, FollowerSharesTheLeadersException) {
  ResultCache cache(1 << 20, 0);
  auto leader = cache.acquire("Q", false);
  auto follower = cache.acquire("Q", false);
  ASSERT_EQ(follower.role, ResultCache::Role::kFollower);
  cache.complete_error(
      leader.flight, "Q", false,
      std::make_exception_ptr(std::runtime_error("leader failed")));
  EXPECT_THROW(ResultCache::await(follower.flight), std::runtime_error);
  // A failed flight caches nothing; the next asker leads again.
  EXPECT_EQ(cache.acquire("Q", false).role, ResultCache::Role::kLeader);
}

// ---- Database-level wiring ----------------------------------------------

EngineConfig small_engine_config() {
  EngineConfig ec;
  ec.workers_per_machine = 2;
  ec.buffers_per_machine = 48;
  ec.buffer_bytes = 256;
  return ec;
}

constexpr const char* kChainStar =
    "SELECT COUNT(*) FROM MATCH (a) -/:next*/-> (b)";

TEST(CrossQueryCache, ProfileKeysItsOwnResultEntry) {
  EngineConfig ec = small_engine_config();
  ec.result_cache_max_bytes = 1 << 20;
  Database db(synthetic::make_chain(24), 3, ec);

  const QueryResult plain = db.query(kChainStar);
  EXPECT_FALSE(plain.stats.result_cache_hit);
  EXPECT_FALSE(plain.profile.enabled);

  // `PROFILE Q` misses the result cache: the profile flag is part of
  // the key, so it never shares Q's result object.
  const QueryResult profiled =
      db.query(std::string("PROFILE ") + kChainStar);
  EXPECT_TRUE(profiled.profile.enabled);
  EXPECT_FALSE(profiled.stats.result_cache_hit);
  EXPECT_EQ(profiled.count, plain.count);

  // Re-asking each form hits its own result-cache entry, with the
  // profile tree present exactly when asked for.
  const QueryResult plain_again = db.query(kChainStar);
  EXPECT_TRUE(plain_again.stats.result_cache_hit);
  EXPECT_FALSE(plain_again.profile.enabled);
  const QueryResult profiled_again =
      db.query(std::string("profile ") + kChainStar);
  EXPECT_TRUE(profiled_again.stats.result_cache_hit);
  EXPECT_TRUE(profiled_again.profile.enabled);
  EXPECT_EQ(db.result_cache_stats().entries, 2u);
}

TEST(CrossQueryCache, NormalizedTextSharesOneResultEntry) {
  EngineConfig ec = small_engine_config();
  ec.result_cache_max_bytes = 1 << 20;
  Database db(synthetic::make_chain(12), 2, ec);

  const QueryResult first =
      db.query("select count(*) from match (a) -/:next*/-> (b)");
  EXPECT_FALSE(first.stats.result_cache_hit);
  const QueryResult second = db.query(kChainStar);
  EXPECT_TRUE(second.stats.result_cache_hit);
  EXPECT_EQ(second.count, first.count);
  EXPECT_EQ(db.result_cache_stats().entries, 1u);
}

TEST(CrossQueryCache, RetryPathBypassesTheResultCache) {
  EngineConfig ec = small_engine_config();
  ec.result_cache_max_bytes = 1 << 20;
  Database db(synthetic::make_chain(12), 2, ec);
  const QueryResult cached = db.query(kChainStar);
  const std::uint64_t hits_before = db.result_cache_stats().hits;
  const QueryResult retried = db.run_with_retry(kChainStar);
  EXPECT_EQ(retried.count, cached.count);
  EXPECT_FALSE(retried.stats.result_cache_hit);
  EXPECT_EQ(db.result_cache_stats().hits, hits_before);
}

TEST(CrossQueryCache, AbortedRunIsNeverCached) {
  EngineConfig ec = small_engine_config();
  ec.result_cache_max_bytes = 1 << 20;
  // A context budget of 1 per machine trips immediately on the chain.
  ec.max_live_contexts = 1;
  Database db(synthetic::make_chain(48), 2, ec);
  const QueryResult first = db.query(kChainStar);
  ASSERT_TRUE(first.aborted);
  EXPECT_EQ(db.result_cache_stats().rejected_dirty, 1u);
  EXPECT_EQ(db.result_cache_stats().entries, 0u)
      << "an aborted run's partial result must not be cached";
  // The re-ask executes again instead of replaying the partial result.
  const QueryResult second = db.query(kChainStar);
  EXPECT_FALSE(second.stats.result_cache_hit);
  EXPECT_TRUE(second.aborted);
}

TEST(CrossQueryCache, InvalidateCachesDropsTheResultCache) {
  EngineConfig ec = small_engine_config();
  ec.result_cache_max_bytes = 1 << 20;
  Database db(synthetic::make_chain(24), 3, ec);

  const QueryResult cold = db.query(kChainStar);
  ASSERT_EQ(db.result_cache_stats().entries, 1u);
  db.invalidate_caches();
  EXPECT_EQ(db.result_cache_stats().entries, 0u);
  EXPECT_EQ(db.result_cache_stats().invalidations, 1u);

  const QueryResult after = db.query(kChainStar);
  EXPECT_FALSE(after.stats.result_cache_hit);
  EXPECT_EQ(after.count, cold.count);
}

TEST(CrossQueryCache, EvictionPressureKeepsResultsCorrect) {
  EngineConfig ec = small_engine_config();
  Database db(synthetic::make_chain(24), 3, ec);
  const QueryResult cold = db.query(kChainStar);
  // Room for one entry of this size: every distinct ask evicts the last.
  const std::uint64_t budget = estimate_result_bytes(cold);
  db.config().result_cache_max_bytes = budget;
  db.config().result_cache_admit_max_bytes = budget;
  for (int round = 0; round < 3; ++round) {
    const QueryResult plain = db.query(kChainStar);
    const QueryResult profiled =
        db.query(std::string("PROFILE ") + kChainStar);
    EXPECT_EQ(plain.count, cold.count);
    EXPECT_EQ(profiled.count, cold.count);
    EXPECT_FALSE(plain.stats.result_cache_hit) << "round " << round;
    EXPECT_LE(db.result_cache_stats().bytes, budget);
  }
  EXPECT_GT(db.result_cache_stats().evicted, 0u);
}

TEST(CrossQueryCache, SchedulerServesCachedHitsWithoutDispatch) {
  EngineConfig ec = small_engine_config();
  ec.result_cache_max_bytes = 1 << 20;
  Database db(synthetic::make_chain(24), 2, ec);
  SchedulerConfig sc;
  sc.max_inflight = 2;
  db.configure_scheduler(sc);

  QueryTicket first = db.submit(kChainStar);
  const QueryResult executed = db.await(first);
  EXPECT_FALSE(executed.stats.result_cache_hit);

  QueryTicket second = db.submit(kChainStar);
  EXPECT_EQ(second.admission(), AdmissionOutcome::kCachedHit);
  const QueryResult cached = db.await(second);
  EXPECT_TRUE(cached.stats.result_cache_hit);
  EXPECT_EQ(cached.count, executed.count);
  // A cached-hit ticket holds no run: cancel has nothing to do.
  EXPECT_FALSE(db.cancel(second));
  const SchedulerStats ss = db.scheduler_stats();
  EXPECT_EQ(ss.cache_hits, 1u);
}

// ---- cache regression corpus (tests/corpus/cache/*.txt) -----------------
//
// Line format (whitespace-separated, '#' starts a comment; the query
// separator is ';;' because '|' appears inside label alternations):
//   <graph-spec> <machines> <schedule> <fault-seed> <mode> | <q1> ;; <q2>
// Modes: reask (q2 re-asks warm), rewrite (q2 is an equivalent rewrite
// of q1), epoch-bump (invalidate between q1 and q2), evict (run under a
// two-entry result-cache budget). Every run must match the oracle; the
// result-cache hit is asserted where the mode determines it.

Graph corpus_graph(const std::string& spec) {
  const std::string kind = spec.substr(0, spec.find(':'));
  std::vector<std::uint64_t> args;
  {
    std::istringstream in(spec);
    in.ignore(static_cast<std::streamsize>(spec.find(':')) + 1);
    std::string field;
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
  ADD_FAILURE() << "unknown cache-corpus graph spec: " << spec;
  return Graph{};
}

struct CacheCorpusEntry {
  std::string graph_spec;
  unsigned machines = 1;
  std::string schedule;
  std::uint64_t fault_seed = 0;
  std::string mode;
  std::string q1;
  std::string q2;
  std::string source;
};

std::vector<CacheCorpusEntry> load_cache_corpus() {
  std::vector<CacheCorpusEntry> entries;
  for (const auto& file :
       std::filesystem::directory_iterator(RPQD_CACHE_CORPUS_DIR)) {
    if (file.path().extension() != ".txt") continue;
    std::ifstream in(file.path());
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
      ++lineno;
      if (line.empty() || line[0] == '#') continue;
      const auto bar = line.find('|');
      const auto sep =
          bar == std::string::npos ? bar : line.find(";;", bar + 1);
      if (sep == std::string::npos) {
        ADD_FAILURE() << "malformed cache corpus line " << file.path()
                      << ":" << lineno;
        continue;
      }
      CacheCorpusEntry e;
      std::istringstream head(line.substr(0, bar));
      head >> e.graph_spec >> e.machines >> e.schedule >> e.fault_seed >>
          e.mode;
      if (head.fail()) {
        ADD_FAILURE() << "malformed cache corpus line " << file.path()
                      << ":" << lineno;
        continue;
      }
      auto trim = [](std::string s) {
        s.erase(0, s.find_first_not_of(' '));
        const auto last = s.find_last_not_of(' ');
        if (last != std::string::npos) s.erase(last + 1);
        return s;
      };
      e.q1 = trim(line.substr(bar + 1, sep - bar - 1));
      e.q2 = trim(line.substr(sep + 2));
      e.source = file.path().filename().string() + ":" +
                 std::to_string(lineno);
      entries.push_back(std::move(e));
    }
  }
  return entries;
}

TEST(CacheCorpusReplay, AllEntriesAgreeWithOracleColdAndWarm) {
  const auto entries = load_cache_corpus();
  ASSERT_FALSE(entries.empty()) << "cache corpus directory empty: "
                                << RPQD_CACHE_CORPUS_DIR;
  for (const auto& e : entries) {
    SCOPED_TRACE(e.source + " mode=" + e.mode + " q1=" + e.q1 +
                 " q2=" + e.q2);
    const Graph oracle = corpus_graph(e.graph_spec);
    std::uint64_t expected1 = 0;
    std::uint64_t expected2 = 0;
    try {
      expected1 = baseline::reference_evaluate(e.q1, oracle).count;
      expected2 = baseline::reference_evaluate(e.q2, oracle).count;
    } catch (const UnsupportedError&) {
      GTEST_FAIL() << "cache corpus entry outside the oracle subset";
    }
    EngineConfig ec = small_engine_config();
    ec.result_cache_max_bytes = 1 << 20;
    Database db(corpus_graph(e.graph_spec), e.machines, ec);
    db.set_fault_schedule(e.schedule, e.fault_seed);

    const QueryResult r1 = db.query(e.q1);
    EXPECT_FALSE(r1.aborted);
    EXPECT_EQ(r1.count, expected1);

    std::uint64_t budget = 0;
    if (e.mode == "epoch-bump") db.invalidate_caches();
    if (e.mode == "evict") {
      // Two entries of q1's size; the PROFILE asks below add up to two
      // more keys, so the LRU evicts while every answer stays exact.
      budget = 2 * estimate_result_bytes(r1);
      db.config().result_cache_max_bytes = budget;
      db.config().result_cache_admit_max_bytes = budget;
    }

    const QueryResult r2 = db.query(e.q2);
    EXPECT_FALSE(r2.aborted);
    EXPECT_EQ(r2.count, expected2);

    const bool same_text = pgql::normalize_query(e.q1).text ==
                           pgql::normalize_query(e.q2).text;

    if (e.mode == "epoch-bump") {
      EXPECT_FALSE(r2.stats.result_cache_hit)
          << "invalidate_caches must drop every cached result";
    } else if (e.mode == "reask") {
      EXPECT_TRUE(r2.stats.result_cache_hit) << "warm re-ask missed";
    } else if (e.mode == "rewrite") {
      // Only rewrites that normalize to the same text share an entry.
      EXPECT_EQ(r2.stats.result_cache_hit, same_text);
    } else if (e.mode == "evict") {
      const QueryResult p1 = db.query("PROFILE " + e.q1);
      const QueryResult p2 = db.query("PROFILE " + e.q2);
      EXPECT_EQ(p1.count, expected1);
      EXPECT_EQ(p2.count, expected2);
      const ResultCacheStats rs = db.result_cache_stats();
      EXPECT_LE(rs.bytes, budget);
      EXPECT_LE(rs.entries, 2u);
      // Four distinct keys cannot fit two entries; two can.
      if (!same_text) {
        EXPECT_GT(rs.evicted, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace rpqd
