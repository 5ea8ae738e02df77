// Seed-replay regression corpus: every line of tests/corpus/*.txt is a
// fully-specified differential run — graph spec, partition count, fault
// schedule, fault seed, and query — replayed against the reference
// oracle with full invariant checks. Entries are either edge-shaped by
// construction (empty graph, self-loops, unbounded * over cycles) or
// replay keys of runs that once failed; a failing differential-harness
// repro line converts directly into a corpus line.
//
// Line format (whitespace-separated, '#' starts a comment):
//   <graph-spec> <machines> <schedule> <fault-seed> | <query>
// Graph specs:
//   random:<nv>:<ne>:<vlabels>:<elabels>:<self-loops>:<seed>
//   chain:<n>   cycle:<n>   complete:<n>   tree:<arity>:<depth>
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "api/rpqd.h"
#include "baseline/reference.h"
#include "ldbc/synthetic.h"
#include "reconcile.h"

#ifndef RPQD_CORPUS_DIR
#error "RPQD_CORPUS_DIR must point at tests/corpus"
#endif

namespace rpqd {
namespace {

std::vector<std::uint64_t> split_numbers(const std::string& spec) {
  std::vector<std::uint64_t> out;
  std::istringstream in(spec);
  std::string field;
  in.ignore(spec.find(':') + 1);  // skip the kind prefix
  while (std::getline(in, field, ':')) {
    out.push_back(std::stoull(field));
  }
  return out;
}

Graph make_graph(const std::string& spec) {
  const std::string kind = spec.substr(0, spec.find(':'));
  const auto args = split_numbers(spec);
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
  ADD_FAILURE() << "unknown corpus graph spec: " << spec;
  return Graph{};
}

struct CorpusEntry {
  std::string graph_spec;
  unsigned machines = 1;
  std::string schedule;
  std::uint64_t fault_seed = 0;
  std::string query;
  std::string source;  // file:line for failure messages
};

std::vector<CorpusEntry> load_corpus() {
  std::vector<CorpusEntry> entries;
  for (const auto& file :
       std::filesystem::directory_iterator(RPQD_CORPUS_DIR)) {
    if (file.path().extension() != ".txt") continue;
    std::ifstream in(file.path());
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
      ++lineno;
      if (line.empty() || line[0] == '#') continue;
      const auto bar = line.find('|');
      if (bar == std::string::npos) {
        ADD_FAILURE() << "malformed corpus line " << file.path() << ":"
                      << lineno;
        continue;
      }
      CorpusEntry e;
      std::istringstream head(line.substr(0, bar));
      head >> e.graph_spec >> e.machines >> e.schedule >> e.fault_seed;
      if (head.fail()) {
        ADD_FAILURE() << "malformed corpus line " << file.path() << ":"
                      << lineno;
        continue;
      }
      e.query = line.substr(bar + 1);
      e.query.erase(0, e.query.find_first_not_of(' '));
      e.source = file.path().filename().string() + ":" +
                 std::to_string(lineno);
      entries.push_back(std::move(e));
    }
  }
  return entries;
}

TEST(CorpusReplay, AllEntriesAgreeWithOracleAndHoldInvariants) {
  const auto entries = load_corpus();
  ASSERT_FALSE(entries.empty()) << "corpus directory empty: "
                                << RPQD_CORPUS_DIR;
  for (const auto& e : entries) {
    SCOPED_TRACE(e.source + " query=" + e.query);
    const Graph oracle = make_graph(e.graph_spec);
    std::uint64_t expected = 0;
    try {
      expected = baseline::reference_evaluate(e.query, oracle).count;
    } catch (const UnsupportedError&) {
      GTEST_FAIL() << "corpus entry outside the oracle subset; drop it";
    }
    EngineConfig ec;
    ec.workers_per_machine = 2;
    ec.buffers_per_machine = 48;
    ec.buffer_bytes = 256;
    ec.profile = true;  // replay with tracing on: reconciliation below
    Database db(make_graph(e.graph_spec), e.machines, ec);
    db.set_fault_schedule(e.schedule, e.fault_seed);
    const QueryResult result = db.query(e.query);
    EXPECT_EQ(result.count, expected);
    EXPECT_EQ(result.stats.flow_outstanding, 0u);
    EXPECT_EQ(result.stats.flow_overflow_outstanding, 0u);
    EXPECT_NE(result.abort_reason, AbortReason::kCreditStarvation);
    // Profile totals, per-stage rows and per-machine counters must
    // reconcile exactly with the stats on every replayed fault schedule.
    expect_reconciled(result, e.source);
    for (const auto& r : result.stats.rpq) {
      EXPECT_EQ(r.index_duplicate_entries, 0u);
      if (r.consensus_max_depth) {
        EXPECT_EQ(*r.consensus_max_depth, r.max_depth_observed);
      } else {
        // Only legitimate when the group never entered the distributed
        // depth protocol (no start vertices, or a pure 0-hop RPQ).
        EXPECT_EQ(r.max_depth_observed, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace rpqd
