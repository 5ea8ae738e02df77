// Abort-latency micro-benchmark (DESIGN.md §9): how long a mid-flight
// cooperative cancel takes from `cancel_all()` to the query returning a
// clean aborted QueryResult — the cancel-to-drained time. The abort
// protocol's cost is the propagation of one kAbort broadcast plus every
// worker finishing (unwinding) its current context and draining its
// buffers, so the interesting axes are exploration depth (stack to
// unwind, Reply-query regime of Figure 3) and machine count (credits to
// collect cluster-wide).
//
// Also measures the crash-stop recovery path: run_with_retry over a
// "crash-stop" schedule (machine dies mid-run, one-shot), reporting the
// detect-abort-retry-and-answer latency and the retry count.
//
// This standalone binary prints the sweep for interactive use;
// run_bench_suite embeds the same measurements into BENCH_RPQD.json.
//
// Environment knobs: RPQD_BENCH_REPEATS (default 5 here).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "ldbc/synthetic.h"

using namespace rpqd;
using namespace rpqd::bench;

int main() {
  const int repeats = env_int("RPQD_BENCH_REPEATS", 5);
  print_header("Abort latency (cancel-to-drained) and crash-stop retry");
  std::printf("repeats=%d (median over valid mid-flight samples)\n", repeats);

  // Axis 1: exploration depth. Reply-shaped trees (child -> parent
  // replyOf edges, the Figure 3 regime), fixed 4 machines; deeper trees
  // mean deeper per-worker stacks to unwind on the halt poll.
  std::printf("\n%-28s %8s %10s %8s\n", "shape", "machines",
              "cancel_ms", "valid");
  for (unsigned depth : {8u, 12u, 16u}) {
    Database db(synthetic::make_tree(2, depth), 4);
    const std::string query =
        "SELECT COUNT(*) FROM MATCH (v0:Root) -/:replyOf*/- (v1)";
    int valid = 0;
    const double ms = cancel_to_drained_ms(db, query, 200, repeats, &valid);
    std::printf("tree:2:%-21u %8u %10.3f %8d\n", depth, 4, ms, valid);
  }

  // Axis 2: machine count. A dense clique star query (high fan-out, many
  // live contexts and in-flight credits) at 2/4/8 machines.
  for (unsigned machines : {2u, 4u, 8u}) {
    Database db(synthetic::make_complete(12), machines);
    const std::string query =
        "SELECT COUNT(*) FROM MATCH (v0) -/:edge*/-> (v1)";
    int valid = 0;
    const double ms = cancel_to_drained_ms(db, query, 200, repeats, &valid);
    std::printf("complete:%-20u %8u %10.3f %8d\n", 12u, machines, ms, valid);
  }

  // Crash-stop recovery: machine dies mid-run (one-shot), run_with_retry
  // detects the machine-failure abort and re-runs against the healthy
  // cluster. Reported latency covers abort + backoff + clean re-run.
  std::printf("\n%-28s %8s %10s %8s\n", "crash-stop retry", "machines",
              "total_ms", "retries");
  for (unsigned machines : {2u, 4u, 8u}) {
    Database db(synthetic::make_complete(10), machines);
    Database::RetryPolicy policy;
    policy.backoff_base_ms = 0.1;
    policy.backoff_max_ms = 1.0;
    QueryResult result;
    std::vector<double> samples;
    unsigned retries = 0;
    for (int r = 0; r < repeats; ++r) {
      db.set_fault_schedule("crash-stop", 7 + static_cast<std::uint64_t>(r));
      Stopwatch timer;
      result = db.run_with_retry(
          "SELECT COUNT(*) FROM MATCH (v0) -/:edge*/-> (v1)", policy);
      samples.push_back(timer.elapsed_ms());
      retries += result.stats.retries;
    }
    std::printf("complete:%-20u %8u %10.3f %8.1f\n", 10u, machines,
                median(samples),
                static_cast<double>(retries) / repeats);
    if (result.aborted) {
      std::fprintf(stderr, "unexpected: final retry run still aborted (%s)\n",
                   to_string(result.abort_reason));
      return 1;
    }
  }
  return 0;
}
