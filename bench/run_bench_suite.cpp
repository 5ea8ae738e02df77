// The perf-trajectory suite: runs the fig2 workload (nine LDBC-BI
// queries, 4 machines), the table2 query (Q9, 8 machines), and the
// table3 query (Q10, 8 machines) at a small scale factor and emits
// BENCH_RPQD.json with median latencies — one comparable artifact per
// commit, consumed by tooling that tracks the repo's perf over time.
//
// Environment knobs (on top of bench_util.h's RPQD_BENCH_*):
//   RPQD_BENCH_OUT   output path (default BENCH_RPQD.json in the cwd)
//
// Each benchmark row also carries a per-stage breakdown (contexts,
// contexts/messages/bytes sent, index probes) from one additional
// PROFILE-enabled execution outside the timed region, so the JSON
// artifact explains *where* a latency regression happened, not just
// that it did.
//
// The default scale factor here is deliberately small (0.25) so the
// suite finishes in seconds; override with RPQD_BENCH_SF.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/fault.h"
#include "common/rng.h"
#include "graph/repartition.h"
#include "graph/update.h"
#include "ldbc/synthetic.h"
#include "workloads/queries.h"

namespace {

struct SuiteRow {
  std::string id;        // "fig2/Q03*", "table2/Q9", ...
  unsigned machines;
  double median_ms;
  std::uint64_t count;   // result count, as a correctness fingerprint
  std::string stages;    // per-stage breakdown JSON (profiled run)
};

/// Compact per-stage array from a profiled run: enough to see where the
/// work (and any future regression) sits, without the full depth tree.
std::string stage_breakdown_json(const rpqd::QueryProfile& profile) {
  std::string out = "[";
  bool first = true;
  for (std::size_t s = 0; s < profile.stages.size(); ++s) {
    const auto& total = profile.stages[s].total;
    if (!total.any()) continue;
    if (!first) out += ", ";
    first = false;
    char buf[224];
    std::snprintf(
        buf, sizeof buf,
        "{\"id\": %zu, \"contexts\": %llu, \"ctx_sent\": %llu, "
        "\"msgs_sent\": %llu, \"bytes_sent\": %llu, \"index_probes\": %llu}",
        s, static_cast<unsigned long long>(total.contexts),
        static_cast<unsigned long long>(total.ctx_sent),
        static_cast<unsigned long long>(total.msgs_sent),
        static_cast<unsigned long long>(total.bytes_sent),
        static_cast<unsigned long long>(total.index_probes));
    out += buf;
  }
  out += "]";
  return out;
}

void append_json_row(std::string& out, const SuiteRow& row, bool last) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "    {\"id\": \"%s\", \"machines\": %u, "
                "\"median_ms\": %.3f, \"count\": %llu, \"stages\": ",
                row.id.c_str(), row.machines, row.median_ms,
                static_cast<unsigned long long>(row.count));
  out += buf;
  out += row.stages;
  out += last ? "}\n" : "},\n";
}

// ---- query-lifecycle rows (DESIGN.md §9, bench_abort_latency sibling) ----

struct AbortRow {
  std::string id;
  unsigned machines;
  double cancel_ms;     // cancel-to-drained median
};

struct RetryRow {
  unsigned machines;
  double median_ms;     // crash-abort + backoff + clean re-run
  double mean_retries;
};

/// One point of the closed-loop serving sweep (bench_concurrent_serving
/// is the standalone sibling with the full table + fairness ablation).
struct ServingRow {
  unsigned clients;     // 0 = the serial back-to-back baseline
  rpqd::bench::ClosedLoopResult r;
  double speedup;       // throughput vs the serial baseline
};

/// One skew point of the result-cache A/B (bench_cache_serving is the
/// standalone sibling with p50/p95 columns).
struct CacheRow {
  double zipf_s;
  double cold_mean_ms;  // result cache off
  double warm_mean_ms;  // result cache on
  double speedup;
  std::uint64_t result_hits;
  std::uint64_t result_misses;
};

/// One update-rate point of the online-update serving sweep
/// (bench_update_serving is the standalone sibling with the full rate
/// axis): query latency under edge churn plus the merge pause.
struct UpdateRow {
  unsigned updates_per_16;  // update slots per 16 stream slots
  double mean_ms;
  double p50_ms;
  double p95_ms;
  std::uint64_t result_hits;
  std::uint64_t evicted_by_update;
  std::uint64_t batches;
  double merge_pause_ms;
};

/// One lossy-transport point (§13 reliable delivery): a paper query at
/// a given loss rate, plus the loss-free "armed but idle" overhead row
/// (loss_pct 0, reliable true) whose overhead_vs_plain is the <=1.05x
/// acceptance budget.
struct LossRow {
  std::string id;
  double loss_pct;
  double median_latency_ms;
  std::uint64_t retransmits;
  std::uint64_t acks_sent;
  double overhead_vs_plain;
};

/// One §14 skew-balancing A/B row (bench_skew_balancing is the
/// standalone sibling with the machine-count axis). `improvement` and
/// `overhead` are medians of per-round PAIRED ratios over interleaved
/// off/on runs, so host-load drift cancels out of the claim: the
/// adversarial row carries the >= 1.3x improvement acceptance bar, the
/// uniform row the <= 1.05x armed-overhead budget.
struct SkewRow {
  std::string id;  // "skew/Q9-adversarial", "skew/Q9-uniform"
  unsigned machines;
  double off_median_ms;
  double on_median_ms;
  double improvement;  // paired off/on
  double overhead;     // paired on/off
  double imbalance_off;
  double imbalance_on;
  std::uint64_t mirror_fanouts;
  std::uint64_t mirror_expands;
};

}  // namespace

int main() {
  using namespace rpqd;
  using namespace rpqd::bench;

  // Small default so the suite is cheap; RPQD_BENCH_SF still wins.
  if (std::getenv("RPQD_BENCH_SF") == nullptr) {
    ::setenv("RPQD_BENCH_SF", "0.25", /*overwrite=*/0);
  }
  const auto cfg = bench_ldbc_config();
  const int repeats = bench_repeats();
  print_header("RPQd bench suite (fig2 + table2 + table3)");
  std::printf("sf=%.2f repeats=%d\n", cfg.scale_factor, repeats);

  std::vector<SuiteRow> rows;

  // Fig 2 workload: the nine queries on four machines, round-robin.
  {
    Database db(ldbc::generate_ldbc(cfg), 4);
    const auto workload = workloads::benchmark_queries();
    std::vector<std::string> texts;
    for (const auto& wq : workload) texts.push_back(wq.pgql);
    const auto rr = round_robin(db, texts, repeats);
    for (std::size_t q = 0; q < workload.size(); ++q) {
      // One profiled execution outside the timed region per query.
      const QueryResult profiled = db.query("PROFILE " + texts[q]);
      rows.push_back({"fig2/" + workload[q].id, 4, rr.median_latency_ms[q],
                      rr.last_result[q].count,
                      stage_breakdown_json(profiled.profile)});
      std::printf("  %-12s %10.2f ms  (count=%llu)\n",
                  workload[q].id.c_str(), rr.median_latency_ms[q],
                  static_cast<unsigned long long>(rr.last_result[q].count));
    }
  }

  // Table 2: Q9 on eight machines.
  {
    Database db(ldbc::generate_ldbc(cfg), 8);
    const std::string q9 =
        "SELECT COUNT(*) FROM MATCH (post:Post) <-/:replyOf*/- (m)";
    QueryResult result;
    const double ms = median_ms([&] { result = db.query(q9); }, repeats);
    const QueryResult profiled = db.query("PROFILE " + q9);
    rows.push_back({"table2/Q9", 8, ms, result.count,
                    stage_breakdown_json(profiled.profile)});
    std::printf("  %-12s %10.2f ms  (count=%llu)\n", "table2/Q9", ms,
                static_cast<unsigned long long>(result.count));
  }

  // Table 3: Q10 on eight machines.
  {
    Database db(ldbc::generate_ldbc(cfg), 8);
    const std::string q10 =
        "SELECT COUNT(*) FROM MATCH (p1:Person) -/:knows{2,3}/- (p2:Person) "
        "WHERE p1.id = 7";
    QueryResult result;
    const double ms = median_ms([&] { result = db.query(q10); }, repeats);
    const QueryResult profiled = db.query("PROFILE " + q10);
    rows.push_back({"table3/Q10", 8, ms, result.count,
                    stage_breakdown_json(profiled.profile)});
    std::printf("  %-12s %10.2f ms  (count=%llu)\n", "table3/Q10", ms,
                static_cast<unsigned long long>(result.count));
  }

  // Query-lifecycle rows: cancel-to-drained abort latency (depth and
  // machine-count axes, see bench_abort_latency) and crash-stop
  // run_with_retry recovery, so BENCH_RPQD.json tracks the abort path's
  // cost per commit alongside the healthy-path latencies.
  std::vector<AbortRow> abort_rows;
  std::vector<RetryRow> retry_rows;
  print_header("abort latency + crash-stop retry");
  for (unsigned depth : {8u, 12u}) {
    Database db(synthetic::make_tree(2, depth), 4);
    const double ms = cancel_to_drained_ms(
        db, "SELECT COUNT(*) FROM MATCH (v0:Root) -/:replyOf*/- (v1)", 200,
        repeats);
    abort_rows.push_back({"abort/tree:2:" + std::to_string(depth), 4, ms});
    std::printf("  %-20s %10.3f ms cancel-to-drained\n",
                abort_rows.back().id.c_str(), ms);
  }
  for (unsigned machines : {2u, 8u}) {
    Database db(synthetic::make_complete(12), machines);
    const double ms = cancel_to_drained_ms(
        db, "SELECT COUNT(*) FROM MATCH (v0) -/:edge*/-> (v1)", 200, repeats);
    abort_rows.push_back(
        {"abort/complete:12", machines, ms});
    std::printf("  %-20s %10.3f ms cancel-to-drained (%u machines)\n",
                abort_rows.back().id.c_str(), ms, machines);
  }
  for (unsigned machines : {2u, 8u}) {
    Database db(synthetic::make_complete(10), machines);
    Database::RetryPolicy policy;
    policy.backoff_base_ms = 0.1;
    policy.backoff_max_ms = 1.0;
    std::vector<double> samples;
    unsigned retries = 0;
    for (int r = 0; r < repeats; ++r) {
      db.set_fault_schedule("crash-stop", 7 + static_cast<std::uint64_t>(r));
      Stopwatch timer;
      const QueryResult result = db.run_with_retry(
          "SELECT COUNT(*) FROM MATCH (v0) -/:edge*/-> (v1)", policy);
      samples.push_back(timer.elapsed_ms());
      retries += result.stats.retries;
    }
    retry_rows.push_back({machines, median(samples),
                          static_cast<double>(retries) / repeats});
    std::printf("  retry/complete:10    %10.3f ms (%u machines, "
                "%.1f retries/run)\n",
                retry_rows.back().median_ms, machines,
                retry_rows.back().mean_retries);
  }

  // Concurrent serving sweep (runtime/scheduler.h): closed-loop clients
  // with think time vs the same stream served serially back-to-back.
  // The 4-client point carries the headline >= 1.3x throughput claim.
  std::vector<ServingRow> serving_rows;
  print_header("concurrent serving (closed loop, chain:48, 4 machines)");
  {
    EngineConfig scfg;
    scfg.workers_per_machine = 1;
    Database db(synthetic::make_chain(48), 4, scfg);
    const std::vector<std::string> mix = {
        "SELECT COUNT(*) FROM MATCH (a) -/:next{1,4}/-> (b)",
        "SELECT COUNT(*) FROM MATCH (a) -/:next{2,6}/-> (b)",
        "SELECT COUNT(*) FROM MATCH (a) -/:next+/-> (b)",
        "SELECT COUNT(*) FROM MATCH (a) -/:next{1,3}/-> (b)"};
    const int serving_ops = env_int("RPQD_BENCH_OPS", 64);
    const double think_ms = env_double("RPQD_BENCH_THINK_MS", 2.0);
    const ClosedLoopResult serial =
        serial_baseline(db, mix, serving_ops, think_ms);
    serving_rows.push_back({0, serial, 1.0});
    std::printf("  serial      %8.1f qps  p50 %7.3f ms\n",
                serial.throughput_qps, serial.p50_ms);
    for (unsigned clients : {1u, 2u, 4u, 8u}) {
      SchedulerConfig sc;
      sc.max_inflight = clients;
      db.configure_scheduler(sc);
      const ClosedLoopResult r = closed_loop_serving(
          db, mix, clients,
          std::max(1, serving_ops / static_cast<int>(clients)), think_ms);
      const double speedup = serial.throughput_qps > 0.0
                                 ? r.throughput_qps / serial.throughput_qps
                                 : 0.0;
      serving_rows.push_back({clients, r, speedup});
      std::printf("  %2u clients  %8.1f qps  p50 %7.3f ms  p95 %7.3f ms  "
                  "%.2fx\n",
                  clients, r.throughput_qps, r.p50_ms, r.p95_ms, speedup);
    }
  }

  // Result-cache A/B (runtime/result_cache.h): one Zipf request stream
  // per skew point, replayed cold (cache off) then warm (cache on). The
  // s = 1.2 row carries the headline >= 1.5x mean-latency claim.
  std::vector<CacheRow> cache_rows;
  print_header("result cache serving (random:48:160, 3 machines)");
  {
    synthetic::RandomGraphConfig gcfg;
    gcfg.num_vertices = 48;
    gcfg.num_edges = 160;
    gcfg.num_vertex_labels = 2;
    gcfg.num_edge_labels = 2;
    gcfg.allow_self_loops = false;
    gcfg.seed = bench_seed();
    const Graph cache_graph = synthetic::make_random(gcfg);
    const std::vector<std::string> pool = {
        "SELECT COUNT(*) FROM MATCH (a) -/:e0*/-> (b)",
        "SELECT COUNT(*) FROM MATCH (a) -/:e1*/-> (b)",
        "SELECT COUNT(*) FROM MATCH (a) -/:e0|e1{1,4}/-> (b)",
        "SELECT COUNT(*) FROM MATCH (a) -/:e0+/-> (b)",
        "SELECT COUNT(*) FROM MATCH (a) -/:e1{2,}/-> (b)",
        "SELECT COUNT(*) FROM MATCH (a) -/:e0|e1*/-> (b)",
        "SELECT COUNT(*) FROM MATCH (a) <-/:e0*/- (b)",
        "SELECT COUNT(*) FROM MATCH (a) -/:e0{1,5}/-> (b)"};
    const std::size_t cache_ops =
        static_cast<std::size_t>(env_int("RPQD_BENCH_CACHE_OPS", 64));
    for (const double s : {0.0, 0.8, 1.2}) {
      const std::vector<std::size_t> stream = zipf_stream(
          cache_ops, pool.size(),
          s, bench_seed() * 1000003 + static_cast<std::uint64_t>(s * 10.0));
      EngineConfig cold_cfg;
      cold_cfg.workers_per_machine = 2;
      Database cold_db(cache_graph, 3, cold_cfg);
      const ServeStreamResult cold = serve_stream(cold_db, pool, stream);
      EngineConfig warm_cfg = cold_cfg;
      warm_cfg.result_cache_max_bytes = 8u << 20;
      Database warm_db(cache_graph, 3, warm_cfg);
      const ServeStreamResult warm = serve_stream(warm_db, pool, stream);
      const ResultCacheStats rs = warm_db.result_cache_stats();
      const double speedup =
          warm.mean_ms > 0.0 ? cold.mean_ms / warm.mean_ms : 0.0;
      cache_rows.push_back(
          {s, cold.mean_ms, warm.mean_ms, speedup, rs.hits, rs.misses});
      std::printf("  zipf %.1f  cold %8.3f ms  warm %8.3f ms  %5.2fx  "
                  "(hits %llu)\n",
                  s, cold.mean_ms, warm.mean_ms, speedup,
                  static_cast<unsigned long long>(rs.hits));
    }
  }

  // Online-update serving (DESIGN.md §12): the cache-warm Zipf stream
  // again, now interleaved with seeded edge-churn batches. Tracks what
  // update load does to serving latency (label-scoped invalidation
  // forces re-warms) and what a delta merge pauses for.
  std::vector<UpdateRow> update_rows;
  print_header("online update serving (random:48:160, 3 machines, zipf 1.2)");
  {
    synthetic::RandomGraphConfig gcfg;
    gcfg.num_vertices = 48;
    gcfg.num_edges = 160;
    gcfg.num_vertex_labels = 2;
    gcfg.num_edge_labels = 2;
    gcfg.allow_self_loops = false;
    gcfg.seed = bench_seed();
    const Graph update_graph = synthetic::make_random(gcfg);
    const std::vector<std::string> pool = {
        "SELECT COUNT(*) FROM MATCH (a) -/:e0*/-> (b)",
        "SELECT COUNT(*) FROM MATCH (a) -/:e1*/-> (b)",
        "SELECT COUNT(*) FROM MATCH (a) -/:e0|e1{1,4}/-> (b)",
        "SELECT COUNT(*) FROM MATCH (a) -/:e0+/-> (b)",
        "SELECT COUNT(*) FROM MATCH (a) <-/:e0*/- (b)",
        "SELECT COUNT(*) FROM MATCH (a) -/:e1+/-> (b)"};
    const std::size_t update_ops =
        static_cast<std::size_t>(env_int("RPQD_BENCH_UPDATE_OPS", 64));
    for (const unsigned rate : {0u, 2u, 8u}) {
      EngineConfig ucfg;
      ucfg.workers_per_machine = 2;
      ucfg.result_cache_max_bytes = 8u << 20;
      Database db(update_graph, 3, ucfg);
      const LabelId e0 = *db.graph().catalog().find_edge_label("e0");
      const LabelId e1 = *db.graph().catalog().find_edge_label("e1");
      const std::vector<std::size_t> stream = zipf_stream(
          update_ops, pool.size(), 1.2, bench_seed() * 1000003 + rate);
      Rng churn(bench_seed() ^ (0xc4u * (rate + 1)));
      std::vector<EdgeInsert> added;
      std::vector<double> latencies;
      for (std::size_t i = 0; i < stream.size(); ++i) {
        if (i % 16 < rate) {
          UpdateBatch batch;
          if (!added.empty() && churn.next_below(3) == 0) {
            const std::size_t pick = churn.next_below(added.size());
            batch.edge_deletes.push_back(
                {added[pick].src, added[pick].dst, added[pick].elabel});
            added.erase(added.begin() + static_cast<std::ptrdiff_t>(pick));
          } else {
            batch.edge_inserts.push_back(
                {static_cast<VertexId>(churn.next_below(gcfg.num_vertices)),
                 static_cast<VertexId>(churn.next_below(gcfg.num_vertices)),
                 churn.next_below(2) == 0 ? e0 : e1});
            // One delete removes every parallel copy, so record each
            // (src, dst, elabel) key at most once.
            const EdgeInsert& ins = batch.edge_inserts.back();
            const bool dup = std::any_of(
                added.begin(), added.end(), [&](const EdgeInsert& e) {
                  return e.src == ins.src && e.dst == ins.dst &&
                         e.elabel == ins.elabel;
                });
            if (!dup) added.push_back(ins);
          }
          db.apply_update(batch);
          continue;
        }
        Stopwatch timer;
        const QueryResult r = db.query(pool[stream[i]]);
        if (!r.aborted) latencies.push_back(timer.elapsed_ms());
      }
      const std::uint64_t batches = db.update_stats().batches_applied;
      double merge_ms = 0.0;
      if (db.merge_deltas()) merge_ms = db.update_stats().last_merge_ms;
      const ResultCacheStats rs = db.result_cache_stats();
      double mean = 0.0;
      for (const double v : latencies) mean += v;
      if (!latencies.empty()) mean /= static_cast<double>(latencies.size());
      update_rows.push_back({rate, mean, percentile(latencies, 50.0),
                             percentile(latencies, 95.0), rs.hits,
                             rs.evicted_by_update, batches, merge_ms});
      std::printf("  upd %u/16  mean %8.3f ms  p95 %8.3f ms  hits %llu  "
                  "evicted %llu  merge %7.3f ms\n",
                  rate, mean, update_rows.back().p95_ms,
                  static_cast<unsigned long long>(rs.hits),
                  static_cast<unsigned long long>(rs.evicted_by_update),
                  merge_ms);
    }
  }

  // Lossy-transport rows (§13 reliable delivery): the two paper point
  // queries re-run over a fabric that drops a seeded fraction of every
  // message class, so BENCH_RPQD.json tracks both the retransmission
  // path's latency factor and the loss-free overhead of arming the
  // layer at all (acceptance budget <= 1.05x the plain fabric).
  std::vector<LossRow> loss_rows;
  print_header("lossy transport (reliable delivery, 4 machines)");
  {
    struct LossQuery {
      const char* id;
      const char* text;
    };
    const LossQuery loss_queries[] = {
        {"table2/Q9",
         "SELECT COUNT(*) FROM MATCH (post:Post) <-/:replyOf*/- (m)"},
        {"table3/Q10",
         "SELECT COUNT(*) FROM MATCH (p1:Person) -/:knows{2,3}/- "
         "(p2:Person) WHERE p1.id = 7"},
    };
    for (const auto& lq : loss_queries) {
      double plain_ms = 0.0;
      {
        Database db(ldbc::generate_ldbc(cfg), 4);
        QueryResult r;
        plain_ms = median_ms([&] { r = db.query(lq.text); }, repeats);
      }
      for (const double pct : {0.0, 0.1, 1.0, 5.0}) {
        EngineConfig ec;
        if (pct == 0.0) {
          // Armed but idle: sequence stamps, CRCs, and the unacked
          // ring with nothing ever lost.
          ec.reliable_transport = true;
        } else {
          FaultPlan plan;
          plan.seed = 7;
          plan.loss_rate = pct / 100.0;
          plan.loss_classes = kFaultClassAll;
          ec.fault_plan = plan;
        }
        Database db(ldbc::generate_ldbc(cfg), 4, ec);
        QueryResult r;
        const double ms = median_ms([&] { r = db.query(lq.text); }, repeats);
        loss_rows.push_back({lq.id, pct, ms, r.stats.retransmits,
                             r.stats.acks_sent,
                             plain_ms > 0.0 ? ms / plain_ms : 0.0});
        std::printf(
            "  %-12s loss %4.1f%%  %10.2f ms  retx %6llu  (%.2fx plain)\n",
            lq.id, pct, ms,
            static_cast<unsigned long long>(r.stats.retransmits),
            loss_rows.back().overhead_vs_plain);
      }
    }
  }

  // Skew-aware balancing A/B (DESIGN.md §14): the table2 Q9 reply shape
  // on a deep reply tree, first from an adversarial all-on-machine-0
  // partition (off arm stays there; on arm adopts the profile-driven
  // Repartitioner's map plus hot-vertex mirrors),
  // then on the default hash placement where the balancer has nothing to
  // fix and arming it is pure overhead.
  std::vector<SkewRow> skew_rows;
  print_header("skew-aware balancing (tree:8:6, 16 machines)");
  {
    const unsigned machines = 16;
    const Graph skew_graph = synthetic::make_tree(8, 6);
    const std::string q9 =
        "SELECT COUNT(*) FROM MATCH (a:Root) <-/:replyOf*/- (b)";
    EngineConfig skew_cfg;
    skew_cfg.buffers_per_machine = 256;
    // One off sample then one on sample per round; the per-round ratio
    // is the drift-cancelling estimator (the simulation multiplexes all
    // machines onto one host, so absolute wall-clock is noisy).
    const auto skew_ab = [&](Database& off_db, Database& on_db,
                             int rounds) {
      SkewRow row{};
      std::vector<double> off_s, on_s, ratios;
      QueryResult off_r, on_r;
      for (int r = 0; r < rounds; ++r) {
        Stopwatch t_off;
        off_r = off_db.query(q9);
        off_s.push_back(t_off.elapsed_ms());
        Stopwatch t_on;
        on_r = on_db.query(q9);
        on_s.push_back(t_on.elapsed_ms());
        if (on_s.back() > 0.0) ratios.push_back(off_s.back() / on_s.back());
      }
      row.machines = machines;
      row.off_median_ms = median(off_s);
      row.on_median_ms = median(on_s);
      row.improvement = median(ratios);
      row.overhead = row.improvement > 0.0 ? 1.0 / row.improvement : 0.0;
      row.imbalance_off = off_r.stats.load_imbalance;
      row.imbalance_on = on_r.stats.load_imbalance;
      row.mirror_fanouts = on_r.stats.mirror_fanouts;
      row.mirror_expands = on_r.stats.mirror_expands;
      return row;
    };
    {
      const std::vector<MachineId> all0(skew_graph.num_vertices(), 0);
      Database off_db(skew_graph, machines, skew_cfg);
      off_db.repartition(all0);
      Database on_db(skew_graph, machines, skew_cfg);
      on_db.repartition(all0);
      // The §14 control loop, verbatim: profile once on the bad map,
      // feed the measured load to the Repartitioner, adopt its map and
      // its hot set.
      const QueryResult profiled = on_db.query("PROFILE " + q9);
      auto graph = on_db.materialize_snapshot(on_db.graph_epoch());
      auto current =
          std::make_shared<const PartitionMap>(all0, machines);
      Repartitioner rep(graph, machines, current);
      rep.observe(profiled.stats.machine_contexts);
      on_db.repartition(rep.propose().assignment);
      on_db.set_hot_vertices(
          rep.propose_hot_set(/*max_hot=*/64, /*min_degree=*/4));
      SkewRow row = skew_ab(off_db, on_db, repeats);
      row.id = "skew/Q9-adversarial";
      skew_rows.push_back(row);
      std::printf("  %-20s off %8.2f ms  on %8.2f ms  %.2fx better  "
                  "(imbalance %.2f -> %.2f)\n",
                  row.id.c_str(), row.off_median_ms, row.on_median_ms,
                  row.improvement, row.imbalance_off, row.imbalance_on);
    }
    {
      Database off_db(skew_graph, machines, skew_cfg);
      Database on_db(skew_graph, machines, skew_cfg);
      auto graph = on_db.materialize_snapshot(on_db.graph_epoch());
      Repartitioner rep(graph, machines);
      on_db.set_hot_vertices(
          rep.propose_hot_set(/*max_hot=*/64, /*min_degree=*/4));
      // Extra rounds: the overhead budget is a few percent, not a
      // factor, so the ratio median needs more samples.
      SkewRow row = skew_ab(off_db, on_db, std::max(repeats, 9));
      row.id = "skew/Q9-uniform";
      skew_rows.push_back(row);
      std::printf("  %-20s off %8.2f ms  on %8.2f ms  %.3fx overhead "
                  "(budget 1.05x)\n",
                  row.id.c_str(), row.off_median_ms, row.on_median_ms,
                  row.overhead);
    }
  }

  std::string json = "{\n";
  {
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "  \"scale_factor\": %.3f,\n  \"repeats\": %d,\n",
                  cfg.scale_factor, repeats);
    json += buf;
  }
  json += "  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    append_json_row(json, rows[i], i + 1 == rows.size());
  }
  json += "  ],\n";
  json += "  \"abort_latency\": [\n";
  for (std::size_t i = 0; i < abort_rows.size(); ++i) {
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "    {\"id\": \"%s\", \"machines\": %u, "
                  "\"cancel_to_drained_ms\": %.3f}%s\n",
                  abort_rows[i].id.c_str(), abort_rows[i].machines,
                  abort_rows[i].cancel_ms,
                  i + 1 == abort_rows.size() ? "" : ",");
    json += buf;
  }
  json += "  ],\n";
  json += "  \"crash_retry\": [\n";
  for (std::size_t i = 0; i < retry_rows.size(); ++i) {
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "    {\"machines\": %u, \"median_ms\": %.3f, "
                  "\"mean_retries\": %.2f}%s\n",
                  retry_rows[i].machines, retry_rows[i].median_ms,
                  retry_rows[i].mean_retries,
                  i + 1 == retry_rows.size() ? "" : ",");
    json += buf;
  }
  json += "  ],\n";
  json += "  \"concurrent_serving\": [\n";
  for (std::size_t i = 0; i < serving_rows.size(); ++i) {
    const ServingRow& s = serving_rows[i];
    char buf[256];
    std::snprintf(
        buf, sizeof buf,
        "    {\"clients\": %u, \"throughput_qps\": %.1f, \"p50_ms\": %.3f, "
        "\"p95_ms\": %.3f, \"p99_ms\": %.3f, \"admission_rejects\": %llu, "
        "\"speedup_vs_serial\": %.2f}%s\n",
        s.clients, s.r.throughput_qps, s.r.p50_ms, s.r.p95_ms, s.r.p99_ms,
        static_cast<unsigned long long>(s.r.rejected), s.speedup,
        i + 1 == serving_rows.size() ? "" : ",");
    json += buf;
  }
  json += "  ],\n";
  json += "  \"cross_query_cache\": [\n";
  for (std::size_t i = 0; i < cache_rows.size(); ++i) {
    const CacheRow& c = cache_rows[i];
    char buf[256];
    std::snprintf(
        buf, sizeof buf,
        "    {\"zipf_s\": %.1f, \"cold_mean_ms\": %.3f, "
        "\"warm_mean_ms\": %.3f, \"speedup\": %.2f, \"result_hits\": %llu, "
        "\"result_misses\": %llu}%s\n",
        c.zipf_s, c.cold_mean_ms, c.warm_mean_ms, c.speedup,
        static_cast<unsigned long long>(c.result_hits),
        static_cast<unsigned long long>(c.result_misses),
        i + 1 == cache_rows.size() ? "" : ",");
    json += buf;
  }
  json += "  ],\n";
  json += "  \"online_updates\": [\n";
  for (std::size_t i = 0; i < update_rows.size(); ++i) {
    const UpdateRow& u = update_rows[i];
    char buf[288];
    std::snprintf(
        buf, sizeof buf,
        "    {\"updates_per_16\": %u, \"mean_ms\": %.3f, \"p50_ms\": %.3f, "
        "\"p95_ms\": %.3f, \"result_hits\": %llu, "
        "\"evicted_by_update\": %llu, \"batches\": %llu, "
        "\"merge_pause_ms\": %.3f}%s\n",
        u.updates_per_16, u.mean_ms, u.p50_ms, u.p95_ms,
        static_cast<unsigned long long>(u.result_hits),
        static_cast<unsigned long long>(u.evicted_by_update),
        static_cast<unsigned long long>(u.batches), u.merge_pause_ms,
        i + 1 == update_rows.size() ? "" : ",");
    json += buf;
  }
  json += "  ],\n";
  json += "  \"lossy_transport\": [\n";
  for (std::size_t i = 0; i < loss_rows.size(); ++i) {
    const LossRow& l = loss_rows[i];
    char buf[256];
    std::snprintf(
        buf, sizeof buf,
        "    {\"id\": \"%s\", \"loss_pct\": %.1f, \"median_ms\": %.3f, "
        "\"retransmits\": %llu, \"acks_sent\": %llu, "
        "\"overhead_vs_plain\": %.3f}%s\n",
        l.id.c_str(), l.loss_pct, l.median_latency_ms,
        static_cast<unsigned long long>(l.retransmits),
        static_cast<unsigned long long>(l.acks_sent),
        l.overhead_vs_plain, i + 1 == loss_rows.size() ? "" : ",");
    json += buf;
  }
  json += "  ],\n";
  json += "  \"skew_balancing\": [\n";
  for (std::size_t i = 0; i < skew_rows.size(); ++i) {
    const SkewRow& s = skew_rows[i];
    char buf[320];
    std::snprintf(
        buf, sizeof buf,
        "    {\"id\": \"%s\", \"machines\": %u, \"off_median_ms\": %.3f, "
        "\"on_median_ms\": %.3f, \"improvement\": %.3f, "
        "\"overhead\": %.3f, \"imbalance_off\": %.3f, "
        "\"imbalance_on\": %.3f, \"mirror_fanouts\": %llu, "
        "\"mirror_expands\": %llu}%s\n",
        s.id.c_str(), s.machines, s.off_median_ms, s.on_median_ms,
        s.improvement, s.overhead, s.imbalance_off, s.imbalance_on,
        static_cast<unsigned long long>(s.mirror_fanouts),
        static_cast<unsigned long long>(s.mirror_expands),
        i + 1 == skew_rows.size() ? "" : ",");
    json += buf;
  }
  json += "  ]\n}\n";

  const char* out_env = std::getenv("RPQD_BENCH_OUT");
  const std::string out_path =
      out_env != nullptr ? out_env : "BENCH_RPQD.json";
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("\nwrote %s (%zu benchmarks)\n", out_path.c_str(), rows.size());
  return 0;
}
