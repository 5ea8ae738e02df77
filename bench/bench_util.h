// Shared helpers for the benchmark harnesses: the paper's methodology
// (§4.1 — repeated runs, median latency, round-robin execution to
// eliminate caching effects), environment-variable sizing, and table
// printing.
//
// Environment knobs (all optional):
//   RPQD_BENCH_SF       LDBC-like scale factor        (default 1.0)
//   RPQD_BENCH_REPEATS  runs per query, median taken  (default 3; paper 10)
//   RPQD_BENCH_SEED     generator seed                (default 7)
// A knob that is set but does not parse as a number exits 1.
#pragma once

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "api/rpqd.h"
#include "common/stopwatch.h"
#include "ldbc/generator.h"

namespace rpqd::bench {

/// Reads a numeric environment knob, `fallback` when unset. A value that
/// does not parse as a whole number of type T (trailing junk included)
/// names the variable on stderr and exits 1: a typo must never run an
/// empty benchmark that looks like a result.
template <typename T>
T env_number(const char* name, T fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  const char* end = value + std::strlen(value);
  T out{};
  const auto [ptr, ec] = std::from_chars(value, end, out);
  if (ec != std::errc{} || ptr != end || ptr == value) {
    std::fprintf(stderr, "%s: invalid value '%s'\n", name, value);
    std::exit(1);
  }
  return out;
}

inline double env_double(const char* name, double fallback) {
  return env_number<double>(name, fallback);
}

inline int env_int(const char* name, int fallback) {
  return env_number<int>(name, fallback);
}

inline double bench_scale_factor() { return env_double("RPQD_BENCH_SF", 1.0); }
inline int bench_repeats() { return env_int("RPQD_BENCH_REPEATS", 3); }
inline std::uint64_t bench_seed() {
  return static_cast<std::uint64_t>(env_int("RPQD_BENCH_SEED", 7));
}

inline ldbc::LdbcConfig bench_ldbc_config() {
  ldbc::LdbcConfig cfg;
  cfg.scale_factor = bench_scale_factor();
  cfg.seed = bench_seed();
  return cfg;
}

inline double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values.empty() ? 0.0 : values[values.size() / 2];
}

/// Latency measurement of one already-built callable, median of N runs.
template <typename Fn>
double median_ms(Fn&& fn, int repeats) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(repeats));
  for (int r = 0; r < repeats; ++r) {
    Stopwatch timer;
    fn();
    samples.push_back(timer.elapsed_ms());
  }
  return median(samples);
}

/// Round-robin run of a query list (the paper's methodology): every query
/// executes once per round; per-query medians over rounds.
struct RoundRobinResult {
  std::vector<double> median_latency_ms;  // per query
  std::vector<QueryResult> last_result;   // per query
};

inline RoundRobinResult round_robin(Database& db,
                                    const std::vector<std::string>& queries,
                                    int rounds) {
  std::vector<std::vector<double>> samples(queries.size());
  RoundRobinResult out;
  out.last_result.resize(queries.size());
  for (int r = 0; r < rounds; ++r) {
    for (std::size_t q = 0; q < queries.size(); ++q) {
      Stopwatch timer;
      out.last_result[q] = db.query(queries[q]);
      samples[q].push_back(timer.elapsed_ms());
    }
  }
  for (auto& s : samples) out.median_latency_ms.push_back(median(s));
  return out;
}

inline void print_header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

// ---- query lifecycle (common/abort.h) -----------------------------------

/// Median cancel-to-drained latency: start `query`, let it run for
/// `delay_us`, then time cancel_all() -> query returned. Only runs that
/// actually aborted are samples (fast queries can win the race), so it
/// retries up to 10x `repeats` times and reports the valid sample count
/// through `valid_out`.
inline double cancel_to_drained_ms(Database& db, const std::string& query,
                                   unsigned delay_us, int repeats,
                                   int* valid_out = nullptr) {
  std::vector<double> samples;
  for (int attempt = 0;
       static_cast<int>(samples.size()) < repeats && attempt < repeats * 10;
       ++attempt) {
    QueryResult result;
    std::atomic<bool> started{false};
    std::thread runner([&] {
      started.store(true, std::memory_order_release);
      result = db.query(query);
    });
    while (!started.load(std::memory_order_acquire)) {
    }
    std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
    Stopwatch timer;
    db.cancel_all();
    runner.join();
    if (result.aborted) samples.push_back(timer.elapsed_ms());
  }
  if (valid_out != nullptr) *valid_out = static_cast<int>(samples.size());
  return median(samples);
}

// ---- closed-loop concurrent serving (runtime/scheduler.h) --------------

/// Sorted-vector percentile with linear interpolation (p in [0,100]).
inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

struct ClosedLoopResult {
  double wall_ms = 0.0;
  double throughput_qps = 0.0;  // completed queries per second
  double p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;   // admission rejects observed by clients
};

/// Closed-loop load: `clients` threads each issue `ops_per_client`
/// queries through submit/await (round-robin over `queries`), thinking
/// `think_ms` between completions. Rejected submissions count separately
/// and are not retried. Configure the db's scheduler before calling.
inline ClosedLoopResult closed_loop_serving(
    Database& db, const std::vector<std::string>& queries, unsigned clients,
    int ops_per_client, double think_ms = 0.0) {
  std::vector<std::vector<double>> latencies(clients);
  std::vector<std::uint64_t> rejects(clients, 0);
  Stopwatch wall;
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (int i = 0; i < ops_per_client; ++i) {
        const std::string& q =
            queries[(c * 7919u + static_cast<unsigned>(i)) % queries.size()];
        Stopwatch timer;
        const QueryResult r = db.await(db.submit(q));
        if (r.aborted) {
          ++rejects[c];
        } else {
          latencies[c].push_back(timer.elapsed_ms());
        }
        if (think_ms > 0.0) {
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(think_ms));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  ClosedLoopResult out;
  out.wall_ms = wall.elapsed_ms();
  std::vector<double> all;
  for (const auto& per_client : latencies) {
    all.insert(all.end(), per_client.begin(), per_client.end());
    out.completed += per_client.size();
  }
  for (const std::uint64_t r : rejects) out.rejected += r;
  out.throughput_qps =
      out.wall_ms > 0.0 ? static_cast<double>(out.completed) / out.wall_ms * 1e3
                        : 0.0;
  out.p50_ms = percentile(all, 50.0);
  out.p95_ms = percentile(all, 95.0);
  out.p99_ms = percentile(all, 99.0);
  return out;
}

/// Serial back-to-back baseline: the same request stream served one
/// query at a time on the blocking path — client think time (if any)
/// serializes with service instead of overlapping it. The denominator
/// of the concurrency speedup claim.
inline ClosedLoopResult serial_baseline(Database& db,
                                        const std::vector<std::string>& queries,
                                        int total_ops, double think_ms = 0.0) {
  std::vector<double> latencies;
  Stopwatch wall;
  for (int i = 0; i < total_ops; ++i) {
    Stopwatch timer;
    const QueryResult r = db.query(queries[static_cast<std::size_t>(i) %
                                           queries.size()]);
    if (!r.aborted) latencies.push_back(timer.elapsed_ms());
    if (think_ms > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(think_ms));
    }
  }
  ClosedLoopResult out;
  out.wall_ms = wall.elapsed_ms();
  out.completed = latencies.size();
  out.throughput_qps =
      out.wall_ms > 0.0 ? static_cast<double>(out.completed) / out.wall_ms * 1e3
                        : 0.0;
  out.p50_ms = percentile(latencies, 50.0);
  out.p95_ms = percentile(latencies, 95.0);
  out.p99_ms = percentile(latencies, 99.0);
  return out;
}

// ---- Zipf-distributed repeated-query serving (runtime/result_cache.h) --

/// A request stream of `n` pool indices, Zipf(s)-distributed over `k`
/// distinct queries (s = 0 is uniform). Rank r's weight is 1/(r+1)^s;
/// sampling is inverse-CDF over the normalized cumulative, deterministic
/// in `seed`. The popular ranks are shuffled into the pool order by the
/// caller (rank 0 = pool[0]).
inline std::vector<std::size_t> zipf_stream(std::size_t n, std::size_t k,
                                            double s, std::uint64_t seed) {
  std::vector<double> cumulative(k, 0.0);
  double total = 0.0;
  for (std::size_t r = 0; r < k; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cumulative[r] = total;
  }
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uniform(0.0, total);
  std::vector<std::size_t> stream;
  stream.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = uniform(rng);
    const auto it =
        std::lower_bound(cumulative.begin(), cumulative.end(), x);
    stream.push_back(static_cast<std::size_t>(it - cumulative.begin()));
  }
  return stream;
}

struct ServeStreamResult {
  double mean_ms = 0.0;
  double p50_ms = 0.0, p95_ms = 0.0;
  std::uint64_t completed = 0;
};

/// Serve a pre-sampled request stream serially on the blocking path and
/// report latency moments. The same stream replayed against differently
/// configured Databases (caches off / on) is the cache serving A/B.
inline ServeStreamResult serve_stream(Database& db,
                                      const std::vector<std::string>& pool,
                                      const std::vector<std::size_t>& stream) {
  std::vector<double> samples;
  samples.reserve(stream.size());
  for (const std::size_t q : stream) {
    Stopwatch timer;
    const QueryResult r = db.query(pool[q]);
    if (!r.aborted) samples.push_back(timer.elapsed_ms());
  }
  ServeStreamResult out;
  out.completed = samples.size();
  for (const double ms : samples) out.mean_ms += ms;
  if (!samples.empty()) out.mean_ms /= static_cast<double>(samples.size());
  out.p50_ms = percentile(samples, 50.0);
  out.p95_ms = percentile(samples, 95.0);
  return out;
}

}  // namespace rpqd::bench
