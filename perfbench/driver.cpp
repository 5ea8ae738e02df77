// End-to-end benchmark driver for RPQd: runs one closed-loop workload
// against the public Database API, checks every result against
// baseline::reference_evaluate after the timed section, and prints the
// metrics as one JSON line. run.py builds this program and passes its
// arguments through; README.md explains each workload and metric.
//
//   perfbench_driver --workload point|bi|serve-rw --seed N --seconds S
//                    --trace 0|1 [--smoke] [--git-sha SHA]
//
// --trace 0 prints the end-to-end metrics. --trace 1 traces a seeded half
// of the reads, timing each public call from here (the library is not
// instrumented), and prints the per-layer metrics.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/rpqd.h"
#include "baseline/reference.h"
#include "common/error.h"
#include "common/rng.h"
#include "graph/update.h"
#include "graph/value.h"
#include "ldbc/generator.h"
#include "ldbc/schema.h"
#include "pgql/parser.h"

namespace {

using namespace rpqd;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

// ---- arguments -----------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;  // tiny graphs and few repetitions (smoke.py)
  std::string git_sha = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) die("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") die("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (key == "--git-sha") {
        args.git_sha = value;
      } else {
        die("unknown argument " + key);
      }
    } catch (const std::logic_error&) {
      die("bad value for " + key + ": " + value);
    }
  }
  if (args.seconds <= 0.0) die("--seconds must be positive");
  return args;
}

// ---- host probes ---------------------------------------------------------

/// Steal and total ticks of the aggregate "cpu" line of /proc/stat.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};

CpuTicks read_cpu_ticks() {
  CpuTicks ticks;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return ticks;
  std::uint64_t value = 0;
  for (int field = 0; field < 10 && (in >> value); ++field) {
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already included in user/nice.
    if (field < 8) ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

double process_cpu_ms() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

/// Peak resident memory of this process image. VmHWM, not getrusage's
/// ru_maxrss, which keeps the high-water mark of the process that exec'd
/// the driver (the Python wrapper).
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the line reads "<n> kB"
    }
  }
  return 0.0;
}

// ---- statistics ----------------------------------------------------------

/// Linear-interpolated percentile; 0 for an empty sample.
double percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = pct / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---- watchdog ------------------------------------------------------------

/// Cancels any operation that runs past a fixed timeout. A caller arms
/// the watchdog with the cancel action for the operation it is about to
/// start and disarms it when the operation returns. The cancel action
/// runs under the watchdog's lock, so once disarm() returns it can no
/// longer fire and hit a later operation.
class Watchdog {
 public:
  explicit Watchdog(double timeout_ms)
      : timeout_(std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::milli>(timeout_ms))),
        thread_([this] { loop(); }) {}

  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  std::uint64_t arm(std::function<void()> cancel) {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t token = next_token_++;
    armed_.emplace(token, Entry{Clock::now() + timeout_, std::move(cancel)});
    return token;
  }

  /// True when the operation was cancelled for running past the timeout.
  bool disarm(std::uint64_t token) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = armed_.find(token);
    const bool fired = it->second.fired;
    armed_.erase(it);
    return fired;
  }

 private:
  struct Entry {
    Clock::time_point deadline;
    std::function<void()> cancel;
    bool fired = false;
  };

  void loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      cv_.wait_for(lock, std::chrono::milliseconds(5));
      const auto now = Clock::now();
      for (auto& [token, entry] : armed_) {
        if (!entry.fired && now >= entry.deadline) {
          entry.fired = true;
          entry.cancel();
        }
      }
    }
  }

  const Clock::duration timeout_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::map<std::uint64_t, Entry> armed_;
  std::uint64_t next_token_ = 0;
  bool stop_ = false;
  std::thread thread_;  // last: starts after the members it uses
};

// ---- workloads -----------------------------------------------------------
//
// Why each workload exists (README.md has the full map from per-layer to
// end-to-end metrics):
//   point     interactive narrow-start RPQs (Q03*, Q10*, Q10a, Q10b, QXfil)
//             on a small graph: dominated by the fixed cost per query.
//   bi        wide analytical reachability (Q03a, Q09*, Q09a, Q09b) on a
//             larger graph: dominated by traversal, messaging, flow
//             control and the reachability index.
//   serve-rw  two reads in flight through the scheduler and the result
//             cache, with seeded update batches beside them: the only
//             workload on the serving, caching and online-update paths.
//
// No workload runs more engine worker threads than four (machines x
// workers_per_machine x reads in flight), the core count of the host the
// sizes were chosen on.

enum class Kind { kPoint, kBi, kServeRw };

struct Spec {
  Kind kind = Kind::kPoint;
  double scale_factor = 0.25;
  // Mean Post+Comment count of generate_ldbc at scale_factor, over seeds
  // 1..200. The graph of a run is re-drawn until its count is within
  // kSizeTolerance of this: the count varies by 8-23% between seeds, and
  // every workload's cost follows it.
  double expected_messages = 1546.0;
  unsigned machines = 4;
  unsigned inflight = 1;  // serve-rw: reads kept in flight (scheduler slots)
  double timeout_ms = 100.0;
  unsigned setups = 5;
  // serve-rw: one update batch per this many reads; merges recur through
  // EngineConfig::delta_merge_entries.
  unsigned reads_per_update = 0;
  std::uint64_t delta_merge_entries = 0;
  double zipf_skew = 0.0;
  // point, bi: rounds of update batches after the timed reads, each
  // round ending in an explicit merge_deltas, so every round starts from
  // empty delta segments (an apply's cost grows with their size).
  unsigned update_rounds = 0;
};

Spec make_spec(const std::string& name, bool smoke) {
  Spec spec;
  if (name == "point") {
    spec.kind = Kind::kPoint;
    spec.scale_factor = 0.25;
    spec.timeout_ms = 100.0;
    spec.update_rounds = 10;
  } else if (name == "bi") {
    spec.kind = Kind::kBi;
    spec.scale_factor = 2.0;
    spec.expected_messages = 12480.0;
    spec.timeout_ms = 250.0;
    spec.update_rounds = 10;
  } else if (name == "serve-rw") {
    spec.kind = Kind::kServeRw;
    spec.scale_factor = 0.25;
    spec.machines = 2;
    spec.inflight = 2;
    spec.timeout_ms = 200.0;
    spec.reads_per_update = 16;
    spec.delta_merge_entries = 1024;
    spec.zipf_skew = 0.5;
  } else {
    die("unknown workload '" + name + "' (point, bi, serve-rw)");
  }
  if (smoke) {
    spec.scale_factor = 0.03;
    spec.expected_messages = 0.0;  // any graph
    spec.setups = 1;
    spec.update_rounds = std::min(spec.update_rounds, 2u);
    if (spec.delta_merge_entries > 0) spec.delta_merge_entries = 8;
  }
  return spec;
}

int pinned_cpu = -1;  // set once in main, before any thread starts

constexpr double kSizeTolerance = 0.015;
constexpr unsigned kUpdatesPerRound = 30;

/// The generator seed of a run: the first of a seeded sequence whose
/// graph's Post+Comment count lies within kSizeTolerance of the spec's
/// expected count. The search is input preparation, not set-up, and is
/// not timed.
std::uint64_t pick_graph_seed(const Spec& spec, std::uint64_t seed) {
  if (spec.expected_messages <= 0.0) return seed;
  for (std::uint64_t attempt = 0; attempt < 1000; ++attempt) {
    ldbc::LdbcConfig gen;
    gen.scale_factor = spec.scale_factor;
    gen.seed = seed * 1000003 + attempt;
    ldbc::LdbcStats stats;
    ldbc::generate_ldbc(gen, &stats);
    const auto messages = static_cast<double>(stats.posts + stats.comments);
    if (std::abs(messages - spec.expected_messages) <=
        kSizeTolerance * spec.expected_messages) {
      return gen.seed;
    }
  }
  die("no graph of the expected size in 1000 draws");
}

std::size_t num_persons(const Spec& spec) {
  // generate_ldbc's person count: 1000 * scale factor, at least 30.
  return std::max<std::size_t>(30, static_cast<std::size_t>(1000.0 * spec.scale_factor));
}

std::string with_person(const std::string& prefix, std::uint64_t id,
                        const std::string& suffix = "") {
  return prefix + " WHERE p1.id = " + std::to_string(id) + suffix;
}

std::string q09_window(std::int64_t lo, std::int64_t hi) {
  return "SELECT COUNT(*) FROM MATCH (post:Post) <-/:replyOf+/- (c:Comment) "
         "WHERE post.creationDate >= " + std::to_string(lo) +
         " AND post.creationDate <= " + std::to_string(hi);
}

/// The distinct read texts of a workload, drawn from the seed. Person ids
/// are the generator's `id` property, 0 .. persons-1.
std::vector<std::string> make_texts(const Spec& spec, Rng& rng) {
  const std::size_t persons = num_persons(spec);
  std::vector<std::string> texts;
  switch (spec.kind) {
    case Kind::kPoint: {
      constexpr unsigned kParams = 16;
      for (unsigned i = 0; i < kParams; ++i) {
        texts.push_back(
            "SELECT COUNT(*) FROM MATCH (country:Country) <-[:isPartOf]- "
            "(city:City) <-[:isLocatedIn]- (p:Person) <-[:hasModerator]- "
            "(f:Forum) -[:containerOf]-> (post:Post) <-/:replyOf*/- (msg) "
            "WHERE country.name = '" +
            std::string(ldbc::country_name(static_cast<unsigned>(rng.next_below(24)))) +
            "'");
        texts.push_back(with_person(
            "SELECT COUNT(*) FROM MATCH (p1:Person) -/:knows{2,3}/- (p2:Person)",
            rng.next_below(persons)));
        texts.push_back(with_person(
            "SELECT COUNT(*) FROM MATCH (p1:Person) -/:knows{1,2}/- (p2:Person)",
            rng.next_below(persons)));
        texts.push_back(with_person(
            "SELECT COUNT(*) FROM MATCH (p1:Person) -/:knows+/-> (p2:Person)",
            rng.next_below(persons)));
        texts.push_back(with_person(
            "PATH p AS (pa:Person) -[:knows]- (pb:Person) WHERE pa.age <= pb.age "
            "SELECT COUNT(*) FROM MATCH (p1:Person) -/:p*/-> (p2:Person)",
            rng.next_below(persons), " AND p1.age <= p2.age"));
      }
      break;
    }
    case Kind::kBi:
      // Q03a, Q09*, Q09a, Q09b; make_cycle runs Q09a (index 2) twice.
      texts = {
          "SELECT COUNT(*) FROM MATCH (f:Forum) -[:containerOf]-> (post:Post) "
          "<-/:replyOf*/- (msg)",
          q09_window(400, 2900),
          "SELECT COUNT(*) FROM MATCH (post:Post) <-/:replyOf*/- (m)",
          "SELECT COUNT(*) FROM MATCH (post:Post) <-/:replyOf{1,3}/- (c:Comment)",
      };
      break;
    case Kind::kServeRw: {
      constexpr unsigned kPerFamily = 32;
      for (unsigned i = 0; i < kPerFamily; ++i) {
        texts.push_back(with_person(
            "SELECT COUNT(*) FROM MATCH (p1:Person) -/:knows{1,2}/- (p2:Person)",
            rng.next_below(persons)));
        // Fixed width: post dates are uniform, so every window holds
        // about the same share of the posts.
        const auto lo = rng.next_int(0, 3650 - 600);
        texts.push_back(q09_window(lo, lo + 600));
      }
      // Zipf ranks follow this order; shuffle so both families share the
      // popular ranks.
      for (std::size_t i = texts.size(); i > 1; --i) {
        std::swap(texts[i - 1], texts[rng.next_below(i)]);
      }
      break;
    }
  }
  return texts;
}

/// Read order for point and bi: a seeded shuffle of every text repeated
/// by its weight, cycled, so every text gets exactly its share of the
/// ops. In bi, Q09a (the paper's Table 2 query) runs twice per cycle: with
/// four equal shares the median would fall on the gap between the second
/// and third cheapest query, and jump with either one's tail.
std::vector<std::uint32_t> make_cycle(const Spec& spec, std::size_t num_texts,
                                      Rng& rng) {
  std::vector<std::uint32_t> cycle;
  for (std::uint32_t t = 0; t < num_texts; ++t) {
    const unsigned weight = spec.kind == Kind::kBi && t == 2 ? 2 : 1;
    cycle.insert(cycle.end(), weight, t);
  }
  for (std::size_t i = cycle.size(); i > 1; --i) {
    std::swap(cycle[i - 1], cycle[rng.next_below(i)]);
  }
  return cycle;
}

/// Seeded update batches in a fixed cycle of four kinds: a new Comment
/// that replies to a random Post, a `knows` edge between two random
/// persons, then the deletion of that Comment and of that edge. Each
/// cycle leaves the visible graph as it found it, so read costs do not
/// drift as a run goes on, and each kind is a fixed share of the updates.
class UpdateGen {
 public:
  static constexpr unsigned kKinds = 4;
  static constexpr const char* kKindNames[kKinds] = {"comment+", "knows+", "comment-",
                                                     "knows-"};

  UpdateGen(const Graph& graph, std::uint64_t seed) : rng_(seed) {
    const Catalog& cat = graph.catalog();
    const LabelId person = *cat.find_vertex_label(ldbc::kPerson);
    const LabelId post = *cat.find_vertex_label(ldbc::kPost);
    comment_ = *cat.find_vertex_label(ldbc::kComment);
    knows_ = *cat.find_edge_label(ldbc::kKnows);
    reply_of_ = *cat.find_edge_label(ldbc::kReplyOf);
    date_ = *cat.find_property(ldbc::kCreationDate);
    length_ = *cat.find_property(ldbc::kLength);
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
      if (graph.label(v) == person) persons_.push_back(v);
      if (graph.label(v) == post) posts_.push_back(v);
    }
    next_vertex_ = static_cast<VertexId>(graph.num_vertices());
  }

  /// Kind of the batch next() returns next.
  unsigned kind() const { return step_ % kKinds; }

  /// The next batch. Vertex ids of inserts are predicted from the count
  /// of vertices so far, so the caller must apply every batch in order.
  UpdateBatch next() {
    UpdateBatch batch;
    switch (step_++ % kKinds) {
      case 0:
        last_comment_ = next_vertex_++;
        batch.vertex_inserts.push_back(
            {comment_, {{date_, int_value(rng_.next_int(0, 3650))},
                        {length_, int_value(rng_.next_int(1, 200))}}});
        batch.edge_inserts.push_back(
            {last_comment_, posts_[rng_.next_below(posts_.size())], reply_of_});
        break;
      case 1: {
        const std::size_t a = rng_.next_below(persons_.size());
        const std::size_t b = (a + 1 + rng_.next_below(persons_.size() - 1)) %
                              persons_.size();
        last_knows_ = {persons_[a], persons_[b], knows_};
        batch.edge_inserts.push_back(last_knows_);
        break;
      }
      case 2:
        batch.vertex_deletes.push_back({last_comment_});
        break;
      default:
        batch.edge_deletes.push_back(
            {last_knows_.src, last_knows_.dst, last_knows_.elabel});
        break;
    }
    return batch;
  }

 private:
  Rng rng_;
  LabelId comment_ = 0, knows_ = 0, reply_of_ = 0;
  PropId date_ = 0, length_ = 0;
  std::vector<VertexId> persons_, posts_;
  VertexId last_comment_ = 0;
  EdgeInsert last_knows_;
  VertexId next_vertex_ = 0;
  std::uint64_t step_ = 0;
};

// ---- one operation's record ----------------------------------------------

/// Engine counters of one executed read; zero for a cache hit.
struct Counters {
  double exec_ms = 0.0;
  double queue_ms = 0.0;
  double contexts = 0.0;
  double data_messages = 0.0;
  double term_messages = 0.0;
  double bytes_sent = 0.0;
  double contexts_sent = 0.0;
  double flow_blocked = 0.0;
  double index_entries = 0.0;
  double matches = 0.0;
  double wasted = 0.0;  // index probes eliminated or duplicated
  double load_imbalance = 0.0;
};

Counters counters_of(const RuntimeStats& s) {
  Counters c;
  c.exec_ms = s.elapsed_ms;
  c.queue_ms = s.queue_ms;
  for (const auto n : s.machine_contexts) c.contexts += static_cast<double>(n);
  c.data_messages = static_cast<double>(s.data_messages);
  c.term_messages = static_cast<double>(s.term_messages);
  c.bytes_sent = static_cast<double>(s.bytes_sent);
  c.contexts_sent = static_cast<double>(s.contexts_sent);
  c.flow_blocked = static_cast<double>(s.flow_blocked);
  for (const auto& stage : s.rpq) {
    c.index_entries += static_cast<double>(stage.index_entries);
    c.matches += static_cast<double>(stage.total_matches());
    c.wasted += static_cast<double>(stage.total_eliminated() +
                                    stage.total_duplicated());
  }
  c.load_imbalance = s.load_imbalance;
  return c;
}

struct Sample {
  std::uint32_t text = 0;
  bool update = false;
  bool traced = false;
  bool timed_out = false;
  bool failed = false;  // aborted, timed out, threw, or verified wrong
  bool wrong = false;   // completed with a count the oracle disagrees with
  bool cache_hit = false;
  bool executed = false;  // ran on the engine (not a hit or coalesced)
  std::uint64_t count = 0;
  std::uint64_t epoch = 0;
  double latency_ms = 0.0;  // call to return of the whole operation
  // Traced reads: the public calls timed one by one.
  double parse_ms = 0.0;    // pgql::parse
  double compile_ms = 0.0;  // Database::prepare
  double teardown_ms = 0.0;  // run/await wall time not in elapsed_ms
  Counters counters;
};

void absorb(const QueryResult& r, Sample* s) {
  s->count = r.count;
  s->epoch = r.stats.snapshot_epoch;
  s->failed = s->failed || r.aborted || r.truncated;
  s->cache_hit = r.stats.result_cache_hit;
  s->executed = !r.stats.result_cache_hit && !r.stats.result_cache_coalesced;
  if (s->executed) s->counters = counters_of(r.stats);
}

/// One serve-rw read between submit and await.
struct InFlight {
  Sample sample;
  QueryTicket ticket;
  Clock::time_point start;
  std::uint64_t token = 0;
};

struct SetupTimes {
  double generate_s = 0.0;
  double partition_s = 0.0;  // Database construction
  double total_s = 0.0;
};

// ---- output --------------------------------------------------------------

std::string number(double value) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + number(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

/// What the timed section measured, besides its operations.
struct Timed {
  std::vector<Sample> samples;  // timed ops first, then the update rounds
  std::size_t ops = 0;          // samples[0, ops) are the timed section's
  double seconds = 0.0;
  double cpu_ms = 0.0;
  double steal_share = 0.0;
  std::uint64_t evicted_by_update = 0;
  std::size_t merges_before = 0;  // merge_ms_ entries from before it
};

// ---- the run -------------------------------------------------------------

class Bench {
 public:
  Bench(const Args& args, const Spec& spec)
      : args_(args), spec_(spec), watchdog_(spec.timeout_ms) {}

  int run();

 private:
  void set_up();
  std::uint32_t next_text();
  // A coin, not strict alternation: alternation would pair the traced
  // half with the even slots of the read cycle.
  bool next_traced() { return args_.trace && trace_rng_.next_bool(0.5); }
  Sample read_blocking(std::uint32_t text, bool traced);
  void serve_step(std::vector<Sample>* out);
  /// Awaits the oldest in-flight serve-rw read (reads are awaited in
  /// submission order, as a client with two outstanding requests would).
  Sample await_oldest();
  Sample apply_update();
  /// Records GraphStoreStats::last_merge_ms when a merge has run since the
  /// last call.
  void note_merge();
  void closed_loop(double seconds, std::vector<Sample>* out);
  double warm_up();
  Timed timed_section();
  void update_rounds(std::vector<Sample>* out);
  void verify(std::vector<Sample>* samples);
  std::vector<Metric> end_to_end(const Timed& t, double rss_mb) const;
  std::vector<Metric> per_layer(const Timed& t) const;
  void print_breakdown(const Timed& t) const;

  const Args& args_;
  const Spec spec_;
  std::vector<SetupTimes> setups_;
  std::uint64_t graph_seed_ = 0;
  std::unique_ptr<Database> db_;
  // After db_: its cancel actions point into the Database, so its thread
  // must be joined before db_ is destroyed, on any path out of run().
  Watchdog watchdog_;
  std::vector<std::string> texts_;
  std::vector<std::uint32_t> cycle_;
  std::size_t cycle_pos_ = 0;
  std::unique_ptr<ZipfSampler> zipf_;
  std::unique_ptr<UpdateGen> updates_;
  Rng draw_rng_{0};
  unsigned reads_since_update_ = 0;
  Rng trace_rng_{0};
  std::deque<InFlight> inflight_;
  std::uint64_t merges_seen_ = 0;
  std::vector<double> merge_ms_;
};

void Bench::set_up() {
  for (unsigned i = 0; i < spec_.setups; ++i) {
    db_.reset();  // never hold two graphs: peak memory is one set-up's
    SetupTimes times;
    const auto t0 = Clock::now();
    ldbc::LdbcConfig gen;
    gen.scale_factor = spec_.scale_factor;
    gen.seed = graph_seed_;
    Graph graph = ldbc::generate_ldbc(gen);
    const auto t1 = Clock::now();
    EngineConfig config;
    config.workers_per_machine = 1;
    if (spec_.kind == Kind::kServeRw) {
      config.result_cache_max_bytes = 8u << 20;
      config.delta_merge_entries = spec_.delta_merge_entries;
    }
    auto db = std::make_unique<Database>(std::move(graph), spec_.machines, config);
    const auto t2 = Clock::now();
    if (spec_.kind == Kind::kServeRw) {
      SchedulerConfig sched;
      sched.max_inflight = spec_.inflight;
      db->configure_scheduler(sched);  // also creates the result cache
    }
    db_ = std::move(db);
    for (std::uint32_t t = 0; t < texts_.size(); ++t) {
      if (spec_.kind == Kind::kServeRw) {
        Database* raw = db_.get();
        const QueryTicket ticket = raw->submit(texts_[t]);
        const std::uint64_t token = watchdog_.arm([raw, ticket] { raw->cancel(ticket); });
        raw->await(ticket);
        watchdog_.disarm(token);
      } else {
        read_blocking(t, false);
      }
    }
    const auto t3 = Clock::now();
    times.generate_s = seconds_between(t0, t1);
    times.partition_s = seconds_between(t1, t2);
    times.total_s = seconds_between(t0, t3);
    setups_.push_back(times);
  }
  merges_seen_ = db_->update_stats().merges;
}

std::uint32_t Bench::next_text() {
  if (zipf_ != nullptr) return static_cast<std::uint32_t>(zipf_->sample(draw_rng_));
  const std::uint32_t text = cycle_[cycle_pos_];
  cycle_pos_ = (cycle_pos_ + 1) % cycle_.size();
  return text;
}

Sample Bench::read_blocking(std::uint32_t text, bool traced) {
  Sample s;
  s.text = text;
  s.traced = traced;
  const std::string& pgql = texts_[text];
  Database* db = db_.get();
  const auto start = Clock::now();
  std::uint64_t token = 0;
  try {
    if (traced) {
      pgql::parse(pgql);
      const auto parsed = Clock::now();
      PreparedQuery prepared = db->prepare(pgql);
      const auto compiled = Clock::now();
      token = watchdog_.arm([db] { db->cancel_all(); });
      const QueryResult r = prepared.run();
      const auto end = Clock::now();
      s.timed_out = watchdog_.disarm(token);
      absorb(r, &s);
      s.parse_ms = ms_between(start, parsed);
      s.compile_ms = ms_between(parsed, compiled);
      s.teardown_ms = ms_between(compiled, end) - r.stats.elapsed_ms;
      s.latency_ms = ms_between(start, end);
    } else {
      token = watchdog_.arm([db] { db->cancel_all(); });
      const QueryResult r = db->query(pgql);
      s.latency_ms = ms_between(start, Clock::now());
      s.timed_out = watchdog_.disarm(token);
      absorb(r, &s);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: read failed: %s\n", e.what());
    s.latency_ms = ms_between(start, Clock::now());
    s.failed = true;
  }
  s.failed = s.failed || s.timed_out;
  return s;
}

Sample Bench::apply_update() {
  Sample s;
  s.update = true;
  s.text = updates_->kind();
  const UpdateBatch batch = updates_->next();
  const std::uint64_t before = db_->graph_epoch();
  const auto start = Clock::now();
  try {
    const UpdateResult receipt = db_->apply_update(batch);
    s.latency_ms = ms_between(start, Clock::now());
    s.epoch = receipt.epoch;
    s.failed = receipt.epoch != before + 1 ||
               receipt.new_vertices.size() != batch.vertex_inserts.size() ||
               receipt.new_edges.size() != batch.edge_inserts.size();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: update failed: %s\n", e.what());
    s.latency_ms = ms_between(start, Clock::now());
    s.failed = true;
  }
  note_merge();
  return s;
}

void Bench::note_merge() {
  const GraphStoreStats stats = db_->update_stats();
  if (stats.merges > merges_seen_) {
    merges_seen_ = stats.merges;
    merge_ms_.push_back(stats.last_merge_ms);
  }
}

void Bench::serve_step(std::vector<Sample>* out) {
  if (reads_since_update_ >= spec_.reads_per_update) {
    reads_since_update_ = 0;
    out->push_back(apply_update());
    return;
  }
  if (inflight_.size() < spec_.inflight) {
    ++reads_since_update_;
    InFlight op;
    op.sample.text = next_text();
    op.sample.traced = next_traced();
    const std::string& pgql = texts_[op.sample.text];
    op.start = Clock::now();
    try {
      if (op.sample.traced) {
        pgql::parse(pgql);
        const auto parsed = Clock::now();
        db_->prepare(pgql);
        op.sample.parse_ms = ms_between(op.start, parsed);
        op.sample.compile_ms = ms_between(parsed, Clock::now());
      }
      op.ticket = db_->submit(pgql);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: submit failed: %s\n", e.what());
      op.sample.failed = true;
      op.sample.latency_ms = ms_between(op.start, Clock::now());
      out->push_back(op.sample);
      return;
    }
    if (op.ticket.admission() == AdmissionOutcome::kCachedHit) {
      // Already answered: a client does not keep it in flight.
      absorb(db_->await(op.ticket), &op.sample);
      op.sample.latency_ms = ms_between(op.start, Clock::now());
      out->push_back(op.sample);
      return;
    }
    Database* db = db_.get();
    const QueryTicket ticket = op.ticket;
    op.token = watchdog_.arm([db, ticket] { db->cancel(ticket); });
    inflight_.push_back(std::move(op));
    return;
  }
  out->push_back(await_oldest());
}

Sample Bench::await_oldest() {
  InFlight op = std::move(inflight_.front());
  inflight_.pop_front();
  Sample& s = op.sample;
  try {
    const QueryResult r = db_->await(op.ticket);
    s.latency_ms = ms_between(op.start, Clock::now());
    absorb(r, &s);
    if (s.executed) {
      s.teardown_ms = s.latency_ms - s.parse_ms - s.compile_ms - r.stats.queue_ms -
                      r.stats.elapsed_ms;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: read failed: %s\n", e.what());
    s.latency_ms = ms_between(op.start, Clock::now());
    s.failed = true;
  }
  s.timed_out = watchdog_.disarm(op.token);
  s.failed = s.failed || s.timed_out;
  return s;
}

void Bench::closed_loop(double seconds, std::vector<Sample>* out) {
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
  while (Clock::now() < end) {
    if (spec_.kind == Kind::kServeRw) {
      serve_step(out);
    } else {
      const std::uint32_t text = next_text();
      out->push_back(read_blocking(text, next_traced()));
    }
  }
  if (spec_.kind == Kind::kServeRw) {
    while (!inflight_.empty()) out->push_back(await_oldest());
  }
}

/// Runs the workload untimed in half-second windows until the throughput
/// of two windows in a row agrees within 10% (the host runs faster for a
/// while after idling), at most 6 s. Returns the seconds spent.
double Bench::warm_up() {
  constexpr double kWindow = 0.5;
  constexpr int kMaxWindows = 12;
  const auto start = Clock::now();
  double previous = 0.0;
  for (int w = 0; w < kMaxWindows; ++w) {
    std::vector<Sample> window;
    closed_loop(kWindow, &window);
    const double rate = static_cast<double>(window.size()) / kWindow;
    if (w >= 1 && previous > 0.0 &&
        std::abs(rate - previous) <= 0.1 * previous) {
      break;
    }
    previous = rate;
  }
  return seconds_between(start, Clock::now());
}

/// Compares every completed read with the oracle on the snapshot it
/// pinned, memoised by (text, epoch); a wrong count fails the op.
void Bench::verify(std::vector<Sample>* samples) {
  std::map<std::uint64_t, std::vector<Sample*>> by_epoch;
  for (Sample& s : *samples) {
    if (!s.update && !s.failed) by_epoch[s.epoch].push_back(&s);
  }
  for (auto& [epoch, reads] : by_epoch) {
    const std::shared_ptr<const Graph> graph = db_->materialize_snapshot(epoch);
    std::map<std::uint32_t, std::uint64_t> expected;
    for (Sample* s : reads) {
      auto it = expected.find(s->text);
      if (it == expected.end()) {
        const std::uint64_t count =
            baseline::reference_evaluate(texts_[s->text], *graph).count;
        it = expected.emplace(s->text, count).first;
      }
      if (s->count != it->second) {
        std::fprintf(stderr,
                     "perfbench: wrong result at epoch %llu: got %llu, "
                     "expected %llu for %s\n",
                     static_cast<unsigned long long>(epoch),
                     static_cast<unsigned long long>(s->count),
                     static_cast<unsigned long long>(it->second),
                     texts_[s->text].c_str());
        s->wrong = true;
        s->failed = true;
      }
    }
  }
}

Timed Bench::timed_section() {
  Timed t;
  t.samples.reserve(1 << 16);
  t.merges_before = merge_ms_.size();
  const std::uint64_t evicted_before = db_->result_cache_stats().evicted_by_update;
  const CpuTicks ticks_before = read_cpu_ticks();
  const double cpu_before = process_cpu_ms();
  const auto start = Clock::now();
  closed_loop(args_.seconds, &t.samples);
  t.seconds = seconds_between(start, Clock::now());
  t.cpu_ms = process_cpu_ms() - cpu_before;
  const CpuTicks ticks_after = read_cpu_ticks();
  t.evicted_by_update = db_->result_cache_stats().evicted_by_update - evicted_before;
  t.steal_share = ratio(static_cast<double>(ticks_after.steal - ticks_before.steal),
                        static_cast<double>(ticks_after.total - ticks_before.total));
  t.ops = t.samples.size();
  return t;
}

void Bench::update_rounds(std::vector<Sample>* out) {
  for (unsigned round = 0; round < spec_.update_rounds; ++round) {
    for (unsigned i = 0; i < kUpdatesPerRound; ++i) out->push_back(apply_update());
    if (!db_->merge_deltas()) die("merge_deltas found no deltas to fold");
    note_merge();
  }
  // One more read, verified on the final snapshot.
  if (spec_.update_rounds > 0) out->push_back(read_blocking(0, false));
}

std::vector<Metric> Bench::end_to_end(const Timed& t, double rss_mb) const {
  std::vector<double> reads, updates, setups;
  std::uint64_t correct = 0;
  for (std::size_t i = 0; i < t.samples.size(); ++i) {
    const Sample& s = t.samples[i];
    if (i < t.ops && !s.failed) ++correct;
    if (s.update) {
      updates.push_back(s.latency_ms);
    } else if (i < t.ops) {
      reads.push_back(s.latency_ms);
    }
  }
  for (const SetupTimes& st : setups_) setups.push_back(st.total_s);
  return {
      {"qps", static_cast<double>(correct) / t.seconds, "1/s"},
      {"p50_ms", median(reads), "ms"},
      {"update_p50_ms", median(updates), "ms"},
      {"setup_s", median(setups), "s"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
}

std::vector<Metric> Bench::per_layer(const Timed& t) const {
  std::vector<double> parse, compile, exec, teardown, queue, imbalance;
  std::vector<double> traced, untraced, updates, generate, partition;
  Counters sum;
  double executed = 0.0, reads = 0.0, hits = 0.0, timed_updates = 0.0;
  for (std::size_t i = 0; i < t.samples.size(); ++i) {
    const Sample& s = t.samples[i];
    if (s.update) {
      updates.push_back(s.latency_ms);
      timed_updates += i < t.ops;
      continue;
    }
    if (i >= t.ops) continue;
    reads += 1.0;
    hits += s.cache_hit;
    (s.traced ? traced : untraced).push_back(s.latency_ms);
    if (!s.traced || !s.executed) continue;
    executed += 1.0;
    parse.push_back(s.parse_ms);
    compile.push_back(s.compile_ms);
    exec.push_back(s.counters.exec_ms);
    teardown.push_back(s.teardown_ms);
    queue.push_back(s.counters.queue_ms);
    imbalance.push_back(s.counters.load_imbalance);
    sum.contexts += s.counters.contexts;
    sum.data_messages += s.counters.data_messages;
    sum.term_messages += s.counters.term_messages;
    sum.bytes_sent += s.counters.bytes_sent;
    sum.contexts_sent += s.counters.contexts_sent;
    sum.flow_blocked += s.counters.flow_blocked;
    sum.index_entries += s.counters.index_entries;
    sum.matches += s.counters.matches;
    sum.wasted += s.counters.wasted;
  }
  for (const SetupTimes& st : setups_) {
    generate.push_back(st.generate_s);
    partition.push_back(st.partition_s);
  }
  const std::vector<double> merges(
      merge_ms_.begin() + static_cast<std::ptrdiff_t>(t.merges_before), merge_ms_.end());
  return {
      {"pgql.parse_ms", median(parse), "ms"},
      {"plan.compile_ms", median(compile), "ms"},
      {"runtime.exec_ms", median(exec), "ms"},
      {"runtime.teardown_ms", median(teardown), "ms"},
      {"runtime.cpu_ms_per_op", ratio(t.cpu_ms, static_cast<double>(t.ops)), "ms"},
      {"runtime.contexts_per_op", ratio(sum.contexts, executed), "count"},
      {"runtime.load_imbalance", mean(imbalance), "ratio"},
      {"runtime.queue_ms", mean(queue), "ms"},
      {"runtime.cache_hit_ratio", ratio(hits, reads), "ratio"},
      {"runtime.cache_evicted_by_update",
       ratio(static_cast<double>(t.evicted_by_update), timed_updates), "count/update"},
      {"net.messages_per_op", ratio(sum.data_messages, executed), "count"},
      {"net.bytes_per_context", ratio(sum.bytes_sent, sum.contexts_sent), "bytes"},
      {"net.flow_blocked_per_op", ratio(sum.flow_blocked, executed), "count"},
      {"net.term_messages_per_op", ratio(sum.term_messages, executed), "count"},
      {"rpq.index_entries_per_op", ratio(sum.index_entries, executed), "count"},
      {"rpq.useful_ratio", ratio(sum.matches, sum.matches + sum.wasted), "ratio"},
      {"graph.apply_ms", median(updates), "ms"},
      {"graph.merge_ms", median(merges), "ms"},
      {"ldbc.generate_s", median(generate), "s"},
      {"graph.partition_s", median(partition), "s"},
      {"latency.p99_ms", percentile(untraced, 99.0), "ms"},
      {"host.steal_share", t.steal_share, "ratio"},
      {"trace.overhead", ratio(median(traced), median(untraced)), "ratio"},
  };
}

/// Per-text and per-update-kind latency on stderr, to explain a run whose
/// figures moved.
void Bench::print_breakdown(const Timed& t) const {
  std::vector<std::vector<double>> per_text(texts_.size());
  std::vector<unsigned> hits(texts_.size(), 0);
  std::vector<std::vector<double>> per_kind(UpdateGen::kKinds);
  for (std::size_t i = 0; i < t.samples.size(); ++i) {
    const Sample& s = t.samples[i];
    if (s.update) {
      per_kind[s.text].push_back(s.latency_ms);
    } else if (i < t.ops) {
      per_text[s.text].push_back(s.latency_ms);
      hits[s.text] += s.cache_hit;
    }
  }
  for (std::size_t i = 0; i < texts_.size(); ++i) {
    std::fprintf(stderr, "perfbench: text %2zu n=%5zu hits=%5u p50=%8.3f ms  %s\n", i,
                 per_text[i].size(), hits[i], median(per_text[i]), texts_[i].c_str());
  }
  for (unsigned k = 0; k < UpdateGen::kKinds; ++k) {
    std::fprintf(stderr, "perfbench: update %-8s n=%5zu p50=%8.4f ms\n",
                 UpdateGen::kKindNames[k], per_kind[k].size(), median(per_kind[k]));
  }
  std::fprintf(stderr, "perfbench: merges since the timed section began: %zu\n",
               merge_ms_.size() - t.merges_before);
}

int Bench::run() {
  Rng text_rng(args_.seed * 0x9e3779b97f4a7c15ULL + 1);
  texts_ = make_texts(spec_, text_rng);
  draw_rng_ = Rng(args_.seed * 0x9e3779b97f4a7c15ULL + 2);
  trace_rng_ = Rng(args_.seed * 0x9e3779b97f4a7c15ULL + 3);
  if (spec_.kind == Kind::kServeRw) {
    zipf_ = std::make_unique<ZipfSampler>(texts_.size(), spec_.zipf_skew);
  } else {
    cycle_ = make_cycle(spec_, texts_.size(), draw_rng_);
  }
  graph_seed_ = pick_graph_seed(spec_, args_.seed);

  set_up();
  // Read after the set-ups, which run one query at a time. Later the peak
  // also follows timing: how many engine threads happened to be alive at
  // once (each touches its own stack), and this program's per-operation
  // records (about 160 bytes each, so the figure would track throughput).
  const double rss_mb = peak_rss_mb();
  updates_ = std::make_unique<UpdateGen>(db_->graph(), args_.seed * 31 + 7);
  const double warm_s = warm_up();
  Timed timed = timed_section();
  update_rounds(&timed.samples);
  const auto verify_start = Clock::now();
  verify(&timed.samples);
  const double verify_s = seconds_between(verify_start, Clock::now());

  std::uint64_t failed = 0, wrong = 0, timeouts = 0;
  double max_ok_ms = 0.0;  // slowest correct read: the timeouts' headroom
  for (const Sample& s : timed.samples) {
    failed += s.failed;
    wrong += s.wrong;
    timeouts += s.timed_out;
    if (!s.update && !s.failed) max_ok_ms = std::max(max_ok_ms, s.latency_ms);
  }
  const std::vector<Metric> metrics =
      args_.trace ? per_layer(timed) : end_to_end(timed, rss_mb);

  print_breakdown(timed);
  std::printf("# perfbench workload=%s seed=%llu graph_seed=%llu trace=%d nproc=%u "
              "pinned_cpu=%d build=%s git=%s steal_share=%.4f warm_up_s=%.2f "
              "timed_s=%.2f verify_s=%.2f ops=%zu max_ok_ms=%.2f timeouts=%llu "
              "wrong=%llu texts=%zu\n",
              args_.workload.c_str(), static_cast<unsigned long long>(args_.seed),
              static_cast<unsigned long long>(graph_seed_), args_.trace ? 1 : 0,
              std::thread::hardware_concurrency(), pinned_cpu, PERFBENCH_BUILD_TYPE,
              args_.git_sha.c_str(), timed.steal_share, warm_s, timed.seconds, verify_s,
              timed.ops, max_ok_ms, static_cast<unsigned long long>(timeouts),
              static_cast<unsigned long long>(wrong), texts_.size());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %llu, \"metrics\": %s}\n",
              wrong == 0 ? "true" : "false", timed.samples.size(),
              static_cast<unsigned long long>(failed), metrics_json(metrics).c_str());
  std::fflush(stdout);
  return 0;
}

/// Pins the process to one CPU before any thread starts; threads inherit
/// the mask. On the shared 4-vCPU host the sizes were chosen on, runs
/// spread over all vCPUs swung up to 4x in throughput with hypervisor
/// steal, while runs on one vCPU in the same period varied by about 10%.
/// Returns the CPU, or -1 when the affinity calls fail (the run is then
/// unpinned).
int pin_to_one_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpu = c;
  }
  if (cpu < 0) return -1;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Spec spec = make_spec(args.workload, args.smoke);
  pinned_cpu = pin_to_one_cpu();
  try {
    Bench bench(args, spec);
    return bench.run();
  } catch (const std::exception& e) {
    die(std::string("aborted: ") + e.what());
  }
}
