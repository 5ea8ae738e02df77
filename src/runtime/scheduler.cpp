#include "runtime/scheduler.h"

#include <algorithm>
#include <exception>

#include "common/error.h"
#include "runtime/admission.h"

namespace rpqd {

namespace detail {

/// Shared state of one submission, owned jointly by the ticket(s) and
/// the scheduler. Admission fields (`outcome`, `reject`) are fixed at
/// submit time and immutable afterwards; the completion fields are
/// guarded by `m`.
struct QueryJob {
  std::uint64_t id = 0;
  /// Compile + snapshot pin + result-cache probe (runtime/admission.h).
  /// The pinned snapshot is the graph version the query executes on no
  /// matter how many updates land while it queues.
  Admission admission;
  AdmissionOutcome outcome = AdmissionOutcome::kRejected;
  AdmissionReject reject = AdmissionReject::kNone;
  /// Created at submit so a cancel can never miss the run: before
  /// dispatch it records a pending reason the engine applies on attach.
  /// Null for kCachedHit / kCoalesced tickets — they never run, so there
  /// is nothing to cancel.
  std::shared_ptr<RunControl> run_control;
  Stopwatch queued_at;    // started at submit
  double queue_ms = 0.0;  // stamped at dispatch

  std::mutex m;
  std::condition_variable cv;
  bool done = false;
  QueryResult result;
  std::exception_ptr error;  // engine invariant failures, rethrown by await
};

}  // namespace detail

using detail::QueryJob;

const char* to_string(AdmissionOutcome outcome) {
  switch (outcome) {
    case AdmissionOutcome::kAdmitted: return "admitted";
    case AdmissionOutcome::kQueued: return "queued";
    case AdmissionOutcome::kRejected: return "rejected";
    case AdmissionOutcome::kCachedHit: return "cached-hit";
    case AdmissionOutcome::kCoalesced: return "coalesced";
  }
  return "?";
}

const char* to_string(AdmissionReject reject) {
  switch (reject) {
    case AdmissionReject::kNone: return "none";
    case AdmissionReject::kQueueFull: return "queue-full";
    case AdmissionReject::kContextBudget: return "context-budget";
    case AdmissionReject::kReachIndexBudget: return "reach-index-budget";
    case AdmissionReject::kShutdown: return "shutdown";
  }
  return "?";
}

std::uint64_t QueryTicket::id() const { return job_ != nullptr ? job_->id : 0; }

AdmissionOutcome QueryTicket::admission() const {
  return job_ != nullptr ? job_->outcome : AdmissionOutcome::kRejected;
}

AdmissionReject QueryTicket::reject_reason() const {
  return job_ != nullptr ? job_->reject : AdmissionReject::kNone;
}

QueryScheduler::QueryScheduler(DistributedEngine* engine,
                               SchedulerConfig config,
                               ResultCache* result_cache)
    : engine_(engine), config_(config), result_cache_(result_cache) {
  slots_ = std::max(1u, config_.max_inflight);
  // Budget-based admission at its coarsest: when the engine carries a
  // per-query budget, cap the slot count so a full wave of such queries
  // fits under the global ceiling; a per-query budget that can never fit
  // zeroes the slots and every submission is rejected with that reason.
  const EngineConfig ec = engine_->config_snapshot();
  const auto cap_slots = [this](std::uint64_t global, std::uint64_t per_query,
                                AdmissionReject why) {
    if (global == 0 || per_query == 0) return;
    const std::uint64_t fit = global / per_query;
    if (fit == 0) {
      slots_ = 0;
      if (zero_slots_reason_ == AdmissionReject::kNone) {
        zero_slots_reason_ = why;
      }
    } else if (fit < slots_) {
      slots_ = static_cast<unsigned>(fit);
    }
  };
  cap_slots(config_.global_max_live_contexts, ec.max_live_contexts,
            AdmissionReject::kContextBudget);
  cap_slots(config_.global_reach_index_max_bytes, ec.reach_index_max_bytes,
            AdmissionReject::kReachIndexBudget);

  dispatchers_.reserve(slots_);
  for (unsigned i = 0; i < slots_; ++i) {
    dispatchers_.emplace_back([this] { dispatcher_main(); });
  }
}

QueryScheduler::~QueryScheduler() {
  std::vector<std::shared_ptr<QueryJob>> dropped;
  std::vector<std::shared_ptr<QueryJob>> live;
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
    dropped.assign(queue_.begin(), queue_.end());
    queue_.clear();
    stats_.cancelled_while_queued += dropped.size();
    live = running_;
  }
  for (const auto& job : dropped) {
    QueryResult result;
    result.aborted = true;
    result.abort_reason = AbortReason::kUserCancel;
    fulfill(*job, std::move(result));
  }
  // Cooperative fast shutdown: in-flight runs drain through the abort
  // protocol instead of holding the destructor for their full runtime.
  for (const auto& job : live) {
    job->run_control->cancel(AbortReason::kUserCancel);
  }
  work_.notify_all();
  for (auto& t : dispatchers_) t.join();
}

QueryTicket QueryScheduler::submit(std::string_view pgql) {
  auto job = std::make_shared<QueryJob>();
  // Parse errors throw here, like the blocking path. The cache probe
  // runs BEFORE slot admission: a hit or coalesce consumes neither a
  // slot nor a queue position.
  job->admission = admit(*engine_, result_cache_, pgql);
  const ResultCache::Role role = job->admission.role;
  if (role == ResultCache::Role::kHit || role == ResultCache::Role::kFollower) {
    {
      std::lock_guard lock(mutex_);
      job->id = next_id_++;
      ++stats_.submitted;
      if (role == ResultCache::Role::kHit) {
        ++stats_.cache_hits;
      } else {
        ++stats_.cache_coalesced;
      }
    }
    if (role == ResultCache::Role::kHit) {
      job->outcome = AdmissionOutcome::kCachedHit;
      QueryResult result = std::move(job->admission.hit);
      result.stats.result_cache_hit = true;
      result.stats.queue_ms = 0.0;
      fulfill(*job, std::move(result));
    } else {
      job->outcome = AdmissionOutcome::kCoalesced;
    }
    return QueryTicket(std::move(job));
  }
  // A leader must complete its flight whatever happens to the job
  // (dispatch, rejection, cancel, shutdown) — fulfill()/fail() do.
  job->run_control = std::make_shared<RunControl>();

  AdmissionReject reject = AdmissionReject::kNone;
  {
    std::lock_guard lock(mutex_);
    job->id = next_id_++;
    ++stats_.submitted;
    if (role == ResultCache::Role::kBypass) ++stats_.cache_bypassed;
    if (stopping_) {
      reject = AdmissionReject::kShutdown;
    } else if (slots_ == 0) {
      reject = zero_slots_reason_;
    } else if (busy_ + queue_.size() >= slots_ + config_.max_queued) {
      reject = AdmissionReject::kQueueFull;
    }
    if (reject == AdmissionReject::kNone) {
      job->outcome = busy_ + queue_.size() < slots_
                         ? AdmissionOutcome::kAdmitted
                         : AdmissionOutcome::kQueued;
      if (job->outcome == AdmissionOutcome::kAdmitted) {
        ++stats_.admitted;
      } else {
        ++stats_.queued;
      }
      queue_.push_back(job);
    } else {
      job->outcome = AdmissionOutcome::kRejected;
      job->reject = reject;
      switch (reject) {
        case AdmissionReject::kQueueFull: ++stats_.rejected_queue_full; break;
        case AdmissionReject::kContextBudget:
          ++stats_.rejected_context_budget;
          break;
        case AdmissionReject::kReachIndexBudget:
          ++stats_.rejected_reach_index_budget;
          break;
        case AdmissionReject::kShutdown: ++stats_.rejected_shutdown; break;
        case AdmissionReject::kNone: break;
      }
    }
  }
  if (reject != AdmissionReject::kNone) {
    // Rejected submissions never run: await() observes a typed
    // admission-reject result immediately.
    QueryResult result;
    result.aborted = true;
    result.abort_reason = AbortReason::kAdmissionReject;
    fulfill(*job, std::move(result));
  } else {
    work_.notify_one();
  }
  return QueryTicket(std::move(job));
}

QueryResult QueryScheduler::await(const QueryTicket& ticket) {
  engine_check(ticket.valid(), "await on an empty QueryTicket");
  QueryJob& job = *ticket.job_;
  if (job.admission.role == ResultCache::Role::kFollower) {
    // Follower: block on the leader's flight (this thread holds no
    // dispatcher slot, so coalescing can never deadlock the pool), then
    // stamp the shared result as coalesced. Idempotent across repeated
    // and concurrent awaits of the same ticket.
    try {
      QueryResult result = ResultCache::await(job.admission.flight);
      result.stats.result_cache_coalesced = true;
      result.stats.queue_ms = 0.0;
      std::lock_guard lock(job.m);
      if (!job.done) {
        job.result = std::move(result);
        job.done = true;
      }
    } catch (...) {
      std::lock_guard lock(job.m);
      if (!job.done) {
        job.error = std::current_exception();
        job.done = true;
      }
    }
    job.cv.notify_all();
  }
  std::unique_lock lock(job.m);
  job.cv.wait(lock, [&] { return job.done; });
  if (job.error != nullptr) std::rethrow_exception(job.error);
  return job.result;
}

bool QueryScheduler::cancel(const QueryTicket& ticket, AbortReason reason) {
  if (!ticket.valid()) return false;
  const std::shared_ptr<QueryJob>& job = ticket.job_;
  {
    std::lock_guard lock(mutex_);
    const auto it = std::find(queue_.begin(), queue_.end(), job);
    if (it != queue_.end()) {
      queue_.erase(it);
      ++stats_.cancelled_while_queued;
      QueryResult result;
      result.aborted = true;
      result.abort_reason = reason;
      fulfill(*job, std::move(result));
      return true;
    }
  }
  // Dispatched (or about to be): route through the run's cancellation
  // handle — a pre-attach cancel is remembered and applied on attach.
  // Cached-hit / coalesced tickets have no run of their own to cancel.
  return job->run_control != nullptr && job->run_control->cancel(reason);
}

unsigned QueryScheduler::cancel_all_queued(AbortReason reason) {
  std::vector<std::shared_ptr<QueryJob>> dropped;
  {
    std::lock_guard lock(mutex_);
    dropped.assign(queue_.begin(), queue_.end());
    queue_.clear();
    stats_.cancelled_while_queued += dropped.size();
  }
  for (const auto& job : dropped) {
    QueryResult result;
    result.aborted = true;
    result.abort_reason = reason;
    fulfill(*job, std::move(result));
  }
  return static_cast<unsigned>(dropped.size());
}

unsigned QueryScheduler::inflight() const {
  std::lock_guard lock(mutex_);
  return busy_;
}

unsigned QueryScheduler::queued() const {
  std::lock_guard lock(mutex_);
  return static_cast<unsigned>(queue_.size());
}

SchedulerStats QueryScheduler::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

EngineConfig QueryScheduler::job_config(const QueryJob& job) const {
  EngineConfig cfg = engine_->config_snapshot();
  if (job.admission.profile) cfg.profile = true;
  if (config_.partition_credits && slots_ > 1) {
    // Equal split across the in-flight slots, floored by the fairness
    // knob. Static shares keep the partitions disjoint even when some
    // slots idle — strict isolation over peak utilization.
    double share = 1.0 / static_cast<double>(slots_);
    share = std::max(share, config_.min_credit_share);
    cfg.credit_partition_share = std::min(1.0, share);
  }
  // Global budget slicing: a query without its own budget runs under an
  // equal slice of the global one (with a per-query budget, the slot
  // cap in the constructor already made the wave fit).
  if (config_.global_max_live_contexts > 0 && cfg.max_live_contexts == 0) {
    cfg.max_live_contexts =
        std::max<std::uint64_t>(1, config_.global_max_live_contexts / slots_);
  }
  if (config_.global_reach_index_max_bytes > 0 &&
      cfg.reach_index_max_bytes == 0) {
    cfg.reach_index_max_bytes = std::max<std::uint64_t>(
        1, config_.global_reach_index_max_bytes / slots_);
  }
  return cfg;
}

void QueryScheduler::fulfill(QueryJob& job, QueryResult result) {
  job.admission.complete(result);
  {
    std::lock_guard lock(job.m);
    job.result = std::move(result);
    job.done = true;
  }
  job.cv.notify_all();
}

void QueryScheduler::fail(QueryJob& job, std::exception_ptr error) {
  job.admission.complete_error(error);
  {
    std::lock_guard lock(job.m);
    job.error = std::move(error);
    job.done = true;
  }
  job.cv.notify_all();
}

void QueryScheduler::run_job(const std::shared_ptr<QueryJob>& job) {
  QueryResult result;
  std::exception_ptr error;
  const EngineConfig cfg = job_config(*job);
  bool lapsed_in_queue = false;
  if (cfg.query_deadline_ms > 0 &&
      job->queue_ms >= static_cast<double>(cfg.query_deadline_ms)) {
    // The deadline lapsed while the submission sat in the admission
    // queue. The engine's watchdog measures only execution time, so
    // without this check a long-queued query would START after its
    // deadline, run its full course, and only then get aborted — or
    // worse, complete. Abort at dispatch, before spending the slot.
    lapsed_in_queue = true;
    result.aborted = true;
    result.abort_reason = AbortReason::kDeadline;
    result.stats.queue_ms = job->queue_ms;
    result.stats.snapshot_epoch = job->admission.snapshot->epoch();
  } else {
    try {
      result = engine_->run(*job->admission.plan, cfg, *job->run_control,
                            job->admission.snapshot);
      result.stats.queue_ms = job->queue_ms;
    } catch (...) {
      // Engine invariant failures surface on the awaiting thread, exactly
      // like the blocking path's propagation to the caller.
      error = std::current_exception();
    }
  }
  // Retire BEFORE fulfilling: an awaiter that observed the result must
  // also observe balanced books (completed + cancelled == submitted).
  {
    std::lock_guard lock(mutex_);
    --busy_;
    ++stats_.completed;
    if (lapsed_in_queue) ++stats_.deadline_lapsed_in_queue;
    running_.erase(std::remove(running_.begin(), running_.end(), job),
                   running_.end());
  }
  if (error != nullptr) {
    fail(*job, error);
  } else {
    fulfill(*job, std::move(result));
  }
}

void QueryScheduler::dispatcher_main() {
  while (true) {
    std::shared_ptr<QueryJob> job;
    {
      std::unique_lock lock(mutex_);
      work_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, nothing left to drain
      job = std::move(queue_.front());
      queue_.pop_front();
      ++busy_;
      stats_.peak_inflight = std::max(stats_.peak_inflight, busy_);
      running_.push_back(job);
    }
    job->queue_ms = job->queued_at.elapsed_ms();
    run_job(job);
  }
}

}  // namespace rpqd
