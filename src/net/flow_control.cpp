#include "net/flow_control.h"

#include <algorithm>

#include "common/error.h"

namespace rpqd {

const char* to_string(CreditClass c) {
  switch (c) {
    case CreditClass::kFixed: return "fixed";
    case CreditClass::kRpqDedicated: return "rpq-dedicated";
    case CreditClass::kRpqShared: return "rpq-shared";
    case CreditClass::kRpqOverflow: return "rpq-overflow";
  }
  return "?";
}

FlowControl::FlowControl(const EngineConfig& config, unsigned num_machines,
                         std::vector<bool> is_rpq_stage)
    : config_(config), num_machines_(num_machines) {
  const auto num_stages = static_cast<unsigned>(is_rpq_stage.size());
  engine_check(num_stages > 0, "flow control needs at least one stage");

  // Per-query credit partition (concurrent serving): this query only
  // sees its share of the machine's buffer allowance. Clamped into
  // (0, 1]; the progress floors below keep any share live.
  partition_share_ = config.credit_partition_share;
  if (!(partition_share_ > 0.0) || partition_share_ > 1.0) {
    partition_share_ = 1.0;
  }
  const auto partitioned_buffers = static_cast<unsigned>(
      static_cast<double>(config.buffers_per_machine) * partition_share_);
  const auto partitioned_shared = static_cast<unsigned>(
      static_cast<double>(config.rpq_shared_credits_per_stage) *
      partition_share_);

  // Partition the per-machine buffer allowance equally among stages and
  // destinations; every (stage, destination) slot gets at least two
  // buffers (one sending, one receiving) as required by §3.3.
  const unsigned slots = num_stages * num_machines;
  per_slot_credits_ =
      std::max(2u, partitioned_buffers / std::max(1u, slots));

  pools_ = std::vector<StagePool>(num_stages);
  for (unsigned s = 0; s < num_stages; ++s) {
    StagePool& pool = pools_[s];
    pool.is_rpq = is_rpq_stage[s];
    pool.overflow_out.resize(num_machines);
    if (pool.is_rpq) {
      // Per-depth dedicated credits up to D; the same per-slot allowance
      // is spread over the depth window.
      pool.window = std::max(1u, config.rpq_preallocated_depth);
      pool.dedicated_init =
          static_cast<int>(std::max(1u, per_slot_credits_ / pool.window));
      // Scaled by the partition share, with a floor of one so the
      // beyond-window depths of even the thinnest partition can move.
      // The floor only revives shares the partition shrank: an
      // explicitly-zero shared allowance (starvation-abort tests, §3.3
      // ablations) stays zero.
      pool.shared_init =
          config.rpq_shared_credits_per_stage == 0
              ? 0
              : static_cast<int>(std::max(1u, partitioned_shared));
      pool.dedicated = std::vector<std::atomic<int>>(
          std::size_t{num_machines} * pool.window);
      for (auto& c : pool.dedicated)
        c.store(pool.dedicated_init, std::memory_order_relaxed);
      pool.shared = std::vector<std::atomic<int>>(num_machines);
      for (auto& c : pool.shared)
        c.store(pool.shared_init, std::memory_order_relaxed);
    } else {
      pool.window = 1;
      pool.dedicated_init = static_cast<int>(per_slot_credits_);
      pool.dedicated = std::vector<std::atomic<int>>(num_machines);
      for (auto& c : pool.dedicated)
        c.store(pool.dedicated_init, std::memory_order_relaxed);
    }
  }
}

bool FlowControl::take(std::atomic<int>& credits) {
  // Speculative decrement: one RMW on success. A transiently negative
  // counter (until the repair below) can only make a concurrent take
  // fail spuriously, which try_acquire treats as back-pressure anyway.
  if (credits.fetch_sub(1, std::memory_order_acquire) > 0) return true;
  credits.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void FlowControl::put(std::atomic<int>& credits, int init) {
  // Overfilling a slot beyond its initial allowance means a release
  // without a matching acquire; repair and report instead of leaking.
  const int prev = credits.fetch_add(1, std::memory_order_release);
  if (prev >= init) {
    credits.fetch_sub(1, std::memory_order_relaxed);
    engine_check(false, "flow control: release without acquire");
  }
}

std::optional<CreditClass> FlowControl::try_acquire(MachineId dest,
                                                    StageId stage,
                                                    Depth depth) {
  engine_check(stage < pools_.size(), "flow control: stage out of range");
  StagePool& pool = pools_[stage];
  if (!pool.is_rpq) {
    if (take(pool.dedicated[dest])) {
      fast_grants_.fetch_add(1, std::memory_order_relaxed);
      return CreditClass::kFixed;
    }
    blocked_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  // RPQ stage: dedicated window first, then the shared pool — both
  // lock-free — then (slow path) one overflow credit per depth.
  if (depth < pool.window &&
      take(pool.dedicated[std::size_t{dest} * pool.window + depth])) {
    fast_grants_.fetch_add(1, std::memory_order_relaxed);
    return CreditClass::kRpqDedicated;
  }
  if (take(pool.shared[dest])) {
    shared_used_.fetch_add(1, std::memory_order_relaxed);
    fast_grants_.fetch_add(1, std::memory_order_relaxed);
    return CreditClass::kRpqShared;
  }
  if (config_.rpq_overflow_credits_per_depth > 0) {
    std::lock_guard lock(mutex_);
    auto& overflow = pool.overflow_out[dest];
    if (overflow.count(depth) == 0) {
      overflow.insert(depth);
      overflow_used_.fetch_add(1, std::memory_order_relaxed);
      return CreditClass::kRpqOverflow;
    }
  }
  blocked_.fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;
}

void FlowControl::poke() {
  std::lock_guard lock(mutex_);
  released_.notify_all();
}

void FlowControl::wait_for_release(std::chrono::microseconds max_wait) {
  std::unique_lock lock(mutex_);
  waiters_.fetch_add(1, std::memory_order_relaxed);
  released_.wait_for(lock, max_wait);
  waiters_.fetch_sub(1, std::memory_order_relaxed);
}

void FlowControl::release(MachineId dest, StageId stage, Depth depth,
                          CreditClass credit) {
  engine_check(stage < pools_.size(), "flow control: stage out of range");
  StagePool& pool = pools_[stage];
  switch (credit) {
    case CreditClass::kFixed:
      put(pool.dedicated[dest], pool.dedicated_init);
      break;
    case CreditClass::kRpqDedicated:
      engine_check(depth < pool.window, "flow control: bad dedicated depth");
      put(pool.dedicated[std::size_t{dest} * pool.window + depth],
          pool.dedicated_init);
      break;
    case CreditClass::kRpqShared:
      put(pool.shared[dest], pool.shared_init);
      break;
    case CreditClass::kRpqOverflow: {
      std::lock_guard lock(mutex_);
      engine_check(pool.overflow_out[dest].erase(depth) == 1,
                   "flow control: release without acquire");
      break;
    }
  }
  // Wake blocked senders only when someone is actually sleeping; their
  // waits are short and timed, so the unlocked check is safe.
  if (waiters_.load(std::memory_order_relaxed) > 0) {
    std::lock_guard lock(mutex_);
    released_.notify_all();
  }
}

FlowControlStats FlowControl::stats() const {
  FlowControlStats s;
  s.fast_path = fast_grants_.load(std::memory_order_relaxed);
  s.blocked = blocked_.load(std::memory_order_relaxed);
  s.shared_used = shared_used_.load(std::memory_order_relaxed);
  s.overflow_used = overflow_used_.load(std::memory_order_relaxed);
  s.acquired = s.fast_path + s.overflow_used;
  return s;
}

std::uint64_t FlowControl::partition_credits() const {
  // Initial allowance actually granted to this partition, after the
  // equal split over slots and the §3.3 floors (buffer credits only —
  // overflow is an elastic valve, not partitioned memory).
  std::uint64_t total = 0;
  for (const auto& pool : pools_) {
    total += static_cast<std::uint64_t>(pool.dedicated_init) *
             pool.dedicated.size();
    total +=
        static_cast<std::uint64_t>(pool.shared_init) * pool.shared.size();
  }
  return total;
}

std::uint64_t FlowControl::overflow_outstanding() const {
  std::uint64_t out = 0;
  std::lock_guard lock(mutex_);
  for (const auto& pool : pools_)
    for (const auto& set : pool.overflow_out)
      out += static_cast<std::uint64_t>(set.size());
  return out;
}

std::uint64_t FlowControl::outstanding() const {
  // Credits in flight = initial allowance minus current level, summed
  // over every slot, plus overflow credits. Meaningful at
  // quiescence (tests); under concurrency it is a best-effort snapshot.
  std::int64_t out = 0;
  for (const auto& pool : pools_) {
    for (const auto& c : pool.dedicated)
      out += pool.dedicated_init - c.load(std::memory_order_relaxed);
    for (const auto& c : pool.shared)
      out += pool.shared_init - c.load(std::memory_order_relaxed);
  }
  {
    std::lock_guard lock(mutex_);
    for (const auto& pool : pools_)
      for (const auto& set : pool.overflow_out)
        out += static_cast<std::int64_t>(set.size());
  }
  return out > 0 ? static_cast<std::uint64_t>(out) : 0;
}

}  // namespace rpqd
