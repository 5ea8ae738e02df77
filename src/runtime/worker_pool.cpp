#include "runtime/worker_pool.h"

namespace rpqd {

WorkerPool::~WorkerPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
    for (const auto& slot : slots_) slot->wake.notify_one();
  }
  for (const auto& slot : slots_) slot->thread.join();
}

void WorkerPool::run(std::size_t n, const Job& job) noexcept {
  if (n == 0) return;
  Batch batch{&job, n, {}};
  std::unique_lock lock(mutex_);
  for (std::size_t i = 0; i < n; ++i) {
    Slot* slot = nullptr;
    if (!idle_.empty()) {
      slot = idle_.back();
      idle_.pop_back();
    } else {
      slot = slots_.emplace_back(std::make_unique<Slot>()).get();
      slot->thread = std::thread([this, slot] { thread_main(*slot); });
    }
    slot->batch = &batch;
    slot->index = i;
    slot->wake.notify_one();
  }
  batch.done.wait(lock, [&] { return batch.left == 0; });
}

std::size_t WorkerPool::size() const {
  std::lock_guard lock(mutex_);
  return slots_.size();
}

void WorkerPool::thread_main(Slot& slot) {
  std::unique_lock lock(mutex_);
  for (;;) {
    slot.wake.wait(lock, [&] { return slot.batch != nullptr || stopping_; });
    if (slot.batch == nullptr) return;
    Batch& batch = *slot.batch;
    lock.unlock();
    (*batch.job)(slot.index);
    lock.lock();
    // Parked before the batch can complete, so the caller's next run()
    // finds this thread idle instead of starting another.
    slot.batch = nullptr;
    idle_.push_back(&slot);
    if (--batch.left == 0) batch.done.notify_one();
  }
}

}  // namespace rpqd
