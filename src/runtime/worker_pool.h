// The engine's persistent worker threads (DESIGN.md §5).
//
// A WorkerPool owns OS threads that live as long as the pool. run(n, job)
// starts job(0) ... job(n-1) at once, each on its own thread, and returns
// when every call has returned. Idle threads park on their own condition
// variable; the destructor joins them all.
//
// The jobs of one batch may block on each other (the workers of one query
// wait on each other's messages, the monitor waits on the workers), so a
// job is never queued behind a busy thread: when fewer threads are idle
// than a batch has jobs, the pool starts more and keeps them. Its size is
// therefore the high-water mark of concurrently running jobs.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace rpqd {

class WorkerPool {
 public:
  using Job = std::function<void(std::size_t)>;

  WorkerPool() = default;
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;
  /// Joins every thread. No run() may be in progress.
  ~WorkerPool();

  /// Calls job(i) for every i in [0, n), each on a dedicated pool thread
  /// and all at once; returns after every call has returned. Safe to call
  /// from several threads concurrently. A throwing job ends the process,
  /// and so does a thread that cannot be started (noexcept): jobs already
  /// handed out hold references into this call's frame.
  void run(std::size_t n, const Job& job) noexcept;

  /// Threads started so far (the high-water mark; none is retired early).
  std::size_t size() const;

 private:
  struct Batch {
    const Job* job;
    std::size_t left;  // calls not yet returned; guarded by mutex_
    std::condition_variable done;
  };
  struct Slot {
    std::condition_variable wake;
    Batch* batch = nullptr;  // the assigned job, or null while idle
    std::size_t index = 0;
    std::thread thread;
  };

  void thread_main(Slot& slot);

  mutable std::mutex mutex_;
  std::vector<Slot*> idle_;  // LIFO: the most recently parked runs next
  bool stopping_ = false;
  std::vector<std::unique_ptr<Slot>> slots_;
};

}  // namespace rpqd
