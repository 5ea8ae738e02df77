// Credit-based flow control (§3.3).
//
// Each machine owns a fixed allowance of message buffers, partitioned
// equally among stages and destination machines. RPQ stages additionally
// partition their buffers per depth up to a preconfigured depth D;
// depths >= D draw from a small shared pool per path stage, and a bounded
// number of overflow credits (one per observed depth) break the livelock
// where a path stage is blocked at depth D but credits only free up after
// matching at depth > D.
//
// A credit is acquired before sending to a destination machine and
// released when that machine reports the buffer processed (DONE message).
// Under a lossy fault plan a DONE can be dropped or corrupted in flight;
// the §13 reliable-delivery layer sequences and retransmits it, so a
// blocked sender recovers once the retransmission lands (the blocked
// acquire loop pumps the transport timers while it waits). A link that
// never recovers escalates to a machine-failure abort rather than
// starving the sender forever; the starvation-abort deadline here is an
// independent, coarser backstop and is unchanged.
//
// Hot path: dedicated and shared credits live in flat arrays of atomic
// counters indexed by (stage, destination, depth); acquire and release
// are single compare-and-swap / fetch-add operations with no lock. The
// mutex only covers the overflow slow path (a per-destination depth set,
// touched when both pools are exhausted) and the blocked-sender
// condition variable. Fast-path grants are counted in `fast_path`.
//
// Per-query credit partitions (concurrent serving): when the engine
// serves several queries at once, each query's FlowControl instance is
// built over `buffers_per_machine * credit_partition_share` of the
// machine's buffer allowance instead of all of it, with the RPQ shared
// pool scaled the same way. Partitions are disjoint by construction
// (each query has its own instance over its own slice), so a deep query
// that exhausts its partition blocks only itself — the §3.3 back-off
// behavior — while a cheap concurrent query's credits are untouched.
// Every partition keeps the §3.3 floor of two credits per (stage,
// destination) slot plus at least one RPQ shared/overflow credit, so an
// arbitrarily small share degrades throughput but never liveness.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_set>
#include <vector>

#include "common/config.h"
#include "net/message.h"

namespace rpqd {

struct FlowControlStats {
  std::uint64_t acquired = 0;
  std::uint64_t blocked = 0;        // try_acquire failures (§4.2 metric)
  std::uint64_t shared_used = 0;
  std::uint64_t overflow_used = 0;
  std::uint64_t fast_path = 0;      // grants served without taking the lock
};

class FlowControl {
 public:
  /// `is_rpq_stage[s]` marks path/control stages (they use the RPQ
  /// partitioning); other stages use the fixed per-(stage,machine) pools.
  FlowControl(const EngineConfig& config, unsigned num_machines,
              std::vector<bool> is_rpq_stage);

  /// Tries to take one send credit for (dest, stage, depth). Returns the
  /// credit class consumed, or nullopt when the caller must back off and
  /// process incoming work instead (pickup rule iii of §3.2).
  std::optional<CreditClass> try_acquire(MachineId dest, StageId stage,
                                         Depth depth);

  /// Returns a credit (on receipt of the matching DONE message).
  void release(MachineId dest, StageId stage, Depth depth, CreditClass credit);

  /// Blocks up to `max_wait` for any credit release, so blocked senders
  /// wake immediately when a DONE returns instead of polling.
  void wait_for_release(std::chrono::microseconds max_wait);

  /// Wakes every sender sleeping in wait_for_release without releasing
  /// anything — the abort path's kick, so a worker blocked on credits
  /// re-polls its halt flag immediately instead of after the timeout.
  void poke();

  FlowControlStats stats() const;

  /// The credit-partition share this instance was built with (see the
  /// header comment; 1.0 outside concurrent serving).
  double partition_share() const { return partition_share_; }
  /// Buffer credits this partition actually holds per machine after
  /// scaling and the §3.3 progress floors (for tests and stats).
  std::uint64_t partition_credits() const;

  /// Total credits currently outstanding (for leak checks in tests).
  std::uint64_t outstanding() const;

  /// Overflow credits currently in flight (sum of the per-destination
  /// in-use depth sets). Must be zero once a query finishes — every
  /// overflow grant is matched by a DONE before termination can fire —
  /// so tests audit this after each run, including aborted/faulted ones.
  std::uint64_t overflow_outstanding() const;

 private:
  struct StagePool {
    bool is_rpq = false;
    unsigned window = 1;  // dedicated depths per destination (1 for fixed)
    int dedicated_init = 0;  // initial credits per dedicated slot
    int shared_init = 0;     // initial credits per shared slot
    // Flat atomic counters. Fixed stages: `dedicated[dest]`. RPQ stages:
    // `dedicated[dest * window + depth]` for depth < window, plus a
    // shared counter per destination.
    std::vector<std::atomic<int>> dedicated;
    std::vector<std::atomic<int>> shared;                 // [dest]
    // Slow path, guarded by mutex_: at most one overflow credit in
    // flight per (dest, depth).
    std::vector<std::unordered_set<Depth>> overflow_out;  // [dest] in-use
  };

  // Lock-free decrement-if-positive (speculative fetch_sub + repair);
  // the acquire-side fast-path primitive.
  static bool take(std::atomic<int>& credits);
  // Release side: fetch_add with overfill detection against `init`, so a
  // spurious release still throws without any global outstanding count.
  static void put(std::atomic<int>& credits, int init);

  mutable std::mutex mutex_;          // overflow sets + sleeping senders only
  std::condition_variable released_;
  std::atomic<unsigned> waiters_{0};
  EngineConfig config_;
  unsigned num_machines_;
  std::vector<StagePool> pools_;
  unsigned per_slot_credits_ = 2;
  double partition_share_ = 1.0;
  // Cumulative lock-free grants: the ONE global counter the fast path
  // touches (releases touch only the slot counter). `acquired` is
  // derived in stats(); `outstanding` is summed from the slot levels.
  std::atomic<std::uint64_t> fast_grants_{0};
  // Slow-path / fallback / failure counters (the dedicated-credit grant,
  // the common case, touches none of these).
  std::atomic<std::uint64_t> blocked_{0};
  std::atomic<std::uint64_t> shared_used_{0};
  std::atomic<std::uint64_t> overflow_used_{0};
};

}  // namespace rpqd
