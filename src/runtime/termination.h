// Incremental distributed termination detection (§3.4).
//
// Each machine tracks, per stage: contexts sent, contexts processed, and
// currently-active traversal frames; RPQ stage groups additionally track
// the same triple per depth. Each worker counts into its own lane
// (frames pushed and popped rather than active frames), and a status sums
// the lanes. Idle machines broadcast status messages (a
// sequence number, the idle flag, and all counters). Termination is
// decided purely from received statuses — no shared state — using the
// classic two-wave stability argument: a stage is globally terminated
// when every machine reported the same stage counters in two consecutive
// statuses, the global sent/processed sums match, no frames are active at
// the stage, and all preceding stages have terminated. The query as a
// whole terminates only when, in addition, every link's data-message
// counts agree: what each machine counted as sent to a peer, the peer
// counted as delivered (a consistent cut — see globally_terminated()).
//
// For unbounded RPQs, statuses carry each machine's maximum locally
// observed depth (implicitly: the length of its per-depth counter
// vector). Once every machine is stable and idle, the maximum over all
// reports is the consensus maximum depth (§3.4 "Unbounded RPQs").
//
// Loss tolerance: status broadcasts are kTermination messages, which the
// §13 reliable-delivery layer sequences, checksums, and retransmits until
// acked — a dropped or corrupted status is re-delivered in order, so the
// two-wave stability argument holds unmodified over a lossy fabric. The
// periodic forced re-broadcast (`maybe_broadcast(force=true)`) remains as
// the protocol-level second confirmation wave; it is not a substitute for
// transport retransmission (it sends the *current* counters, not the
// in-flight snapshot a peer's decision may be waiting on).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "net/network.h"

namespace rpqd {

/// One machine's broadcast status snapshot.
struct TermStatus {
  std::uint64_t seq = 0;
  bool idle = false;
  /// Per stage: {sent, processed, active frames}.
  std::vector<std::array<std::uint64_t, 3>> stages;
  /// Per RPQ group, per depth: {sent, processed, active frames}. The
  /// vector length doubles as the machine's max observed depth + 1.
  std::vector<std::vector<std::array<std::uint64_t, 3>>> groups;
  /// Per peer machine: {data messages sent to it, data messages
  /// delivered from it} (Network::data_sent, Inbox::delivered_from).
  std::vector<std::array<std::uint64_t, 2>> links;

  bool counters_equal(const TermStatus& other) const {
    return idle == other.idle && stages == other.stages &&
           groups == other.groups && links == other.links;
  }
};

class TerminationDetector {
 public:
  /// One worker's §3.4 counters. Only its worker writes a lane, so an
  /// update is a relaxed load plus a release store on memory no other
  /// thread writes: no lock and no read-modify-write. build_status sums
  /// the lanes (DESIGN.md §5). The lane is cache-line aligned, and so is
  /// every counter block it owns, so workers never share a written line.
  class alignas(64) Lane {
   public:
    Lane(unsigned num_stages, unsigned num_groups);
    ~Lane();
    Lane(const Lane&) = delete;
    Lane& operator=(const Lane&) = delete;

    void note_sent(StageId stage, int group, Depth depth, std::uint64_t n) {
      add(stage, group, depth, kSent, n);
    }
    void note_processed(StageId stage, int group, Depth depth,
                        std::uint64_t n) {
      add(stage, group, depth, kProcessed, n);
    }
    void frame_pushed(StageId stage, int group, Depth depth) {
      add(stage, group, depth, kPushed, 1);
    }
    void frame_popped(StageId stage, int group, Depth depth);

   private:
    friend class TerminationDetector;
    enum Field : unsigned { kSent, kProcessed, kPushed, kPopped };
    /// Monotonic counters of one stage, or of one (group, depth).
    using Counters = std::array<std::atomic<std::uint64_t>, 4>;
    struct alignas(64) Line {
      Counters at[2]{};
    };
    /// Per-depth counters of one RPQ group: geometrically sized chunks
    /// (chunk k holds kFirstChunk << k depths) that never move, so a
    /// reader never sees a resize. The owner publishes a chunk and then
    /// `extent` with release stores.
    static constexpr Depth kFirstChunk = 32;
    static constexpr unsigned kChunks = 28;  // covers every Depth value
    struct Depths {
      std::atomic<Depth> extent{0};  // depths touched: max depth + 1
      std::array<std::atomic<Line*>, kChunks> chunks{};
    };

    static unsigned chunk_of(Depth depth) {
      return static_cast<unsigned>(std::bit_width(depth / kFirstChunk + 1)) -
             1;
    }
    static std::uint64_t chunk_size(unsigned k) {
      return std::uint64_t{kFirstChunk} << k;
    }
    static Depth chunk_base(unsigned k) {
      return static_cast<Depth>(chunk_size(k) - kFirstChunk);
    }
    static Counters& slot(Line* lines, std::size_t i) {
      return lines[i / 2].at[i % 2];
    }
    static const Counters& slot(const Line* lines, std::size_t i) {
      return lines[i / 2].at[i % 2];
    }
    static void bump(std::atomic<std::uint64_t>& c, std::uint64_t n) {
      c.store(c.load(std::memory_order_relaxed) + n,
              std::memory_order_release);
    }
    static std::uint64_t read(const Counters& c, Field f) {
      return c[f].load(std::memory_order_acquire);
    }

    void add(StageId stage, int group, Depth depth, Field f,
             std::uint64_t n) {
      bump(slot(stages_.data(), stage)[f], n);
      if (group >= 0) bump(depth_counters(group, depth, f)[f], n);
    }
    /// Owner only: the counters of (group, depth), growing the chunks
    /// first when `depth` is new (which a pop never is).
    Counters& depth_counters(int group, Depth depth, Field f);
    /// Reader: calls fn(depth, counters) for every depth below `extent`
    /// (an extent this reader loaded from the group with acquire).
    template <class Fn>
    void for_each_depth(unsigned group, Depth extent, Fn&& fn) const;

    std::vector<Line> stages_;
    std::vector<Depths> groups_;
  };

  TerminationDetector(MachineId self, unsigned num_machines,
                      unsigned num_stages, unsigned num_groups,
                      unsigned num_lanes = 1);

  /// Worker `w`'s counter lane (w < num_lanes). Counter updates go
  /// through the lane, from its worker's thread only.
  Lane& lane(unsigned w) { return *lanes_[w]; }

  void set_idle(bool idle) {
    idle_.store(idle, std::memory_order_seq_cst);
  }

  // ---- protocol driving (called by the machine's idle loop) ----
  /// Ingests a received termination status message.
  void on_status(const Message& msg);
  /// Broadcasts the current status when it changed, or unconditionally
  /// when `force` (periodic re-confirmation providing the second wave).
  /// One thread at a time. An unchanged, unforced round allocates
  /// nothing: the status is built into a reused scratch buffer.
  void maybe_broadcast(Network& net, bool force);

  // ---- decisions (computed from received statuses only) ----
  bool globally_terminated() const;
  /// Number of leading stages known to be globally terminated.
  unsigned terminated_stage_prefix() const;
  /// True when depth `d` of RPQ group `g` has globally terminated.
  bool depth_terminated(unsigned group, Depth depth) const;
  /// §3.4 consensus on the maximum observed depth of group `g`; set once
  /// every machine is stable and idle.
  std::optional<Depth> consensus_max_depth(unsigned group) const;
  /// Compact one-line summary of the stored per-machine statuses
  /// (diagnostics; used by the RPQD_TERM_DEBUG idle-loop dump).
  std::string debug_string() const;

  Depth local_max_depth(unsigned group) const;

  /// Per-stage (sent, processed) remote-context totals of this machine —
  /// feeds the EXPLAIN ANALYZE stage breakdown.
  std::pair<std::uint64_t, std::uint64_t> stage_totals(StageId stage) const;

  /// Status broadcasts this machine actually sent (suppressed no-change
  /// rounds excluded) — the §3.4 protocol-chatter metric the profiler
  /// reports as term_rounds.
  std::uint64_t broadcast_rounds() const {
    return broadcast_rounds_.load(std::memory_order_relaxed);
  }

 private:
  friend class TerminationDetectorTestPeer;

  /// Sums the lanes into `scratch_`, keeping its capacity.
  void build_status(Network& net);
  /// Files status `seq` of `machine` unless it is a duplicate or stale;
  /// `fill` writes its counters into a recycled TermStatus.
  template <class Fill>
  void store_status(MachineId machine, std::uint64_t seq, Fill&& fill);
  bool machine_stable(MachineId m) const;  // two identical statuses

  MachineId self_;
  unsigned num_machines_;
  unsigned num_stages_;
  unsigned num_groups_;

  // Live counters, one single-writer lane per worker.
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::atomic<bool> idle_{false};
  TermStatus scratch_;  // build_status output, reused every round

  // Received statuses: last two per machine.
  mutable std::mutex status_mutex_;
  std::vector<std::optional<TermStatus>> last_;
  std::vector<std::optional<TermStatus>> prev_;
  TermStatus last_broadcast_;
  bool broadcast_valid_ = false;
  std::uint64_t seq_ = 0;
  std::atomic<std::uint64_t> broadcast_rounds_{0};
};

}  // namespace rpqd
