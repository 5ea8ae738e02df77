// Incremental distributed termination detection (§3.4).
//
// Each machine tracks, per stage: contexts sent, contexts processed, and
// currently-active traversal frames; RPQ stage groups additionally track
// the same triple per depth. Idle machines broadcast status messages (a
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
#include <cstdint>
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
  TerminationDetector(MachineId self, unsigned num_machines,
                      unsigned num_stages, unsigned num_groups);

  // ---- counter updates (called by workers; thread-safe) ----
  void note_sent(StageId stage, int group, Depth depth, std::uint64_t n);
  void note_processed(StageId stage, int group, Depth depth, std::uint64_t n);
  void frame_pushed(StageId stage, int group, Depth depth);
  void frame_popped(StageId stage, int group, Depth depth);
  void set_idle(bool idle) {
    idle_.store(idle, std::memory_order_seq_cst);
  }

  // ---- protocol driving (called by the machine's idle loop) ----
  /// Ingests a received termination status message.
  void on_status(const Message& msg);
  /// Broadcasts the current status when it changed, or unconditionally
  /// when `force` (periodic re-confirmation providing the second wave).
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
  std::pair<std::uint64_t, std::uint64_t> stage_totals(StageId stage) const {
    return {stage_sent_[stage].load(std::memory_order_relaxed),
            stage_processed_[stage].load(std::memory_order_relaxed)};
  }

  /// Status broadcasts this machine actually sent (suppressed no-change
  /// rounds excluded) — the §3.4 protocol-chatter metric the profiler
  /// reports as term_rounds.
  std::uint64_t broadcast_rounds() const {
    return broadcast_rounds_.load(std::memory_order_relaxed);
  }

 private:
  TermStatus build_status(Network& net) const;
  void store_status(MachineId machine, TermStatus status);
  bool machine_stable(MachineId m) const;  // two identical statuses

  MachineId self_;
  unsigned num_machines_;
  unsigned num_stages_;
  unsigned num_groups_;

  // Live counters.
  std::vector<std::atomic<std::uint64_t>> stage_sent_;
  std::vector<std::atomic<std::uint64_t>> stage_processed_;
  std::vector<std::atomic<std::int64_t>> stage_active_;
  mutable std::mutex group_mutex_;
  std::vector<std::vector<std::array<std::uint64_t, 3>>> group_counters_;
  std::atomic<bool> idle_{false};

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
