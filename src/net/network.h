// Simulated cluster fabric: per-machine inboxes with the paper's pickup
// priority, and a Network object that models the interconnect.
//
// Delivery is a thread-safe push into the destination inbox — the
// simulation's stand-in for the paper's InfiniBand + dedicated receiver
// threads. DONE messages are handled at delivery time (credits return to
// the local FlowControl immediately, as a receiver thread would do);
// data messages queue in a priority heap ordered by (depth desc, stage
// desc), implementing §3.2's "larger depth first, later stage first";
// termination broadcasts queue separately and are drained by idle workers.
//
// Fault injection (common/fault.h): under an active FaultPlan the fabric
// becomes adversarial-but-reliable. Network::send stamps every message
// with a unique sequence number and may deliver a bounded duplicate;
// the receiving inbox dedups data/DONE messages by seq (the transport's
// exactly-once guarantee) and may divert them into a "limbo" buffer for
// 1..window pickup ticks, reordering deliveries and jittering credit
// returns. A pickup tick is one try_pop_data call — the clock every
// worker advances whenever it polls, so limbo always drains as long as
// the query is live. Termination statuses are duplicated verbatim (never
// deduped or delayed): the §3.4 protocol must tolerate them by itself.
//
// Reliable delivery (DESIGN.md §13): when the plan is lossy() — or
// EngineConfig::reliable_transport forces it — the fabric can drop or
// corrupt transmission attempts, and the Network layers a reliable
// transport on top: per-link monotone sequence numbers with a
// sender-side unacked ring, CRC32 payload checksums (a corrupt copy is
// detected and dropped, observably identical to loss), cumulative +
// selective acks piggybacked on reverse traffic (standalone kAck after
// an idle timeout), and retransmission with seeded exponential backoff
// driven by the pump tick clock. A link whose messages exhaust
// max_retransmits with zero ack progress is declared dead and escalates
// into the AbortReason::kMachineFailure path — a typed retryable abort,
// never a hang. Pump ticks advance only inside Network::pump, which
// every worker calls once per main-loop / credit-wait iteration; any
// live worker services every link's timers and every inbox's owed acks
// (shared-memory simulation: thread identity is already blurred — the
// sender's thread executes the receiver's push).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/abort.h"
#include "common/counters.h"
#include "common/fault.h"
#include "common/queue.h"
#include "net/flow_control.h"
#include "net/message.h"

namespace rpqd {

class Inbox {
 public:
  /// DONE messages release credits on this flow control at delivery time.
  void attach_flow_control(FlowControl* fc) { flow_ = fc; }

  /// Ablation knob (§3.2): false switches pickup to FIFO order instead
  /// of the deepest-depth / latest-stage priority. Set before any push.
  void set_deep_priority(bool enabled) { deep_priority_ = enabled; }

  /// Arms fault injection for this inbox (receiver side: dedup, delay,
  /// stalls, crash-stop). `self` selects the per-machine slowdown and
  /// crash target; `num_machines` resolves a seed-selected crash. Set
  /// before any push; a plan with no active knob leaves the fast path
  /// untouched.
  void configure_faults(const FaultPlan& plan, MachineId self,
                        unsigned num_machines);

  /// Only messages stamped with this query epoch are accepted (0 = no
  /// check). In-flight data of an aborted run can never leak into a
  /// later query: its epoch no longer matches.
  void set_epoch(std::uint32_t epoch) { epoch_ = epoch; }

  /// Arms receiver-side reliable delivery (DESIGN.md §13): per-source
  /// link-seq dedup windows, CRC verification, and ack-owed tracking.
  /// `clock` is the Network's pump tick counter (read-only here), used
  /// to timestamp owed acks. `undelivered` is the Network's count of
  /// stamped-but-not-yet-delivered kData/kTermination messages; this
  /// inbox decrements it when it accepts such a message for the first
  /// time. Call before any push.
  void arm_reliable(unsigned num_machines,
                    const std::atomic<std::uint64_t>* clock,
                    std::atomic<std::uint64_t>* undelivered);

  // ---- cooperative abort (common/abort.h) ----
  /// This machine's view of the query abort, set on receipt of a kAbort
  /// control message (the wire propagation of the abort protocol) —
  /// workers poll it at the same points they poll flow-control credits.
  bool aborted() const {
    return abort_reason_.load(std::memory_order_relaxed) != 0;
  }
  AbortReason abort_reason() const {
    return static_cast<AbortReason>(
        abort_reason_.load(std::memory_order_acquire));
  }
  /// Crash-stop: true once this machine's fault clock hit the plan's
  /// crash tick. A crashed machine executes nothing further; the fabric
  /// blackholes data sent to it (with synthesized DONE completions).
  bool crashed() const {
    return crashed_.load(std::memory_order_acquire);
  }

  void push(Message msg);

  /// Pops the highest-priority data message: larger depth first, then
  /// later stage first (§3.2 messaging rules); FIFO in ablation mode.
  /// Under fault injection this is also the limbo clock: each call is
  /// one tick, releasing due delayed messages before popping.
  std::optional<Message> try_pop_data();

  std::optional<Message> try_pop_term();

  bool has_data() const;
  std::size_t data_size() const;
  /// Data messages from machine `src` accepted into the pickup heap so
  /// far: the receive half of the §3.4 link counts (TerminationDetector).
  /// Read without the inbox lock.
  std::uint64_t delivered_from(MachineId src) const {
    return delivered_from_[src].load(std::memory_order_seq_cst);
  }

  /// This machine's buffered-byte high-water mark. Per-query by
  /// construction (the engine builds a fresh Network per run); it is
  /// MachineCounters::peak_queued_bytes, folded across machines by max.
  std::uint64_t peak_queued_bytes() const {
    return peak_queued_bytes_.load(std::memory_order_relaxed);
  }
  std::uint64_t queued_bytes() const {
    return queued_bytes_.load(std::memory_order_relaxed);
  }

  /// Post-run: force-deliver everything still in limbo (delayed DONEs
  /// release their credits; delayed data would be a termination-protocol
  /// violation and throws). The engine calls this after workers join so
  /// credit-leak checks see the fabric fully drained.
  void drain_faults();

  /// Post-abort variant: delivers limbo DONEs (credits!) and returns
  /// every undelivered data message — heap and limbo alike — so the
  /// engine can release the senders' credits and count the discarded
  /// contexts. Unlike drain_faults, stranded data is expected here: an
  /// aborted or crashed machine stops consuming its inbox.
  std::vector<Message> drain_aborted();

  // ---- reliable delivery, receiver side (DESIGN.md §13) ----

  /// Fills the cumulative + selective ack fields describing what this
  /// inbox has received from `src`, and clears the owed-ack flag for
  /// that link (the ack is about to ride out on some message).
  void fill_ack(MachineId src, std::uint64_t& ack_cum,
                std::uint64_t& ack_bits);

  /// Whether this inbox owes `src` an ack (received something from it
  /// that no ack has carried back yet).
  bool owes_ack(MachineId src) const;

  /// Links whose owed ack has aged past `idle_ticks` without reverse
  /// traffic to piggyback on; the caller emits standalone kAcks.
  std::vector<MachineId> take_due_acks(std::uint64_t now,
                                       std::uint64_t idle_ticks);

  /// Whether (src, link_seq) was ever accepted by this inbox — the
  /// post-run ground truth that lets Network::drain_reliable resolve
  /// unacked ring entries without double-applying their effects.
  bool reliable_delivered(MachineId src, std::uint64_t link_seq) const;

 private:
  // Network sizes delivered_from_, wires counters_, and delivers stranded
  // DONE credits in drain_reliable.
  friend class Network;
  struct Entry {
    Message msg;
    std::uint64_t seq = 0;  // FIFO tiebreak / FIFO-mode key
  };

  struct Limbo {
    Message msg;
    std::uint64_t release_tick = 0;
  };

  // Max-heap order: priority mode compares (depth, stage), FIFO mode
  // compares arrival order (older first).
  bool before(const Entry& a, const Entry& b) const {
    if (deep_priority_) {
      if (a.msg.header.depth != b.msg.header.depth) {
        return a.msg.header.depth < b.msg.header.depth;
      }
      if (a.msg.header.stage != b.msg.header.stage) {
        return a.msg.header.stage < b.msg.header.stage;
      }
    }
    return a.seq > b.seq;  // older messages win ties / FIFO mode
  }

  // Reliable-delivery receiver state, one per source machine. Guarded by
  // rx_mutex_ (never held together with mutex_; push takes rx_mutex_,
  // releases it, then takes mutex_ for the heap).
  struct LinkRx {
    std::uint64_t cum = 0;            // every link_seq <= cum received
    std::set<std::uint64_t> ooo;      // received out of order, > cum
    bool ack_owed = false;
    std::uint64_t owed_since = 0;     // pump tick the debt started
  };

  /// Dedup + receipt recording for a sequenced message; counts
  /// dedup_drops and re-marks the owed ack on a duplicate (a duplicate
  /// usually means the previous ack was lost). Returns false to drop.
  bool reliable_accept(MachineId src, std::uint64_t link_seq);

  // Fault internals (mutex_ held unless stated otherwise).
  bool fault_dedup_or_delay(Message& msg);  // true=consumed
  void fault_tick();  // advance clock, release due limbo
  void heap_insert(Message msg);
  void deliver_done(const Message& msg);  // lock-free (flow control only)
  // Counts an accepted data message (fabric totals plus this inbox's
  // buffered bytes) at the moment it reaches this machine.
  void count_data_arrival(const Message& msg);
  // Buffered-byte accounting of this inbox.
  void account_queued(std::uint64_t bytes);
  void account_dequeued(std::uint64_t bytes);

  NetCounters* counters_ = nullptr;  // the owning Network's
  std::atomic<std::uint64_t> queued_bytes_{0};
  std::atomic<std::uint64_t> peak_queued_bytes_{0};
  mutable std::mutex mutex_;
  std::vector<Entry> heap_;
  // Per source; written under mutex_, read lock-free.
  std::vector<std::atomic<std::uint64_t>> delivered_from_;
  std::uint64_t next_seq_ = 0;
  bool deep_priority_ = true;
  MpmcQueue<Message> term_;
  FlowControl* flow_ = nullptr;

  // Abort / crash state. One relaxed load per worker poll.
  std::atomic<std::uint8_t> abort_reason_{0};
  std::atomic<bool> crashed_{false};
  bool crash_armed_ = false;
  std::uint64_t crash_tick_ = 0;
  std::uint32_t epoch_ = 0;

  // Fault state. `faults_on_` is the single branch the fault-free fast
  // path pays; everything below is untouched without a plan.
  bool faults_on_ = false;
  bool slow_machine_ = false;
  // Reliable-delivery receiver state (armed by arm_reliable).
  bool reliable_on_ = false;
  mutable std::mutex rx_mutex_;
  std::vector<LinkRx> rx_;
  const std::atomic<std::uint64_t>* reliable_clock_ = nullptr;
  std::atomic<std::uint64_t>* reliable_undelivered_ = nullptr;
  FaultPlan plan_;
  MachineId self_ = 0;
  std::uint64_t tick_ = 0;
  std::vector<Limbo> limbo_;
  std::size_t limbo_data_ = 0;  // data messages currently in limbo
  std::unordered_set<std::uint64_t> seen_;  // transport dedup (data+DONE)
};

/// Knobs of the reliable-delivery layer, mirrored from EngineConfig by
/// the engine (the Network constructor never sees an EngineConfig).
struct ReliableConfig {
  bool enabled = false;
  unsigned max_retransmits = 20;
  std::uint64_t retransmit_timeout_ticks = 128;
  std::uint64_t ack_idle_ticks = 16;
};

/// The interconnect: owns one inbox per machine plus global statistics.
class Network {
 public:
  explicit Network(unsigned num_machines)
      : inboxes_(num_machines),
        data_sent_(std::size_t{num_machines} * num_machines) {
    for (auto& inbox : inboxes_) {
      inbox.delivered_from_ =
          std::vector<std::atomic<std::uint64_t>>(num_machines);
      inbox.counters_ = &counters_;
    }
  }

  unsigned num_machines() const {
    return static_cast<unsigned>(inboxes_.size());
  }

  /// Arms fault injection on the sender side (sequence stamping and
  /// bounded duplication) and on every inbox. Resolves a seed-selected
  /// crash machine (crash_machine == -2) to a concrete id. Call before
  /// any traffic.
  void set_fault_plan(const FaultPlan& plan);
  const FaultPlan& fault_plan() const { return plan_; }

  /// Arms the reliable-delivery layer (DESIGN.md §13) on sender and
  /// receiver sides. Call after set_fault_plan and before any traffic.
  /// With cfg.enabled false and a non-lossy plan this is a no-op and the
  /// transport is byte-for-byte the pre-§13 one.
  void configure_reliability(const ReliableConfig& cfg);
  bool reliable() const { return reliable_on_; }

  /// True when no sequenced count-bearing or status message (kData,
  /// kTermination) is sitting in a retransmission ring awaiting first
  /// delivery. The §3.4 termination decision gates on this: the
  /// two-wave stability argument assumes every broadcast issued before
  /// the decision instant has been delivered (and therefore ingested by
  /// the decider's status pop loop), which a lossy fabric only
  /// guarantees once the retransmission backlog is empty. kDone credit
  /// returns are deliberately excluded — they carry no termination
  /// counters and the post-run drain reconciles stragglers. Always true
  /// on a non-reliable fabric.
  bool quiescent() const {
    return seq_undelivered_.load(std::memory_order_seq_cst) == 0;
  }

  /// Number of stamped kData/kTermination messages not yet delivered to
  /// their inbox (diagnostics; `quiescent()` is this reaching zero).
  std::uint64_t undelivered_count() const {
    return seq_undelivered_.load(std::memory_order_seq_cst);
  }

  /// Escalation target for dead links: a link that exhausts its
  /// retransmit budget requests AbortReason::kMachineFailure here (and
  /// broadcasts it), converting a partitioned/dead fabric into a typed
  /// retryable abort instead of a hang. Optional — without a controller
  /// the dead link is only recorded and the post-run drain still
  /// reconciles its credits.
  void attach_abort(AbortController* abort) { abort_ = abort; }

  /// One reliability tick: every worker calls this once per main-loop
  /// and per credit-wait iteration. Advances the cluster-global tick
  /// clock and services (striding across calls) standalone owed acks,
  /// due retransmissions on every link, and kAbort re-broadcast to
  /// machines that lost the first copy. No-op when reliability is off.
  void pump(MachineId self);

  /// Post-run (workers joined): resolves every entry still in the
  /// unacked rings. Delivered-but-unacked entries are skipped (their
  /// effects are in the inboxes already); an undelivered DONE has its
  /// credit delivered now (clean termination proves sent == processed,
  /// not credits-home, so a lost in-flight DONE is legal); undelivered
  /// data — possible only on aborted runs — is returned with its
  /// destination so the engine can release the sender's credit and
  /// count the discarded contexts, exactly like drain_aborted leftovers.
  std::vector<std::pair<MachineId, Message>> drain_reliable();

  /// Stamps every subsequent send with this query epoch and arms the
  /// inboxes' stale-epoch filter.
  void set_epoch(std::uint32_t epoch);

  /// Whether this run's plan arms a crash (plan crash mode and the run
  /// index matches) — the engine starts its failure-detector monitor
  /// only when true.
  bool crash_armed() const {
    return plan_.crash_enabled() && plan_.run_index == plan_.crash_run;
  }

  /// True once any machine's crash tick fired (the engine's monitor
  /// polls this as the simulated failure detector).
  bool any_crashed() const {
    for (const auto& inbox : inboxes_) {
      if (inbox.crashed()) return true;
    }
    return false;
  }

  /// Pushes a kAbort control message to every inbox. Control-channel
  /// priority: never delayed, deduped, or duplicated by fault injection.
  void broadcast_abort(AbortReason reason);

  void send(MachineId dest, Message msg);

  Inbox& inbox(MachineId m) { return inboxes_[m]; }
  /// Data messages machine `from` has handed to send() for `to`: the
  /// send half of the §3.4 link counts (TerminationDetector).
  std::uint64_t data_sent(MachineId from, MachineId to) const {
    return data_sent_[std::size_t{from} * inboxes_.size() + to].n.load(
        std::memory_order_seq_cst);
  }
  /// This run's fabric counters. Workers bump them concurrently; read
  /// them only once the workers have joined.
  const NetCounters& counters() const { return counters_; }

 private:
  // Sender-side unacked ring, one per directed (from, to) link. Each
  // link has its own mutex; no two link mutexes are ever held at once,
  // and a link mutex is never held across a push (lock, mutate, unlock,
  // then transmit).
  struct Pending {
    Message msg;                    // pristine copy for retransmission
    unsigned attempts = 0;          // transmissions so far
    // Pump tick of the next retransmit. The timer starts when the first
    // transmission returns (start_retry_timer), not at stamping: a
    // sender descheduled in between must not time out its own message.
    std::uint64_t next_retry = kTimerUnarmed;
    bool dead = false;              // budget exhausted; stop retrying
  };
  static constexpr std::uint64_t kTimerUnarmed = ~std::uint64_t{0};
  struct LinkTx {
    std::mutex mutex;
    std::uint64_t next_seq = 0;
    std::map<std::uint64_t, Pending> pending;
  };

  /// True for message types that get a link_seq + crc + ring entry.
  static bool sequenced(MessageType type) {
    return type == MessageType::kData || type == MessageType::kDone ||
           type == MessageType::kTermination;
  }
  LinkTx& tx(MachineId from, MachineId to) {
    return tx_[static_cast<std::size_t>(from) * inboxes_.size() + to];
  }
  /// Assigns the link_seq, computes the CRC, and stores the pristine
  /// copy in the unacked ring.
  void stamp_reliable(MachineId dest, Message& msg);
  /// Arms the retransmit timer of (from, to, link_seq) once its first
  /// transmission has returned; a no-op when an ack already erased it.
  void start_retry_timer(MachineId from, MachineId to,
                         std::uint64_t link_seq);
  /// Emits a standalone kAck from `ower` to `peer` on the receiver's
  /// behalf (through the fabric, so a lossy link can drop it).
  void send_ack(MachineId ower, MachineId peer);
  /// One transmission attempt: refresh piggybacked acks, roll loss /
  /// corruption for this attempt, apply the (surviving) acks to the
  /// reverse link's ring, then deliver. kAck terminates here.
  void transmit(MachineId dest, Message msg);
  /// Applies an ack about messages `from` sent `to`: erases acked ring
  /// entries and, on any progress, refunds the retransmit budget of the
  /// link's remaining entries (tick rates vary wildly between busy and
  /// idle phases — only a link with zero progress may be declared dead).
  void ack_apply(MachineId from, MachineId to, std::uint64_t cum,
                 std::uint64_t bits);
  /// Retransmission timer service for one link; escalates a dead link.
  void scan_link(MachineId from, MachineId to, std::uint64_t now);
  void escalate_dead_link();
  std::uint64_t backoff_ticks(MachineId from, MachineId to,
                              std::uint64_t link_seq,
                              unsigned attempts) const;

  std::vector<Inbox> inboxes_;
  // Data messages handed to send(), [from * num_machines + to]. One
  // cache line per link: the workers of different machines, and those
  // sending to different peers, never bounce a shared line.
  struct alignas(64) LinkCount {
    std::atomic<std::uint64_t> n{0};
  };
  std::vector<LinkCount> data_sent_;
  NetCounters counters_;
  FaultPlan plan_;
  bool faults_on_ = false;
  std::uint32_t epoch_ = 0;
  std::atomic<std::uint64_t> send_seq_{0};

  // Reliable-delivery sender state.
  bool reliable_on_ = false;
  bool lossy_ = false;  // loss/corrupt injection armed (plan_.lossy())
  ReliableConfig rcfg_;
  std::vector<LinkTx> tx_;  // row-major (from * N + to)
  std::atomic<std::uint64_t> pump_tick_{0};
  std::atomic<std::uint64_t> xmit_seq_{0};  // per-attempt fault-roll key
  // Stamped kData/kTermination messages not yet accepted by their
  // destination inbox (see quiescent()).
  std::atomic<std::uint64_t> seq_undelivered_{0};
  AbortController* abort_ = nullptr;
  // Loss-tolerant kAbort: the pending reason re-broadcast by pump until
  // every live inbox has observed it (the inbox's aborted flag is the
  // implicit ack; the CAS there makes re-delivery idempotent).
  std::atomic<std::uint8_t> abort_pending_{0};
};

}  // namespace rpqd
