#include "net/network.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/crc32.h"
#include "common/error.h"

namespace rpqd {

void Inbox::account_queued(std::uint64_t bytes) {
  const auto now =
      queued_bytes_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  auto peak = peak_queued_bytes_.load(std::memory_order_relaxed);
  while (now > peak && !peak_queued_bytes_.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
}

void Inbox::count_data_arrival(const Message& msg) {
  const auto bytes = static_cast<std::uint64_t>(msg.payload.size());
  bump(counters_->data_messages);
  bump(counters_->contexts_sent, msg.header.count);
  bump(counters_->bytes_sent, bytes);
  account_queued(bytes);
}

void Inbox::account_dequeued(std::uint64_t bytes) {
  const auto prev = queued_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  // Accounting audit: every dequeue must be covered by a prior enqueue.
  // An underflow means a message was popped twice or its payload mutated
  // between queue and dequeue; the wrapped counter would otherwise
  // poison peak_queued_bytes silently.
  engine_check(prev >= bytes, "inbox queued_bytes underflow on dequeue");
}

void Inbox::configure_faults(const FaultPlan& plan, MachineId self,
                             unsigned num_machines) {
  plan_ = plan;
  self_ = self;
  faults_on_ = plan.any();
  slow_machine_ =
      faults_on_ && plan.stall_max_us > 0 &&
      fault_roll(fault_hash(plan.seed, self, kFaultSaltSlowMachine),
                 plan.slow_machine_fraction);
  // Crash-stop arming: this machine dies at crash_tick_ iff it is the
  // plan's (possibly seed-selected) victim AND the plan's run index
  // matches — crash-stop is a one-shot failure, so a retried query runs
  // against a healthy cluster again.
  crash_armed_ = false;
  if (plan.crash_enabled() && plan.run_index == plan.crash_run &&
      num_machines > 0) {
    const MachineId victim =
        plan.crash_machine >= 0
            ? static_cast<MachineId>(plan.crash_machine)
            : static_cast<MachineId>(
                  fault_hash(plan.seed, num_machines, kFaultSaltCrash) %
                  num_machines);
    crash_armed_ = victim == self;
    crash_tick_ = plan.crash_tick;
  }
}

void Inbox::arm_reliable(unsigned num_machines,
                         const std::atomic<std::uint64_t>* clock,
                         std::atomic<std::uint64_t>* undelivered) {
  reliable_on_ = true;
  rx_.assign(num_machines, LinkRx{});
  reliable_clock_ = clock;
  reliable_undelivered_ = undelivered;
}

bool Inbox::reliable_accept(MachineId src, std::uint64_t link_seq) {
  std::lock_guard lock(rx_mutex_);
  LinkRx& rx = rx_[src];
  const std::uint64_t now =
      reliable_clock_ != nullptr
          ? reliable_clock_->load(std::memory_order_relaxed)
          : 0;
  if (link_seq <= rx.cum || rx.ooo.count(link_seq) != 0) {
    bump(counters_->dedup_drops);
    // A duplicate usually means our previous ack was lost: owe a fresh
    // one so the sender stops retransmitting.
    if (!rx.ack_owed) {
      rx.ack_owed = true;
      rx.owed_since = now;
    }
    return false;
  }
  if (link_seq == rx.cum + 1) {
    rx.cum = link_seq;
    auto it = rx.ooo.begin();
    while (it != rx.ooo.end() && *it == rx.cum + 1) {
      rx.cum = *it;
      it = rx.ooo.erase(it);
    }
  } else {
    rx.ooo.insert(link_seq);
  }
  if (!rx.ack_owed) {
    rx.ack_owed = true;
    rx.owed_since = now;
  }
  return true;
}

void Inbox::fill_ack(MachineId src, std::uint64_t& ack_cum,
                     std::uint64_t& ack_bits) {
  ack_cum = 0;
  ack_bits = 0;
  if (!reliable_on_) return;
  std::lock_guard lock(rx_mutex_);
  LinkRx& rx = rx_[src];
  ack_cum = rx.cum;
  for (const std::uint64_t seq : rx.ooo) {
    const std::uint64_t off = seq - rx.cum;
    if (off >= 1 && off <= 64) ack_bits |= 1ull << (off - 1);
  }
  rx.ack_owed = false;
}

bool Inbox::owes_ack(MachineId src) const {
  if (!reliable_on_) return false;
  std::lock_guard lock(rx_mutex_);
  return rx_[src].ack_owed;
}

std::vector<MachineId> Inbox::take_due_acks(std::uint64_t now,
                                            std::uint64_t idle_ticks) {
  std::vector<MachineId> due;
  if (!reliable_on_) return due;
  std::lock_guard lock(rx_mutex_);
  for (std::size_t src = 0; src < rx_.size(); ++src) {
    const LinkRx& rx = rx_[src];
    if (rx.ack_owed && now >= rx.owed_since + idle_ticks) {
      due.push_back(static_cast<MachineId>(src));
    }
  }
  return due;
}

bool Inbox::reliable_delivered(MachineId src, std::uint64_t link_seq) const {
  if (!reliable_on_) return false;
  std::lock_guard lock(rx_mutex_);
  const LinkRx& rx = rx_[src];
  return link_seq <= rx.cum || rx.ooo.count(link_seq) != 0;
}

void Inbox::heap_insert(Message msg) {
  const auto cmp = [this](const Entry& a, const Entry& b) {
    return before(a, b);
  };
  // Counted before any worker can pop it: a data message is never
  // processed without first being counted as delivered.
  delivered_from_[msg.header.src].fetch_add(1, std::memory_order_seq_cst);
  heap_.push_back(Entry{std::move(msg), next_seq_++});
  std::push_heap(heap_.begin(), heap_.end(), cmp);
}

void Inbox::deliver_done(const Message& msg) {
  engine_check(flow_ != nullptr, "inbox without flow control");
  flow_->release(msg.header.src, msg.header.stage, msg.header.credit_depth,
                 msg.header.credit);
}

bool Inbox::fault_dedup_or_delay(Message& msg) {
  // Transport dedup: a duplicated copy carries the same send sequence
  // number; dropping it here is the reliable transport masking the fault
  // (exactly-once delivery as seen by the engine).
  if (!seen_.insert(msg.header.seq).second) {
    bump(counters_->faults_dup_dropped);
    return true;
  }
  const bool is_done = msg.header.type == MessageType::kDone;
  const double prob = is_done ? plan_.done_delay_prob : plan_.delay_prob;
  const unsigned window = is_done ? plan_.done_delay_window
                                  : plan_.delay_window;
  if (window == 0 ||
      !fault_roll(fault_hash(plan_.seed, msg.header.seq, kFaultSaltDelay),
                  prob)) {
    return false;  // deliver normally
  }
  // Divert into limbo for 1..window pickup ticks. Delivery stats are
  // counted now (the message has arrived at this machine; it is merely
  // invisible to pickup), so queued-bytes accounting matches the
  // eventual dequeue.
  bump(counters_->faults_delayed);
  if (is_done) {
    bump(counters_->done_messages);
  } else {
    count_data_arrival(msg);
    ++limbo_data_;
  }
  const std::uint64_t ticks =
      1 + fault_hash(plan_.seed, msg.header.seq, kFaultSaltDelayTicks) % window;
  limbo_.push_back(Limbo{std::move(msg), tick_ + ticks});
  return true;
}

void Inbox::fault_tick() {
  std::vector<Message> due_dones;
  std::uint64_t stall_us = 0;
  {
    std::lock_guard lock(mutex_);
    const std::uint64_t now = ++tick_;
    if (crash_armed_ && now >= crash_tick_ &&
        !crashed_.load(std::memory_order_relaxed)) {
      crashed_.store(true, std::memory_order_release);
    }
    for (std::size_t i = 0; i < limbo_.size();) {
      if (limbo_[i].release_tick > now) {
        ++i;
        continue;
      }
      Message msg = std::move(limbo_[i].msg);
      limbo_[i] = std::move(limbo_.back());
      limbo_.pop_back();
      if (msg.header.type == MessageType::kData) {
        --limbo_data_;
        heap_insert(std::move(msg));
      } else {
        due_dones.push_back(std::move(msg));
      }
    }
    if (slow_machine_) {
      const std::uint64_t key =
          now ^ (static_cast<std::uint64_t>(self_) << 48);
      if (fault_roll(fault_hash(plan_.seed, key, kFaultSaltStall),
                     plan_.stall_prob)) {
        stall_us = 1 + fault_hash(plan_.seed, key, kFaultSaltStallTicks) %
                           plan_.stall_max_us;
      }
    }
  }
  for (const auto& done : due_dones) deliver_done(done);
  if (stall_us > 0) {
    bump(counters_->faults_stalls);
    std::this_thread::sleep_for(std::chrono::microseconds(stall_us));
  }
}

void Inbox::drain_faults() {
  if (!faults_on_) return;
  std::vector<Message> due_dones;
  {
    std::lock_guard lock(mutex_);
    // A data message still in limbo would mean termination was declared
    // with unprocessed contexts — the sent/processed counters make that
    // impossible, so finding one is a protocol violation.
    engine_check(limbo_data_ == 0,
                 "data message stranded in fault limbo after termination");
    for (auto& held : limbo_) due_dones.push_back(std::move(held.msg));
    limbo_.clear();
  }
  for (const auto& done : due_dones) deliver_done(done);
}

std::vector<Message> Inbox::drain_aborted() {
  std::vector<Message> leftovers;
  std::vector<Message> due_dones;
  {
    std::lock_guard lock(mutex_);
    for (auto& entry : heap_) leftovers.push_back(std::move(entry.msg));
    heap_.clear();
    for (auto& held : limbo_) {
      if (held.msg.header.type == MessageType::kData) {
        leftovers.push_back(std::move(held.msg));
      } else {
        due_dones.push_back(std::move(held.msg));
      }
    }
    limbo_.clear();
    limbo_data_ = 0;
  }
  // Limbo'd credit returns still count — an abort must leave outstanding
  // credits at zero exactly like healthy termination does.
  for (const auto& done : due_dones) deliver_done(done);
  for (const auto& msg : leftovers) account_dequeued(msg.payload.size());
  return leftovers;
}

void Inbox::push(Message msg) {
  if (msg.header.type == MessageType::kAbort) {
    // Control-channel priority: handled at delivery time (like a DONE),
    // never delayed, deduped, or counted against queued bytes. The first
    // reason to arrive sticks; later broadcasts of a lost race are
    // ignored.
    bump(counters_->abort_messages);
    std::uint8_t expected = 0;
    abort_reason_.compare_exchange_strong(expected, msg.header.abort_reason,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire);
    // Kick senders sleeping on flow-control credits so they re-poll the
    // halt flag now instead of after their timed wait.
    if (flow_ != nullptr) flow_->poke();
    return;
  }
  if (epoch_ != 0 && msg.header.epoch != epoch_) {
    // A message from a different query epoch: in-flight residue of an
    // aborted run. Its sender's credits were reclaimed by that run's
    // abort drain; delivering it would seed work in the wrong query.
    bump(counters_->epoch_dropped);
    return;
  }
  if (reliable_on_ && msg.header.link_seq != 0) {
    // Integrity first: a corrupted payload is dropped exactly like a
    // lost transmission — the sender's timer retransmits a clean copy.
    // (The header — including the piggybacked acks, which Network
    // applied before delivery — is modeled as surviving; the checksum
    // covers the payload.)
    if (crc32(msg.payload) != msg.header.crc) {
      bump(counters_->payload_corruptions_detected);
      return;
    }
    // Exactly-once: link-seq dedup runs BEFORE any message/byte/context
    // counting, so a retransmitted or duplicated copy can never
    // double-count a NetCounters counter or double-apply its effects.
    if (!reliable_accept(msg.header.src, msg.header.link_seq)) {
      return;
    }
    // First delivery of a count-bearing / status message: it no longer
    // gates the §3.4 termination decision (Network::quiescent()).
    if (msg.header.type != MessageType::kDone &&
        reliable_undelivered_ != nullptr) {
      reliable_undelivered_->fetch_sub(1, std::memory_order_seq_cst);
    }
  }
  if (faults_on_ && msg.header.type != MessageType::kTermination) {
    std::unique_lock lock(mutex_);
    if (fault_dedup_or_delay(msg)) return;
    // Not consumed by a fault: deliver normally. Data can be heaped
    // while the lock is still held; DONEs release credits below.
    if (msg.header.type == MessageType::kData) {
      count_data_arrival(msg);
      heap_insert(std::move(msg));
      return;
    }
    lock.unlock();
    bump(counters_->done_messages);
    deliver_done(msg);
    return;
  }
  switch (msg.header.type) {
    case MessageType::kDone:
      // Receiver-thread behaviour: return the credit immediately.
      bump(counters_->done_messages);
      deliver_done(msg);
      return;
    case MessageType::kTermination:
      bump(counters_->term_messages);
      term_.push(std::move(msg));
      return;
    case MessageType::kData: {
      count_data_arrival(msg);
      std::lock_guard lock(mutex_);
      heap_insert(std::move(msg));
      return;
    }
    case MessageType::kAbort:
    case MessageType::kAck:
      return;  // kAbort handled above; kAck terminates in Network::transmit
  }
}

std::optional<Message> Inbox::try_pop_data() {
  if (faults_on_) fault_tick();
  const auto cmp = [this](const Entry& a, const Entry& b) {
    return before(a, b);
  };
  std::unique_lock lock(mutex_);
  if (heap_.empty()) return std::nullopt;
  std::pop_heap(heap_.begin(), heap_.end(), cmp);
  Message msg = std::move(heap_.back().msg);
  heap_.pop_back();
  lock.unlock();
  account_dequeued(msg.payload.size());
  return msg;
}

std::optional<Message> Inbox::try_pop_term() { return term_.try_pop(); }

bool Inbox::has_data() const {
  std::lock_guard lock(mutex_);
  return !heap_.empty() || limbo_data_ > 0;
}

std::size_t Inbox::data_size() const {
  std::lock_guard lock(mutex_);
  return heap_.size() + limbo_data_;
}

void Network::set_fault_plan(const FaultPlan& plan) {
  plan_ = plan;
  faults_on_ = plan.any();
  for (unsigned m = 0; m < inboxes_.size(); ++m) {
    inboxes_[m].configure_faults(plan, static_cast<MachineId>(m),
                                 num_machines());
  }
}

void Network::set_epoch(std::uint32_t epoch) {
  epoch_ = epoch;
  for (auto& inbox : inboxes_) inbox.set_epoch(epoch);
}

void Network::configure_reliability(const ReliableConfig& cfg) {
  lossy_ = plan_.lossy();
  rcfg_ = cfg;
  reliable_on_ = cfg.enabled || lossy_;
  rcfg_.enabled = reliable_on_;
  if (!reliable_on_) return;
  if (rcfg_.retransmit_timeout_ticks == 0) rcfg_.retransmit_timeout_ticks = 1;
  // LinkTx holds a mutex, so the vector is built in place and the
  // container itself move-assigned (pointer steal, no element moves).
  tx_ = std::vector<LinkTx>(static_cast<std::size_t>(num_machines()) *
                            num_machines());
  for (auto& inbox : inboxes_) {
    inbox.arm_reliable(num_machines(), &pump_tick_, &seq_undelivered_);
  }
}

namespace {

unsigned fault_class_of(MessageType type) {
  switch (type) {
    case MessageType::kData: return kFaultClassData;
    case MessageType::kDone: return kFaultClassDone;
    case MessageType::kTermination: return kFaultClassTermination;
    case MessageType::kAbort: return kFaultClassAbort;
    case MessageType::kAck: return kFaultClassAck;
  }
  return 0;
}

}  // namespace

void Network::stamp_reliable(MachineId dest, Message& msg) {
  msg.header.crc = crc32(msg.payload);
  if (msg.header.type != MessageType::kDone) {
    seq_undelivered_.fetch_add(1, std::memory_order_seq_cst);
  }
  LinkTx& link = tx(msg.header.src, dest);
  std::lock_guard lock(link.mutex);
  msg.header.link_seq = ++link.next_seq;
  Pending p;
  p.msg = msg;  // pristine copy; ack fields are refreshed per attempt
  p.attempts = 1;
  link.pending.emplace(msg.header.link_seq, std::move(p));
}

void Network::start_retry_timer(MachineId from, MachineId to,
                                std::uint64_t link_seq) {
  LinkTx& link = tx(from, to);
  const std::uint64_t now = pump_tick_.load(std::memory_order_relaxed);
  std::lock_guard lock(link.mutex);
  const auto it = link.pending.find(link_seq);
  if (it == link.pending.end() || it->second.next_retry != kTimerUnarmed) {
    return;
  }
  it->second.next_retry = now + backoff_ticks(from, to, link_seq, 1);
}

void Network::send_ack(MachineId ower, MachineId peer) {
  Message ack;
  ack.header.type = MessageType::kAck;
  ack.header.src = ower;
  bump(counters_.acks_sent);
  send(peer, std::move(ack));
}

std::uint64_t Network::backoff_ticks(MachineId from, MachineId to,
                                     std::uint64_t link_seq,
                                     unsigned attempts) const {
  const std::uint64_t base =
      std::max<std::uint64_t>(1, rcfg_.retransmit_timeout_ticks);
  // Cap the exponential ramp at 16x base: past that point a longer
  // wait no longer decongests anything in this fabric, it only delays
  // the drain of the last few undelivered messages (the §3.4 decision
  // waits on fabric quiescence, so retransmission latency is directly
  // termination latency).
  const unsigned shift = std::min(attempts > 0 ? attempts - 1 : 0u, 4u);
  const std::uint64_t key =
      (static_cast<std::uint64_t>(from) * inboxes_.size() + to) ^
      (link_seq << 16) ^ (static_cast<std::uint64_t>(attempts) << 56);
  return (base << shift) +
         fault_hash(plan_.seed, key, kFaultSaltRetransmit) % base;
}

void Network::ack_apply(MachineId from, MachineId to, std::uint64_t cum,
                        std::uint64_t bits) {
  if (cum == 0 && bits == 0) return;
  LinkTx& link = tx(from, to);
  std::lock_guard lock(link.mutex);
  bool progress = false;
  auto it = link.pending.begin();
  while (it != link.pending.end() && it->first <= cum) {
    it = link.pending.erase(it);
    progress = true;
  }
  for (unsigned i = 0; i < 64; ++i) {
    if ((bits >> i & 1u) == 0) continue;
    progress |= link.pending.erase(cum + 1 + i) > 0;
  }
  if (progress) {
    // The link is demonstrably alive: refund the retransmit budget of
    // everything still in flight. Pump ticks advance at wildly
    // different rates between busy and idle phases, so raw attempt
    // counts may only condemn a link that makes zero progress.
    for (auto& [seq, p] : link.pending) {
      if (!p.dead) p.attempts = 0;
    }
  }
}

void Network::transmit(MachineId dest, Message msg) {
  const bool control = msg.header.type == MessageType::kAbort;
  if (reliable_on_ && !control) {
    // Refresh the piggybacked ack: what the sending machine has
    // received from `dest` (the reverse link), as of this attempt.
    inboxes_[msg.header.src].fill_ack(dest, msg.header.ack_cum,
                                      msg.header.ack_bits);
  }
  if (lossy_) {
    // Per-ATTEMPT fault key: a retransmission must roll fresh dice, or
    // an unlucky message would be deterministically lost forever.
    const std::uint64_t attempt =
        xmit_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
    const unsigned cls = fault_class_of(msg.header.type);
    if ((plan_.loss_classes & cls) != 0 &&
        fault_roll(fault_hash(plan_.seed, attempt, kFaultSaltLoss),
                   plan_.loss_rate)) {
      bump(counters_.faults_lost);
      return;
    }
    if ((plan_.corrupt_classes & cls) != 0 &&
        fault_roll(fault_hash(plan_.seed, attempt, kFaultSaltCorrupt),
                   plan_.corrupt_rate)) {
      bump(counters_.faults_corrupted);
      if (msg.header.type == MessageType::kAbort ||
          msg.header.type == MessageType::kAck) {
        // Headers-only control frame: corruption voids the whole frame;
        // the receiver's integrity check discards it, i.e. it is a loss
        // that also ticks the detection counter.
        bump(counters_.payload_corruptions_detected);
        return;
      }
      if (!msg.payload.empty()) {
        const std::uint64_t h =
            fault_hash(plan_.seed, attempt, kFaultSaltCorruptByte);
        msg.payload[h % msg.payload.size()] ^=
            std::byte{static_cast<unsigned char>(1u << ((h >> 56) & 7))};
      } else {
        // Nothing to damage in an empty payload (DONE): break the
        // checksum itself so the receiver still uniformly detects it.
        msg.header.crc ^= 1u;
      }
    }
  }
  if (msg.header.type == MessageType::kAck) {
    // Standalone acks terminate in the transport: apply to the reverse
    // link's unacked ring (messages `dest` sent to this ack's origin).
    if (reliable_on_) {
      ack_apply(dest, msg.header.src, msg.header.ack_cum,
                msg.header.ack_bits);
    }
    return;
  }
  if (reliable_on_ && !control) {
    // Piggybacked acks are applied even when the payload was corrupted:
    // the header is modeled as surviving (the CRC covers the payload).
    ack_apply(dest, msg.header.src, msg.header.ack_cum, msg.header.ack_bits);
  }
  inboxes_[dest].push(std::move(msg));
}

void Network::scan_link(MachineId from, MachineId to, std::uint64_t now) {
  if (from == to) return;
  // A crashed endpoint stops the timers cold: retransmitting INTO the
  // crash would re-trigger the blackhole's synthesized DONE (a double
  // credit), and a crashed SENDER is dead by definition. The post-run
  // drain_reliable reconciles whatever is left in the ring.
  if (inboxes_[from].crashed() || inboxes_[to].crashed()) return;
  LinkTx& link = tx(from, to);
  const auto any_due = [&] {
    std::lock_guard lock(link.mutex);
    for (const auto& [seq, p] : link.pending) {
      if (!p.dead && now >= p.next_retry) return true;
    }
    return false;
  };
  if (!any_due()) return;
  // A delivered message whose ack is merely late (the receiver's owed
  // ack has not reached its idle deadline yet) is not lost: send that
  // ack first, then re-read the ring.
  if (inboxes_[to].owes_ack(from)) send_ack(to, from);
  std::vector<Message> clones;
  bool dead = false;
  {
    std::lock_guard lock(link.mutex);
    for (auto& [seq, p] : link.pending) {
      if (p.dead || now < p.next_retry) continue;
      if (p.attempts > rcfg_.max_retransmits) {
        p.dead = true;
        dead = true;
        continue;
      }
      ++p.attempts;
      p.next_retry = now + backoff_ticks(from, to, seq, p.attempts);
      clones.push_back(p.msg);
    }
  }
  for (auto& clone : clones) {
    bump(counters_.retransmits);
    transmit(to, std::move(clone));
  }
  if (dead) escalate_dead_link();
}

void Network::escalate_dead_link() {
  // The retransmit budget ran dry with zero ack progress: the link (and
  // for simulation purposes, the machine behind it) is declared dead.
  // Same ladder as the crash-stop failure detector: a typed retryable
  // abort, never a hang.
  if (abort_ == nullptr) return;
  if (abort_->request(AbortReason::kMachineFailure)) {
    broadcast_abort(AbortReason::kMachineFailure);
  }
}

void Network::pump(MachineId self) {
  (void)self;  // any worker may service any link — see the header note
  if (!reliable_on_) return;
  const std::uint64_t now =
      pump_tick_.fetch_add(1, std::memory_order_relaxed) + 1;
  const unsigned n = num_machines();
  // Standalone acks, striding one inbox per tick: a receiver that owes
  // an ack past the idle window gets it emitted on its behalf (shared-
  // memory simulation — the owing machine may be deep in a traversal).
  const auto ower = static_cast<MachineId>(now % n);
  if (!inboxes_[ower].crashed()) {
    for (const MachineId peer :
         inboxes_[ower].take_due_acks(now, rcfg_.ack_idle_ticks)) {
      send_ack(ower, peer);
    }
  }
  // Retransmission timers, striding one directed link per tick.
  const std::size_t nlinks = static_cast<std::size_t>(n) * n;
  const auto idx = static_cast<std::size_t>(now % nlinks);
  scan_link(static_cast<MachineId>(idx / n), static_cast<MachineId>(idx % n),
            now);
  // kAbort re-broadcast: the abort flag on each inbox is the implicit
  // ack; rebroadcast (rate-limited) until every live inbox has it.
  const std::uint8_t reason = abort_pending_.load(std::memory_order_relaxed);
  if (reason != 0 && now % 64 == 0) {
    bool all_acked = true;
    for (unsigned m = 0; m < n; ++m) {
      if (inboxes_[m].aborted() || inboxes_[m].crashed()) continue;
      all_acked = false;
      Message msg;
      msg.header.type = MessageType::kAbort;
      msg.header.abort_reason = reason;
      msg.header.epoch = epoch_;
      transmit(static_cast<MachineId>(m), std::move(msg));
    }
    if (all_acked) abort_pending_.store(0, std::memory_order_relaxed);
  }
}

std::vector<std::pair<MachineId, Message>> Network::drain_reliable() {
  std::vector<std::pair<MachineId, Message>> undelivered_data;
  if (!reliable_on_) return undelivered_data;
  const unsigned n = num_machines();
  for (unsigned from = 0; from < n; ++from) {
    for (unsigned to = 0; to < n; ++to) {
      LinkTx& link = tx(static_cast<MachineId>(from),
                        static_cast<MachineId>(to));
      std::lock_guard lock(link.mutex);
      for (auto& [seq, p] : link.pending) {
        if (inboxes_[to].reliable_delivered(static_cast<MachineId>(from),
                                            seq)) {
          // Delivered but unacked: its effects are already in the inbox
          // (or its drains). Touching it again would double-apply.
          continue;
        }
        switch (p.msg.header.type) {
          case MessageType::kDone:
            // Legal even on clean runs: termination proves
            // sent == processed, not credits-home, so the last DONE of
            // a link can die in flight. Its credit comes home now.
            inboxes_[to].deliver_done(p.msg);
            break;
          case MessageType::kData:
            // Only possible on aborted runs (clean termination implies
            // every data message was processed — engine-checked by the
            // caller). The engine releases the sender's credit and
            // counts the discarded contexts.
            undelivered_data.emplace_back(static_cast<MachineId>(to),
                                          std::move(p.msg));
            break;
          default:
            break;  // termination statuses die with the run
        }
      }
      link.pending.clear();
    }
  }
  return undelivered_data;
}

void Network::broadcast_abort(AbortReason reason) {
  if (reliable_on_) {
    // Remember the reason so pump can re-broadcast to any machine whose
    // copy the fabric drops (first reason wins, matching the inbox CAS).
    std::uint8_t expected = 0;
    abort_pending_.compare_exchange_strong(
        expected, static_cast<std::uint8_t>(reason),
        std::memory_order_acq_rel, std::memory_order_acquire);
  }
  for (unsigned m = 0; m < inboxes_.size(); ++m) {
    Message msg;
    msg.header.type = MessageType::kAbort;
    msg.header.abort_reason = static_cast<std::uint8_t>(reason);
    msg.header.epoch = epoch_;
    transmit(static_cast<MachineId>(m), std::move(msg));
  }
}

void Network::send(MachineId dest, Message msg) {
  engine_check(dest < inboxes_.size(), "send to unknown machine");
  if (msg.header.type == MessageType::kData) {
    engine_check(msg.header.src < inboxes_.size(), "send from unknown machine");
    data_sent_[std::size_t{msg.header.src} * inboxes_.size() + dest]
        .n.fetch_add(1, std::memory_order_seq_cst);
  }
  msg.header.epoch = epoch_;
  if (faults_on_) {
    msg.header.seq = send_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  if (inboxes_[dest].crashed()) {
    // Crash-stop blackhole. Data vanishes, but the transport synthesizes
    // the DONE completion the dead machine will never send (the RDMA
    // error-completion analogy): the sender's credit must return or the
    // whole cluster wedges on the failure instead of aborting cleanly.
    // Runs before reliable stamping on purpose: a blackholed message
    // gets no ring entry, and the synthesized DONE is a *local*
    // completion that never crosses the lossy fabric (link_seq 0, so it
    // bypasses the link dedup; the shared header.seq still collapses
    // duplicate-send synthesized DONEs via the legacy dedup).
    switch (msg.header.type) {
      case MessageType::kData: {
        bump(counters_.blackholed_messages);
        Message done;
        done.header.type = MessageType::kDone;
        done.header.src = dest;
        done.header.stage = msg.header.stage;
        done.header.credit = msg.header.credit;
        done.header.credit_depth = msg.header.credit_depth;
        // Reuses the data message's seq: a duplicated copy of the same
        // send then synthesizes a DONE with the same identity, and the
        // sender's transport dedup collapses them to one credit return.
        done.header.seq = msg.header.seq;
        done.header.epoch = msg.header.epoch;
        inboxes_[msg.header.src].push(std::move(done));
        return;
      }
      case MessageType::kTermination:
      case MessageType::kAbort:
      case MessageType::kAck:
        return;  // nobody is listening
      case MessageType::kDone:
        // Still delivered: the credit audit models the cluster-wide
        // buffer-pool bookkeeping, which survives the member's death.
        break;
    }
  }
  const bool timed = reliable_on_ && sequenced(msg.header.type);
  if (timed) stamp_reliable(dest, msg);
  const MachineId src = msg.header.src;
  const std::uint64_t link_seq = msg.header.link_seq;
  if (faults_on_) {
    double dup_prob = 0.0;
    switch (msg.header.type) {
      case MessageType::kData: dup_prob = plan_.dup_data_prob; break;
      case MessageType::kDone: dup_prob = plan_.dup_done_prob; break;
      case MessageType::kTermination: dup_prob = plan_.dup_term_prob; break;
      case MessageType::kAbort: break;  // control channel: never duplicated
      case MessageType::kAck: break;    // transport-internal: never duplicated
    }
    if (fault_roll(fault_hash(plan_.seed, msg.header.seq, kFaultSaltDup),
                   dup_prob)) {
      bump(counters_.faults_duplicated);
      // The copy keeps the original's link_seq/crc, so under the
      // reliable layer the receiver's link dedup collapses the pair.
      Message copy;
      copy.header = msg.header;
      copy.payload = msg.payload;
      transmit(dest, std::move(copy));
    }
  }
  transmit(dest, std::move(msg));
  if (timed) start_retry_timer(src, dest, link_seq);
}

}  // namespace rpqd
