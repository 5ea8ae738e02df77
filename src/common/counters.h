// The counter schema: every fabric, flow-control and per-machine counter
// a query reports, declared once. NetCounters is what the simulated
// interconnect counts (one per Network, so per query run; workers bump
// it through std::atomic_ref and it is read after they join).
// MachineCounters is what one simulated machine reports after its run.
//
// Each group has one {section, name, member, fold} table. The fold
// (operator+=), RuntimeStats::summary(), the profile's `credits m<i>:`
// lines and its JSON "credits" array all iterate it; rendered keys are
// the member names. The profile tree's ProfileDepthRow (runtime/
// profile.h) uses the same table machinery.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace rpqd {

enum class CounterFold : std::uint8_t {
  kSum,  // cluster value = sum over machines
  kMax,  // high-water mark: machines peaking at different times never add
};

template <class Group>
struct CounterField {
  const char* section;  // the summary() line this counter renders on
  const char* name;     // rendered key: the member's own name
  std::uint64_t Group::*member;
  CounterFold fold;
};

/// Fabric counters of one query run; concurrent queries never share one
/// (stats_isolation_test pins this). Message/byte/context counts are
/// exactly-once: the transport dedup drops a copy before counting it.
struct NetCounters {
  std::uint64_t data_messages = 0;
  std::uint64_t done_messages = 0;
  std::uint64_t term_messages = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t contexts_sent = 0;
  // Fault injection (common/fault.h); all 0 without an active plan.
  std::uint64_t faults_delayed = 0;      // messages sent to limbo
  std::uint64_t faults_duplicated = 0;   // extra copies injected
  std::uint64_t faults_dup_dropped = 0;  // copies deduped away
  std::uint64_t faults_stalls = 0;       // injected pickup stalls
  // Reliable delivery (DESIGN.md §13); all 0 unless the layer is armed.
  // faults_lost / faults_corrupted count what the adversarial fabric
  // did; the other four count what the transport did about it.
  std::uint64_t faults_lost = 0;       // transmission attempts dropped
  std::uint64_t faults_corrupted = 0;  // transmission attempts corrupted
  std::uint64_t retransmits = 0;       // copies re-sent by the timers
  std::uint64_t acks_sent = 0;         // standalone kAck messages
  std::uint64_t payload_corruptions_detected = 0;  // CRC32 catches
  std::uint64_t dedup_drops = 0;  // link-seq duplicate deliveries dropped
  // Query lifecycle (common/abort.h); all 0 on a normally-finishing run.
  std::uint64_t abort_messages = 0;       // kAbort deliveries
  std::uint64_t blackholed_messages = 0;  // data sent to a crashed machine
  std::uint64_t epoch_dropped = 0;        // stale-epoch messages rejected
};

/// What one simulated machine reports; the cluster value is the fold.
struct MachineCounters {
  // Flow control (§3.3 / §4.2).
  std::uint64_t flow_fast_path = 0;  // credits granted without the lock
  std::uint64_t flow_blocked = 0;    // failed try_acquire calls
  std::uint64_t flow_shared_used = 0;
  std::uint64_t flow_overflow_used = 0;
  /// Credits still outstanding after the run drained — a leak detector;
  /// 0 on every run, aborted ones included.
  std::uint64_t flow_outstanding = 0;
  /// Overflow credits still marked in flight. Audited on its own: a
  /// stale entry blocks that depth forever even when the counts balance.
  std::uint64_t flow_overflow_outstanding = 0;
  /// Contexts dropped on the abort path: unsent buffers, unprocessed
  /// inbox batches, and fabric leftovers addressed to this machine.
  std::uint64_t contexts_discarded = 0;
  // Skew-aware balancing (DESIGN.md §14); 0 without a hot set.
  std::uint64_t mirror_fanouts = 0;  // hot frames delegated (send side)
  std::uint64_t mirror_expands = 0;  // delegations expanded (recv side)
  /// Vertices bootstrap handed to stage 0 (§3.2): the alive locals its
  /// labels admit, or the one start vertex under planner heuristic (i).
  std::uint64_t seeds = 0;
  /// Frames entered across all stages: the §14 load quantity.
  std::uint64_t contexts = 0;
  std::uint64_t term_rounds = 0;  // §3.4 statuses broadcast
  /// Simultaneously-live execution frames (the max_live_contexts
  /// budget's quantity) and buffered inbox bytes, at their peak.
  std::uint64_t peak_live_contexts = 0;
  std::uint64_t peak_queued_bytes = 0;
};

#define RPQD_COUNTER(group, section, member, fold) \
  CounterField<group> { section, #member, &group::member, CounterFold::fold }

inline constexpr CounterField<NetCounters> kNetCounterFields[] = {
    RPQD_COUNTER(NetCounters, "fabric", data_messages, kSum),
    RPQD_COUNTER(NetCounters, "fabric", done_messages, kSum),
    RPQD_COUNTER(NetCounters, "fabric", term_messages, kSum),
    RPQD_COUNTER(NetCounters, "fabric", bytes_sent, kSum),
    RPQD_COUNTER(NetCounters, "fabric", contexts_sent, kSum),
    RPQD_COUNTER(NetCounters, "faults", faults_delayed, kSum),
    RPQD_COUNTER(NetCounters, "faults", faults_duplicated, kSum),
    RPQD_COUNTER(NetCounters, "faults", faults_dup_dropped, kSum),
    RPQD_COUNTER(NetCounters, "faults", faults_stalls, kSum),
    RPQD_COUNTER(NetCounters, "transport", faults_lost, kSum),
    RPQD_COUNTER(NetCounters, "transport", faults_corrupted, kSum),
    RPQD_COUNTER(NetCounters, "transport", retransmits, kSum),
    RPQD_COUNTER(NetCounters, "transport", acks_sent, kSum),
    RPQD_COUNTER(NetCounters, "transport", payload_corruptions_detected, kSum),
    RPQD_COUNTER(NetCounters, "transport", dedup_drops, kSum),
    RPQD_COUNTER(NetCounters, "lifecycle", abort_messages, kSum),
    RPQD_COUNTER(NetCounters, "lifecycle", blackholed_messages, kSum),
    RPQD_COUNTER(NetCounters, "lifecycle", epoch_dropped, kSum),
};

// "lifecycle" comes first so summary() continues the NetCounters line.
inline constexpr CounterField<MachineCounters> kMachineCounterFields[] = {
    RPQD_COUNTER(MachineCounters, "lifecycle", contexts_discarded, kSum),
    RPQD_COUNTER(MachineCounters, "flow", flow_fast_path, kSum),
    RPQD_COUNTER(MachineCounters, "flow", flow_blocked, kSum),
    RPQD_COUNTER(MachineCounters, "flow", flow_shared_used, kSum),
    RPQD_COUNTER(MachineCounters, "flow", flow_overflow_used, kSum),
    RPQD_COUNTER(MachineCounters, "flow", flow_outstanding, kSum),
    RPQD_COUNTER(MachineCounters, "flow", flow_overflow_outstanding, kSum),
    RPQD_COUNTER(MachineCounters, "balance", mirror_fanouts, kSum),
    RPQD_COUNTER(MachineCounters, "balance", mirror_expands, kSum),
    RPQD_COUNTER(MachineCounters, "machines", seeds, kSum),
    RPQD_COUNTER(MachineCounters, "machines", contexts, kSum),
    RPQD_COUNTER(MachineCounters, "machines", term_rounds, kSum),
    RPQD_COUNTER(MachineCounters, "machines", peak_live_contexts, kMax),
    RPQD_COUNTER(MachineCounters, "machines", peak_queued_bytes, kMax),
};

inline constexpr std::span<const CounterField<NetCounters>> counter_fields(
    const NetCounters&) {
  return kNetCounterFields;
}
inline constexpr std::span<const CounterField<MachineCounters>>
counter_fields(const MachineCounters&) {
  return kMachineCounterFields;
}

template <class Group>
Group& fold_counters(Group& into, const Group& from) {
  for (const auto& f : counter_fields(into)) {
    std::uint64_t& a = into.*f.member;
    const std::uint64_t b = from.*f.member;
    a = f.fold == CounterFold::kMax ? std::max(a, b) : a + b;
  }
  return into;
}

inline NetCounters& operator+=(NetCounters& into, const NetCounters& from) {
  return fold_counters(into, from);
}
inline MachineCounters& operator+=(MachineCounters& into,
                                   const MachineCounters& from) {
  return fold_counters(into, from);
}

/// Increments a counter that several threads bump concurrently.
inline void bump(std::uint64_t& counter, std::uint64_t n = 1) {
  static_assert(std::atomic_ref<std::uint64_t>::required_alignment <=
                alignof(std::uint64_t));
  std::atomic_ref<std::uint64_t>(counter).fetch_add(
      n, std::memory_order_relaxed);
}

enum class CounterFormat : std::uint8_t {
  kText,     // name=value, space-separated, every counter
  kNonzero,  // name=value, space-separated, nonzero counters only
  kJson,     // "name": value members, comma-separated, every counter
};

template <class Group>
void append_counters(std::string& out, const Group& group,
                     CounterFormat format) {
  const bool json = format == CounterFormat::kJson;
  bool first = true;
  for (const auto& f : counter_fields(group)) {
    const std::uint64_t value = group.*f.member;
    if (format == CounterFormat::kNonzero && value == 0) continue;
    if (!first) out += json ? ", " : " ";
    first = false;
    out += json ? "\"" : "";
    out += f.name;
    out += json ? "\": " : "=";
    out += std::to_string(value);
  }
}

/// Appends the nonzero counters of `group` as `name=value` pairs, one
/// "\n  section:" line per section. `open` is the section whose line is
/// open, so consecutive calls continue a shared section's line.
template <class Group>
void append_counter_sections(std::string& out, const Group& group,
                             std::string_view& open) {
  for (const auto& f : counter_fields(group)) {
    const std::uint64_t value = group.*f.member;
    if (value == 0) continue;
    if (open != f.section) {
      open = f.section;
      out += "\n  ";
      out += f.section;
      out += ':';
    }
    out += ' ';
    out += f.name;
    out += '=';
    out += std::to_string(value);
  }
}

}  // namespace rpqd
