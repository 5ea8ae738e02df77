#include "runtime/profile.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <sstream>

namespace rpqd {

namespace {

std::atomic<std::uint64_t> g_profile_allocations{0};

using u64 = std::uint64_t;
using ull = unsigned long long;

u64 sum_stages(const QueryProfile& p, u64 ProfileDepthRow::*field) {
  u64 sum = 0;
  for (const auto& stage : p.stages) sum += stage.total.*field;
  return sum;
}

void append_row_counts(std::ostringstream& out, const ProfileDepthRow& r) {
  out << "contexts=" << r.contexts;
  if (r.ctx_sent > 0) {
    out << " ctx_sent=" << r.ctx_sent << " msgs_sent=" << r.msgs_sent
        << " bytes_sent=" << r.bytes_sent;
  }
  if (r.ctx_received > 0) {
    out << " ctx_recv=" << r.ctx_received << " msgs_recv=" << r.msgs_received;
  }
  if (r.index_probes > 0) {
    out << " probes=" << r.index_probes << " new=" << r.index_new
        << " elim=" << r.index_eliminated << " dup=" << r.index_duplicated;
  }
}

void append_json_row(std::string& out, const ProfileDepthRow& r) {
  char buf[320];
  std::snprintf(
      buf, sizeof buf,
      "\"contexts\": %llu, \"ctx_sent\": %llu, \"ctx_received\": %llu, "
      "\"msgs_sent\": %llu, \"msgs_received\": %llu, \"bytes_sent\": %llu, "
      "\"index_probes\": %llu, \"index_new\": %llu, "
      "\"index_eliminated\": %llu, \"index_duplicated\": %llu",
      static_cast<ull>(r.contexts), static_cast<ull>(r.ctx_sent),
      static_cast<ull>(r.ctx_received), static_cast<ull>(r.msgs_sent),
      static_cast<ull>(r.msgs_received), static_cast<ull>(r.bytes_sent),
      static_cast<ull>(r.index_probes), static_cast<ull>(r.index_new),
      static_cast<ull>(r.index_eliminated),
      static_cast<ull>(r.index_duplicated));
  out += buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

}  // namespace

void ProfileDepthRow::add(const ProfileDepthRow& other) {
  contexts += other.contexts;
  ctx_sent += other.ctx_sent;
  ctx_received += other.ctx_received;
  msgs_sent += other.msgs_sent;
  msgs_received += other.msgs_received;
  bytes_sent += other.bytes_sent;
  index_probes += other.index_probes;
  index_new += other.index_new;
  index_eliminated += other.index_eliminated;
  index_duplicated += other.index_duplicated;
}

void QueryProfile::finish() {
  for (auto& stage : stages) {
    stage.total = ProfileDepthRow{};
    for (auto& machine : stage.machines) {
      machine.total = ProfileDepthRow{};
      for (const auto& row : machine.depths) machine.total.add(row);
      stage.total.add(machine.total);
    }
  }
}

std::uint64_t QueryProfile::total_contexts() const {
  return sum_stages(*this, &ProfileDepthRow::contexts);
}
std::uint64_t QueryProfile::total_ctx_sent() const {
  return sum_stages(*this, &ProfileDepthRow::ctx_sent);
}
std::uint64_t QueryProfile::total_ctx_received() const {
  return sum_stages(*this, &ProfileDepthRow::ctx_received);
}
std::uint64_t QueryProfile::total_msgs_sent() const {
  return sum_stages(*this, &ProfileDepthRow::msgs_sent);
}
std::uint64_t QueryProfile::total_msgs_received() const {
  return sum_stages(*this, &ProfileDepthRow::msgs_received);
}
std::uint64_t QueryProfile::total_bytes_sent() const {
  return sum_stages(*this, &ProfileDepthRow::bytes_sent);
}
std::uint64_t QueryProfile::total_index_probes() const {
  return sum_stages(*this, &ProfileDepthRow::index_probes);
}
std::uint64_t QueryProfile::stage_contexts(StageId stage) const {
  return stages[stage].total.contexts;
}
std::uint64_t QueryProfile::stage_ctx_sent(StageId stage) const {
  return stages[stage].total.ctx_sent;
}
std::uint64_t QueryProfile::total_term_rounds() const {
  std::uint64_t sum = 0;
  for (const auto& m : machines) sum += m.term_rounds;
  return sum;
}

std::string QueryProfile::text() const {
  std::ostringstream out;
  if (!enabled) return "PROFILE: disabled\n";
  out << "PROFILE  stages=" << stages.size() << " machines=" << machines.size()
      << "  contexts=" << total_contexts() << " ctx_sent=" << total_ctx_sent()
      << " msgs_sent=" << total_msgs_sent()
      << " bytes_sent=" << total_bytes_sent() << '\n';
  for (std::size_t s = 0; s < stages.size(); ++s) {
    const auto& stage = stages[s];
    if (!stage.total.any()) continue;
    out << "S" << s << " [" << stage.note << "] ";
    append_row_counts(out, stage.total);
    out << '\n';
    for (std::size_t m = 0; m < stage.machines.size(); ++m) {
      const auto& node = stage.machines[m];
      if (!node.total.any()) continue;
      out << "  m" << m << ": ";
      append_row_counts(out, node.total);
      // Per-depth contexts, the Table 2/3-style depth profile of this
      // (stage, machine) cell.
      out << " |";
      for (std::size_t d = 0; d < node.depths.size(); ++d) {
        if (!node.depths[d].any()) continue;
        out << " d" << d << ':' << node.depths[d].contexts;
      }
      out << '\n';
    }
  }
  for (std::size_t m = 0; m < machines.size(); ++m) {
    const auto& sum = machines[m];
    char buf[320];
    std::snprintf(
        buf, sizeof buf,
        "credits m%zu: fast=%llu shared=%llu overflow=%llu "
        "blocked=%llu stalls=%llu stall_ms=%.3f term_rounds=%llu "
        "peak_live=%llu discarded=%llu",
        m, static_cast<ull>(sum.credit_fast_path),
        static_cast<ull>(sum.credit_shared),
        static_cast<ull>(sum.credit_overflow),
        static_cast<ull>(sum.credit_blocked),
        static_cast<ull>(sum.stall_events), sum.stall_ms_total(),
        static_cast<ull>(sum.term_rounds),
        static_cast<ull>(sum.peak_live_contexts),
        static_cast<ull>(sum.discarded_contexts));
    out << buf;
    if (sum.mirror_fanouts + sum.mirror_expands > 0) {
      out << " mirror_fanouts=" << sum.mirror_fanouts
          << " mirror_expands=" << sum.mirror_expands;
    }
    if (sum.stall_events > 0) {
      // Stall breakdown by the credit class that resolved the stall.
      static const char* kClassNames[kNumCreditClasses] = {
          "fixed", "dedicated", "shared", "overflow"};
      out << " (";
      bool first = true;
      for (unsigned c = 0; c < kNumCreditClasses; ++c) {
        if (sum.stall_ms_by_class[c] <= 0.0) continue;
        if (!first) out << ' ';
        first = false;
        char cbuf[48];
        std::snprintf(cbuf, sizeof cbuf, "%s=%.3fms", kClassNames[c],
                      sum.stall_ms_by_class[c]);
        out << cbuf;
      }
      out << ')';
    }
    out << '\n';
  }
  // Cluster-level §14 skew summary: how evenly the frame work (and the
  // induced credit stalling) landed across machines. max/mean == 1.0 is a
  // perfectly balanced run; == machines.size() is everything on one box.
  if (!machines.empty()) {
    u64 max_ctx = 0, total_ctx = 0;
    double max_stall = 0.0, total_stall = 0.0;
    for (const auto& sum : machines) {
      max_ctx = std::max(max_ctx, sum.total_contexts);
      total_ctx += sum.total_contexts;
      max_stall = std::max(max_stall, sum.stall_ms_total());
      total_stall += sum.stall_ms_total();
    }
    if (total_ctx > 0) {
      const double mean_ctx =
          static_cast<double>(total_ctx) / static_cast<double>(machines.size());
      const double mean_stall = total_stall / static_cast<double>(machines.size());
      char bbuf[200];
      std::snprintf(bbuf, sizeof bbuf,
                    "balance: contexts max=%llu mean=%.1f imbalance=%.3f "
                    "stall_ms max=%.3f mean=%.3f",
                    static_cast<ull>(max_ctx), mean_ctx,
                    static_cast<double>(max_ctx) / mean_ctx, max_stall,
                    mean_stall);
      out << bbuf << '\n';
    }
  }
  return out.str();
}

std::string QueryProfile::to_json() const {
  std::string out = "{";
  out += "\"enabled\": ";
  out += enabled ? "true" : "false";
  char buf[512];
  std::snprintf(buf, sizeof buf,
                ", \"machines\": %zu, \"term_rounds\": %llu, \"totals\": {",
                machines.size(), static_cast<ull>(total_term_rounds()));
  out += buf;
  append_json_row(out, [this] {
    ProfileDepthRow total;
    for (const auto& stage : stages) total.add(stage.total);
    return total;
  }());
  out += "}, \"stages\": [";
  bool first_stage = true;
  for (std::size_t s = 0; s < stages.size(); ++s) {
    const auto& stage = stages[s];
    if (!first_stage) out += ", ";
    first_stage = false;
    std::snprintf(buf, sizeof buf, "{\"id\": %zu, \"note\": \"", s);
    out += buf;
    out += json_escape(stage.note);
    out += "\", ";
    append_json_row(out, stage.total);
    out += ", \"machines\": [";
    bool first_machine = true;
    for (std::size_t m = 0; m < stage.machines.size(); ++m) {
      const auto& node = stage.machines[m];
      if (!node.total.any()) continue;
      if (!first_machine) out += ", ";
      first_machine = false;
      std::snprintf(buf, sizeof buf, "{\"m\": %zu, ", m);
      out += buf;
      append_json_row(out, node.total);
      out += ", \"depths\": [";
      bool first_depth = true;
      for (std::size_t d = 0; d < node.depths.size(); ++d) {
        if (!node.depths[d].any()) continue;
        if (!first_depth) out += ", ";
        first_depth = false;
        std::snprintf(buf, sizeof buf, "{\"d\": %zu, ", d);
        out += buf;
        append_json_row(out, node.depths[d]);
        out += "}";
      }
      out += "]}";
    }
    out += "]}";
  }
  out += "], \"credits\": [";
  for (std::size_t m = 0; m < machines.size(); ++m) {
    const auto& sum = machines[m];
    std::snprintf(
        buf, sizeof buf,
        "%s{\"m\": %zu, \"fast_path\": %llu, \"shared\": %llu, "
        "\"overflow\": %llu, \"blocked\": %llu, "
        "\"stall_events\": %llu, \"stall_ms\": %.3f, \"term_rounds\": %llu, "
        "\"peak_live\": %llu, \"discarded\": %llu, "
        "\"mirror_fanouts\": %llu, \"mirror_expands\": %llu, "
        "\"contexts\": %llu}",
        m == 0 ? "" : ", ", m, static_cast<ull>(sum.credit_fast_path),
        static_cast<ull>(sum.credit_shared),
        static_cast<ull>(sum.credit_overflow),
        static_cast<ull>(sum.credit_blocked),
        static_cast<ull>(sum.stall_events), sum.stall_ms_total(),
        static_cast<ull>(sum.term_rounds),
        static_cast<ull>(sum.peak_live_contexts),
        static_cast<ull>(sum.discarded_contexts),
        static_cast<ull>(sum.mirror_fanouts),
        static_cast<ull>(sum.mirror_expands),
        static_cast<ull>(sum.total_contexts));
    out += buf;
  }
  out += "]}";
  return out;
}

std::uint64_t profile_allocations() {
  return g_profile_allocations.load(std::memory_order_relaxed);
}

WorkerProfile::WorkerProfile(unsigned num_stages, Depth prealloc_depths) {
  grid_.resize(num_stages);
  for (auto& rows : grid_) rows.resize(prealloc_depths);
  // One logical allocation event per constructed slot (the grid plus its
  // preallocated rows are reserved here, before the query's hot path).
  g_profile_allocations.fetch_add(1 + num_stages, std::memory_order_relaxed);
}

void WorkerProfile::grow(std::vector<ProfileDepthRow>& rows, Depth depth) {
  // Geometric growth so deep RPQs amortize to O(log depth) allocations;
  // counted so tests can observe the (rare) hot-path fallback.
  std::size_t capacity = std::max<std::size_t>(rows.size() * 2, 16);
  while (capacity <= depth) capacity *= 2;
  rows.resize(capacity);
  g_profile_allocations.fetch_add(1, std::memory_order_relaxed);
}

void WorkerProfile::merge_into(MachineId machine, QueryProfile& out) const {
  for (std::size_t s = 0; s < grid_.size(); ++s) {
    const auto& rows = grid_[s];
    ProfileMachineNode& node = out.stages[s].machines[machine];
    for (std::size_t d = 0; d < rows.size(); ++d) {
      if (!rows[d].any()) continue;
      if (node.depths.size() <= d) node.depths.resize(d + 1);
      node.depths[d].add(rows[d]);
    }
  }
  ProfileMachineSummary& sum = out.machines[machine];
  for (unsigned c = 0; c < kNumCreditClasses; ++c) {
    sum.stall_ms_by_class[c] += stall_ms_by_class_[c];
  }
  sum.stall_events += stall_events_;
}

}  // namespace rpqd
