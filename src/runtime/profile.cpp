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

std::string nonzero(const ProfileDepthRow& row) {
  std::string out;
  append_counters(out, row, CounterFormat::kNonzero);
  return out;
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

void QueryProfile::finish() {
  for (auto& stage : stages) {
    stage.total = ProfileDepthRow{};
    for (auto& machine : stage.machines) {
      machine.total = ProfileDepthRow{};
      for (const auto& row : machine.depths) machine.total += row;
      stage.total += machine.total;
    }
  }
}

ProfileDepthRow QueryProfile::totals() const {
  ProfileDepthRow all;
  for (const auto& stage : stages) all += stage.total;
  return all;
}

std::string QueryProfile::text() const {
  std::ostringstream out;
  if (!enabled) return "PROFILE: disabled\n";
  out << "PROFILE  stages=" << stages.size() << " machines=" << machines.size()
      << "  " << nonzero(totals()) << '\n';
  for (std::size_t s = 0; s < stages.size(); ++s) {
    const auto& stage = stages[s];
    if (!stage.total.any()) continue;
    out << "S" << s << " [" << stage.note << "] " << nonzero(stage.total)
        << '\n';
    for (std::size_t m = 0; m < stage.machines.size(); ++m) {
      const auto& node = stage.machines[m];
      if (!node.total.any()) continue;
      out << "  m" << m << ": " << nonzero(node.total);
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
    std::string line = "credits m" + std::to_string(m) + ": ";
    append_counters(line, static_cast<const MachineCounters&>(sum),
                    CounterFormat::kText);
    char buf[96];
    std::snprintf(buf, sizeof buf, " stall_events=%llu stall_ms=%.3f",
                  static_cast<ull>(sum.stall_events), sum.stall_ms_total());
    out << line << buf;
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
      max_ctx = std::max(max_ctx, sum.contexts);
      total_ctx += sum.contexts;
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
  std::snprintf(buf, sizeof buf, ", \"machines\": %zu, \"totals\": {",
                machines.size());
  out += buf;
  append_counters(out, totals(), CounterFormat::kJson);
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
    append_counters(out, stage.total, CounterFormat::kJson);
    out += ", \"machines\": [";
    bool first_machine = true;
    for (std::size_t m = 0; m < stage.machines.size(); ++m) {
      const auto& node = stage.machines[m];
      if (!node.total.any()) continue;
      if (!first_machine) out += ", ";
      first_machine = false;
      std::snprintf(buf, sizeof buf, "{\"m\": %zu, ", m);
      out += buf;
      append_counters(out, node.total, CounterFormat::kJson);
      out += ", \"depths\": [";
      bool first_depth = true;
      for (std::size_t d = 0; d < node.depths.size(); ++d) {
        if (!node.depths[d].any()) continue;
        if (!first_depth) out += ", ";
        first_depth = false;
        std::snprintf(buf, sizeof buf, "{\"d\": %zu, ", d);
        out += buf;
        append_counters(out, node.depths[d], CounterFormat::kJson);
        out += "}";
      }
      out += "]}";
    }
    out += "]}";
  }
  out += "], \"credits\": [";
  for (std::size_t m = 0; m < machines.size(); ++m) {
    const auto& sum = machines[m];
    std::snprintf(buf, sizeof buf, "%s{\"m\": %zu, ", m == 0 ? "" : ", ", m);
    out += buf;
    append_counters(out, static_cast<const MachineCounters&>(sum),
                    CounterFormat::kJson);
    std::snprintf(buf, sizeof buf,
                  ", \"stall_events\": %llu, \"stall_ms\": %.3f}",
                  static_cast<ull>(sum.stall_events), sum.stall_ms_total());
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
      node.depths[d] += rows[d];
    }
  }
  ProfileMachineSummary& sum = out.machines[machine];
  for (unsigned c = 0; c < kNumCreditClasses; ++c) {
    sum.stall_ms_by_class[c] += stall_ms_by_class_[c];
  }
  sum.stall_events += stall_events_;
}

}  // namespace rpqd
