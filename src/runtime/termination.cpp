#include "runtime/termination.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/error.h"
#include "common/serialize.h"

namespace rpqd {

TerminationDetector::TerminationDetector(MachineId self,
                                         unsigned num_machines,
                                         unsigned num_stages,
                                         unsigned num_groups)
    : self_(self),
      num_machines_(num_machines),
      num_stages_(num_stages),
      num_groups_(num_groups),
      stage_sent_(num_stages),
      stage_processed_(num_stages),
      stage_active_(num_stages),
      group_counters_(num_groups),
      last_(num_machines),
      prev_(num_machines) {
  for (auto& a : stage_sent_) a.store(0, std::memory_order_relaxed);
  for (auto& a : stage_processed_) a.store(0, std::memory_order_relaxed);
  for (auto& a : stage_active_) a.store(0, std::memory_order_relaxed);
}

void TerminationDetector::note_sent(StageId stage, int group, Depth depth,
                                    std::uint64_t n) {
  stage_sent_[stage].fetch_add(n, std::memory_order_relaxed);
  if (group >= 0) {
    std::lock_guard lock(group_mutex_);
    auto& depths = group_counters_[static_cast<unsigned>(group)];
    if (depth >= depths.size()) depths.resize(depth + 1, {0, 0, 0});
    depths[depth][0] += n;
  }
}

void TerminationDetector::note_processed(StageId stage, int group, Depth depth,
                                         std::uint64_t n) {
  stage_processed_[stage].fetch_add(n, std::memory_order_relaxed);
  if (group >= 0) {
    std::lock_guard lock(group_mutex_);
    auto& depths = group_counters_[static_cast<unsigned>(group)];
    if (depth >= depths.size()) depths.resize(depth + 1, {0, 0, 0});
    depths[depth][1] += n;
  }
}

void TerminationDetector::frame_pushed(StageId stage, int group, Depth depth) {
  stage_active_[stage].fetch_add(1, std::memory_order_seq_cst);
  if (group >= 0) {
    std::lock_guard lock(group_mutex_);
    auto& depths = group_counters_[static_cast<unsigned>(group)];
    if (depth >= depths.size()) depths.resize(depth + 1, {0, 0, 0});
    ++depths[depth][2];
  }
}

void TerminationDetector::frame_popped(StageId stage, int group, Depth depth) {
  stage_active_[stage].fetch_sub(1, std::memory_order_seq_cst);
  if (group >= 0) {
    std::lock_guard lock(group_mutex_);
    auto& depths = group_counters_[static_cast<unsigned>(group)];
    engine_check(depth < depths.size() && depths[depth][2] > 0,
                 "frame_popped without matching push");
    --depths[depth][2];
  }
}

TermStatus TerminationDetector::build_status(Network& net) const {
  TermStatus s;
  s.idle = idle_.load(std::memory_order_seq_cst);
  // The fields are read one after another, not atomically together.
  // That is enough: a decision uses only stable statuses (two identical
  // in a row), and a monotonic counter that reads the same in both was
  // constant in between, so a stable status describes one instant.
  const Inbox& inbox = net.inbox(self_);
  s.links.resize(num_machines_);
  for (unsigned m = 0; m < num_machines_; ++m) {
    const auto peer = static_cast<MachineId>(m);
    s.links[m] = {net.data_sent(self_, peer), inbox.delivered_from(peer)};
  }
  s.stages.resize(num_stages_);
  for (unsigned i = 0; i < num_stages_; ++i) {
    s.stages[i] = {stage_sent_[i].load(std::memory_order_relaxed),
                   stage_processed_[i].load(std::memory_order_relaxed),
                   static_cast<std::uint64_t>(std::max<std::int64_t>(
                       0, stage_active_[i].load(std::memory_order_seq_cst)))};
  }
  {
    std::lock_guard lock(group_mutex_);
    s.groups = group_counters_;
  }
  return s;
}

namespace {

std::vector<std::byte> serialize_status(const TermStatus& s) {
  std::vector<std::byte> out;
  BinaryWriter w(out);
  w.write_varint(s.seq);
  w.write<std::uint8_t>(s.idle ? 1 : 0);
  w.write_varint(s.stages.size());
  for (const auto& t : s.stages) {
    for (const auto v : t) w.write_varint(v);
  }
  w.write_varint(s.groups.size());
  for (const auto& g : s.groups) {
    w.write_varint(g.size());
    for (const auto& t : g) {
      for (const auto v : t) w.write_varint(v);
    }
  }
  w.write_varint(s.links.size());
  for (const auto& l : s.links) {
    for (const auto v : l) w.write_varint(v);
  }
  return out;
}

TermStatus deserialize_status(std::span<const std::byte> payload) {
  BinaryReader r(payload);
  TermStatus s;
  s.seq = r.read_varint();
  s.idle = r.read<std::uint8_t>() != 0;
  s.stages.resize(r.read_varint());
  for (auto& t : s.stages) {
    for (auto& v : t) v = r.read_varint();
  }
  s.groups.resize(r.read_varint());
  for (auto& g : s.groups) {
    g.resize(r.read_varint());
    for (auto& t : g) {
      for (auto& v : t) v = r.read_varint();
    }
  }
  s.links.resize(r.read_varint());
  for (auto& l : s.links) {
    for (auto& v : l) v = r.read_varint();
  }
  return s;
}

}  // namespace

void TerminationDetector::store_status(MachineId machine, TermStatus status) {
  std::lock_guard lock(status_mutex_);
  auto& last = last_[machine];
  auto& prev = prev_[machine];
  if (last && status.seq == last->seq) return;  // duplicate
  if (prev && status.seq <= prev->seq) return;  // stale
  if (!last || status.seq > last->seq) {
    prev = std::move(last);
    last = std::move(status);
    return;
  }
  // Reordered but novel: newer than `prev` (or `prev` is empty) yet
  // older than `last`. The §13 retransmission layer can deliver a lost
  // broadcast after its successor; it still fills the
  // second-confirmation slot. Dropping it instead wedges the decision:
  // a sender whose final two (identical) statuses arrive inverted would
  // be judged unstable forever once it terminates and stops
  // broadcasting.
  prev = std::move(status);
}

void TerminationDetector::on_status(const Message& msg) {
  store_status(msg.header.src, deserialize_status(msg.payload));
}

void TerminationDetector::maybe_broadcast(Network& net, bool force) {
  TermStatus status = build_status(net);
  {
    std::lock_guard lock(status_mutex_);
    if (broadcast_valid_ && !force &&
        status.counters_equal(last_broadcast_)) {
      return;
    }
    status.seq = ++seq_;
    last_broadcast_ = status;
    broadcast_valid_ = true;
  }
  broadcast_rounds_.fetch_add(1, std::memory_order_relaxed);
  // Record our own status as if received (uniform decision input).
  store_status(self_, status);
  const auto payload = serialize_status(status);
  for (unsigned m = 0; m < num_machines_; ++m) {
    if (m == self_) continue;
    Message msg;
    msg.header.type = MessageType::kTermination;
    msg.header.src = self_;
    msg.payload = payload;
    net.send(static_cast<MachineId>(m), std::move(msg));
  }
}

bool TerminationDetector::machine_stable(MachineId m) const {
  const auto& last = last_[m];
  const auto& prev = prev_[m];
  return last && prev && last->idle && prev->idle &&
         last->counters_equal(*prev);
}

bool TerminationDetector::globally_terminated() const {
  std::lock_guard lock(status_mutex_);
  std::vector<std::uint64_t> sent(num_stages_, 0);
  std::vector<std::uint64_t> processed(num_stages_, 0);
  std::uint64_t active = 0;
  for (unsigned m = 0; m < num_machines_; ++m) {
    if (!machine_stable(static_cast<MachineId>(m))) return false;
    const TermStatus& s = *last_[m];
    for (unsigned i = 0; i < s.stages.size() && i < num_stages_; ++i) {
      sent[i] += s.stages[i][0];
      processed[i] += s.stages[i][1];
      active += s.stages[i][2];
    }
  }
  if (active != 0) return false;
  for (unsigned i = 0; i < num_stages_; ++i) {
    if (sent[i] != processed[i]) return false;
  }
  // Consistent cut: each machine's last status must count exactly the
  // data messages its peers' last statuses count as delivered from it.
  // The stage sums alone accept a peer whose stable status is stale: a
  // message it processed after that status (missing from its counts)
  // cancels one it sent meanwhile that another machine already
  // processed, and the decision comes while work is still live.
  const auto link = [this](MachineId m, MachineId peer, unsigned half) {
    const auto& links = last_[m]->links;
    return peer < links.size() ? links[peer][half] : 0;
  };
  for (unsigned x = 0; x < num_machines_; ++x) {
    for (unsigned y = 0; y < num_machines_; ++y) {
      const auto from = static_cast<MachineId>(x);
      const auto to = static_cast<MachineId>(y);
      if (link(from, to, 0) != link(to, from, 1)) return false;
    }
  }
  return true;
}

unsigned TerminationDetector::terminated_stage_prefix() const {
  std::lock_guard lock(status_mutex_);
  for (unsigned s = 0; s < num_stages_; ++s) {
    std::uint64_t sent = 0;
    std::uint64_t processed = 0;
    std::uint64_t active = 0;
    for (unsigned m = 0; m < num_machines_; ++m) {
      const auto& last = last_[m];
      const auto& prev = prev_[m];
      if (!last || !prev) return s;
      if (s >= last->stages.size() || s >= prev->stages.size()) return s;
      // Per-stage stability: this stage's triple unchanged between the
      // two most recent statuses of machine m.
      if (last->stages[s] != prev->stages[s]) return s;
      sent += last->stages[s][0];
      processed += last->stages[s][1];
      active += last->stages[s][2];
    }
    if (sent != processed || active != 0) return s;
  }
  return num_stages_;
}

bool TerminationDetector::depth_terminated(unsigned group, Depth depth) const {
  std::lock_guard lock(status_mutex_);
  for (Depth d = 0; d <= depth; ++d) {
    std::uint64_t sent = 0;
    std::uint64_t processed = 0;
    std::uint64_t active = 0;
    for (unsigned m = 0; m < num_machines_; ++m) {
      const auto& last = last_[m];
      const auto& prev = prev_[m];
      if (!last || !prev) return false;
      const auto triple_of = [&](const TermStatus& s)
          -> std::array<std::uint64_t, 3> {
        if (group >= s.groups.size() || d >= s.groups[group].size()) {
          return {0, 0, 0};
        }
        return s.groups[group][d];
      };
      const auto lt = triple_of(*last);
      if (lt != triple_of(*prev)) return false;  // not stable at this depth
      sent += lt[0];
      processed += lt[1];
      active += lt[2];
    }
    if (sent != processed || active != 0) return false;
  }
  return true;
}

std::optional<Depth> TerminationDetector::consensus_max_depth(
    unsigned group) const {
  const bool dbg = std::getenv("RPQD_TERM_DEBUG") != nullptr;
  {
    std::lock_guard lock(status_mutex_);
    for (unsigned m = 0; m < num_machines_; ++m) {
      if (!machine_stable(static_cast<MachineId>(m))) {
        if (dbg) {
          const auto& last = last_[m];
          const auto& prev = prev_[m];
          std::fprintf(stderr,
                       "[term] m=%u not stable: last=%d prev=%d lidle=%d "
                       "pidle=%d eq=%d\n",
                       m, last.has_value(), prev.has_value(),
                       last ? last->idle : -1, prev ? prev->idle : -1,
                       (last && prev) ? last->counters_equal(*prev) : -1);
        }
        return std::nullopt;
      }
    }
  }
  Depth max_depth = 0;
  bool any = false;
  {
    std::lock_guard lock(status_mutex_);
    for (unsigned m = 0; m < num_machines_; ++m) {
      const TermStatus& s = *last_[m];
      if (group < s.groups.size() && !s.groups[group].empty()) {
        max_depth = std::max(
            max_depth, static_cast<Depth>(s.groups[group].size() - 1));
        any = true;
      }
    }
  }
  if (!any) {
    if (dbg) std::fprintf(stderr, "[term] group=%u no counters anywhere\n",
                          group);
    return std::nullopt;
  }
  if (!depth_terminated(group, max_depth)) {
    if (dbg) {
      std::fprintf(stderr, "[term] group=%u depth_terminated(%u) false\n",
                   group, static_cast<unsigned>(max_depth));
    }
    return std::nullopt;
  }
  return max_depth;
}

Depth TerminationDetector::local_max_depth(unsigned group) const {
  std::lock_guard lock(group_mutex_);
  if (group >= group_counters_.size() || group_counters_[group].empty()) {
    return 0;
  }
  return static_cast<Depth>(group_counters_[group].size() - 1);
}

std::string TerminationDetector::debug_string() const {
  std::lock_guard lock(status_mutex_);
  std::string out;
  char buf[128];
  for (unsigned m = 0; m < num_machines_; ++m) {
    const auto sum = [](const std::optional<TermStatus>& s) {
      std::array<std::uint64_t, 3> t{0, 0, 0};
      if (s) {
        for (const auto& st : s->stages) {
          t[0] += st[0];
          t[1] += st[1];
          t[2] += st[2];
        }
      }
      return t;
    };
    const auto l = sum(last_[m]);
    const auto p = sum(prev_[m]);
    std::snprintf(
        buf, sizeof(buf), "m%u{last=#%llu i%d %llu/%llu/%llu prev=#%llu} ", m,
        last_[m] ? (unsigned long long)last_[m]->seq : 0ull,
        last_[m] ? (int)last_[m]->idle : -1, (unsigned long long)l[0],
        (unsigned long long)l[1], (unsigned long long)l[2],
        prev_[m] ? (unsigned long long)prev_[m]->seq : 0ull);
    out += buf;
    if (prev_[m] && last_[m] && !last_[m]->counters_equal(*prev_[m])) {
      out += "!eq ";
    }
    (void)p;
  }
  return out;
}

}  // namespace rpqd
