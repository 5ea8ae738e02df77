#include "runtime/termination.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/error.h"
#include "common/serialize.h"

namespace rpqd {

TerminationDetector::Lane::Lane(unsigned num_stages, unsigned num_groups)
    : stages_((num_stages + 1) / 2), groups_(num_groups) {}

TerminationDetector::Lane::~Lane() {
  for (auto& g : groups_) {
    for (auto& chunk : g.chunks) delete[] chunk.load(std::memory_order_relaxed);
  }
}

TerminationDetector::Lane::Counters& TerminationDetector::Lane::depth_counters(
    int group, Depth depth, Field f) {
  Depths& g = groups_[static_cast<unsigned>(group)];
  const unsigned k = chunk_of(depth);
  if (depth >= g.extent.load(std::memory_order_relaxed)) {
    engine_check(f != kPopped, "frame_popped without matching push");
    engine_check(depth != kUnboundedDepth, "termination depth overflow");
    for (unsigned c = 0; c <= k; ++c) {
      if (g.chunks[c].load(std::memory_order_relaxed) == nullptr) {
        g.chunks[c].store(new Line[chunk_size(c) / 2],
                          std::memory_order_release);
      }
    }
    g.extent.store(depth + 1, std::memory_order_release);
  }
  return slot(g.chunks[k].load(std::memory_order_relaxed),
              depth - chunk_base(k));
}

void TerminationDetector::Lane::frame_popped(StageId stage, int group,
                                             Depth depth) {
  const auto pop = [](Counters& c) {
    engine_check(c[kPopped].load(std::memory_order_relaxed) <
                     c[kPushed].load(std::memory_order_relaxed),
                 "frame_popped without matching push");
    bump(c[kPopped], 1);
  };
  pop(slot(stages_.data(), stage));
  if (group >= 0) pop(depth_counters(group, depth, kPopped));
}

template <class Fn>
void TerminationDetector::Lane::for_each_depth(unsigned group, Depth extent,
                                               Fn&& fn) const {
  const Depths& g = groups_[group];
  for (unsigned k = 0; k < kChunks && chunk_base(k) < extent; ++k) {
    const Line* chunk = g.chunks[k].load(std::memory_order_acquire);
    const Depth base = chunk_base(k);
    const auto end = static_cast<Depth>(
        std::min<std::uint64_t>(extent, base + chunk_size(k)));
    for (Depth d = base; d < end; ++d) fn(d, slot(chunk, d - base));
  }
}

TerminationDetector::TerminationDetector(MachineId self,
                                         unsigned num_machines,
                                         unsigned num_stages,
                                         unsigned num_groups,
                                         unsigned num_lanes)
    : self_(self),
      num_machines_(num_machines),
      num_stages_(num_stages),
      num_groups_(num_groups),
      last_(num_machines),
      prev_(num_machines) {
  for (unsigned w = 0; w < num_lanes; ++w) {
    lanes_.push_back(std::make_unique<Lane>(num_stages, num_groups));
  }
}

void TerminationDetector::build_status(Network& net) {
  using L = Lane;
  TermStatus& s = scratch_;
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
  s.stages.assign(num_stages_, {0, 0, 0});
  s.groups.resize(num_groups_);
  for (auto& depths : s.groups) depths.clear();
  // Active frames = pushed - popped, summed mod 2^64 in the third slot.
  // Every popped counter is read (pass 1) before any pushed counter
  // (pass 2). A lane pops only frames it pushed, and publishes each pop
  // with a release store after the push, so each lane reads pushed >=
  // popped and the sum can over-report active frames, never under-
  // report them (DESIGN.md §5).
  using Triple = std::array<std::uint64_t, 3>;
  const auto over_lanes = [&](const auto& add) {
    for (const auto& lane : lanes_) {
      for (unsigned i = 0; i < num_stages_; ++i) {
        add(s.stages[i], L::slot(lane->stages_.data(), i));
      }
      for (unsigned g = 0; g < num_groups_; ++g) {
        auto& depths = s.groups[g];
        const Depth extent =
            lane->groups_[g].extent.load(std::memory_order_acquire);
        if (depths.size() < extent) depths.resize(extent, {0, 0, 0});
        lane->for_each_depth(g, extent, [&](Depth d, const L::Counters& c) {
          add(depths[d], c);
        });
      }
    }
  };
  over_lanes([](Triple& t, const L::Counters& c) {
    t[2] -= L::read(c, L::kPopped);
  });
  over_lanes([](Triple& t, const L::Counters& c) {
    t[0] += L::read(c, L::kSent);
    t[1] += L::read(c, L::kProcessed);
    t[2] += L::read(c, L::kPushed);
  });
}

std::pair<std::uint64_t, std::uint64_t> TerminationDetector::stage_totals(
    StageId stage) const {
  std::uint64_t sent = 0;
  std::uint64_t processed = 0;
  for (const auto& lane : lanes_) {
    const Lane::Counters& c = Lane::slot(lane->stages_.data(), stage);
    sent += Lane::read(c, Lane::kSent);
    processed += Lane::read(c, Lane::kProcessed);
  }
  return {sent, processed};
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

/// Decodes everything after the sequence number into `s`, resizing its
/// vectors in place so a recycled status keeps its capacity.
void deserialize_counters(BinaryReader& r, TermStatus& s) {
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
}

}  // namespace

template <class Fill>
void TerminationDetector::store_status(MachineId machine, std::uint64_t seq,
                                       Fill&& fill) {
  std::lock_guard lock(status_mutex_);
  auto& last = last_[machine];
  auto& prev = prev_[machine];
  if (last && seq == last->seq) return;  // duplicate
  if (prev && seq <= prev->seq) return;  // stale
  if (!last || seq > last->seq) {
    // The status leaving the window lends its buffers to the new one.
    std::swap(prev, last);
    if (!last) last.emplace();
    fill(*last);
    last->seq = seq;
    return;
  }
  // Reordered but novel: newer than `prev` (or `prev` is empty) yet
  // older than `last`. The §13 retransmission layer can deliver a lost
  // broadcast after its successor; it still fills the
  // second-confirmation slot. Dropping it instead wedges the decision:
  // a sender whose final two (identical) statuses arrive inverted would
  // be judged unstable forever once it terminates and stops
  // broadcasting.
  if (!prev) prev.emplace();
  fill(*prev);
  prev->seq = seq;
}

void TerminationDetector::on_status(const Message& msg) {
  BinaryReader r(msg.payload);
  const std::uint64_t seq = r.read_varint();
  store_status(msg.header.src, seq,
               [&r](TermStatus& s) { deserialize_counters(r, s); });
}

void TerminationDetector::maybe_broadcast(Network& net, bool force) {
  build_status(net);
  {
    std::lock_guard lock(status_mutex_);
    if (broadcast_valid_ && !force &&
        scratch_.counters_equal(last_broadcast_)) {
      return;
    }
    scratch_.seq = ++seq_;
    last_broadcast_ = scratch_;
    broadcast_valid_ = true;
  }
  broadcast_rounds_.fetch_add(1, std::memory_order_relaxed);
  // Record our own status as if received (uniform decision input).
  store_status(self_, scratch_.seq,
               [this](TermStatus& s) { s = scratch_; });
  const auto payload = serialize_status(scratch_);
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
  for (unsigned m = 0; m < num_machines_; ++m) {
    if (!machine_stable(static_cast<MachineId>(m))) return false;
  }
  for (unsigned i = 0; i < num_stages_; ++i) {
    std::uint64_t sent = 0;
    std::uint64_t processed = 0;
    for (unsigned m = 0; m < num_machines_; ++m) {
      const auto& stages = last_[m]->stages;
      if (i >= stages.size()) continue;
      if (stages[i][2] != 0) return false;  // active frames
      sent += stages[i][0];
      processed += stages[i][1];
    }
    if (sent != processed) return false;
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
  Depth extent = 0;
  if (group < num_groups_) {
    for (const auto& lane : lanes_) {
      extent = std::max(
          extent, lane->groups_[group].extent.load(std::memory_order_acquire));
    }
  }
  return extent == 0 ? 0 : extent - 1;
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
