#include "rpq/reach_index.h"

#include <algorithm>
#include <bit>
#include <new>
#include <thread>
#include <unordered_set>
#include <utility>

#include "common/error.h"
#include "common/hash.h"

namespace rpqd {
namespace {

// Claim-word states. Occupied slots carry the destination vertex in the
// upper bits so two keys that share a shard but differ in `dst` never
// compare equal on the rpid word alone (rpid 0 is a valid key).
constexpr std::uint64_t kCtrlEmpty = 0;
constexpr std::uint64_t kCtrlBusy = 1;
constexpr std::uint64_t ctrl_ready(LocalVertexId dst) {
  return (static_cast<std::uint64_t>(dst) << 2) | 2;
}

// Slots probed per segment before spilling into the next (doubled)
// segment. Bounded and deterministic: two workers inserting the same key
// walk the exact same slot sequence, which is what makes the claim
// protocol double-insert free.
constexpr std::size_t kProbeWindow = 16;

constexpr std::uint64_t slot_hash(LocalVertexId dst, std::uint64_t rpid) {
  return mix64(rpid ^ (static_cast<std::uint64_t>(dst) *
                       0x9e3779b97f4a7c15ULL));
}

constexpr std::size_t round_up64(std::size_t bytes) {
  return (bytes + 63) & ~std::size_t{63};
}

inline void spin_pause(unsigned& spins) {
  if (++spins > 64) {
    std::this_thread::yield();
    spins = 0;
  }
}

}  // namespace

ReachabilityIndex::ReachabilityIndex(std::size_t num_local_vertices,
                                     bool preallocate, unsigned num_shards)
    : num_vertices_(num_local_vertices) {
  if (num_shards == 0) num_shards = 1;
  if (num_shards > 256) num_shards = 256;
  const std::size_t shard_count = std::bit_ceil(std::size_t{num_shards});
  shard_mask_ = shard_count - 1;
  shards_ = std::vector<Shard>(shard_count);

  // First-segment capacity: with preallocation we budget ~4 index entries
  // per local vertex (Q9-style fan-in); lazily we start small and double.
  const std::size_t total_target =
      preallocate ? std::max<std::size_t>(1024, 4 * num_local_vertices)
                  : std::max<std::size_t>(256, num_local_vertices);
  const std::size_t cap0 =
      std::bit_ceil(std::max<std::size_t>(64, total_target / shard_count));

  if (preallocate) {
    // One contiguous arena holding every shard's first segment plus ~two
    // rounds of doubling headroom (1 + 2 + 4 = 7x); growth past that
    // falls back to the heap and is counted in hot_allocations.
    const std::size_t seg_bytes =
        round_up64(sizeof(Segment) + cap0 * sizeof(Entry));
    arena_size_ = 7 * shard_count * seg_bytes;
    arena_ = std::make_unique<std::byte[]>(arena_size_);
  }

  for (auto& shard : shards_) {
    Segment* seg = allocate_segment(cap0, /*on_hot_path=*/false, shard);
    shard.head.store(seg, std::memory_order_release);
  }
}

ReachabilityIndex::~ReachabilityIndex() {
  for (auto& shard : shards_) {
    Segment* seg = shard.head.load(std::memory_order_acquire);
    while (seg != nullptr) {
      Segment* next = seg->next.load(std::memory_order_acquire);
      if (!seg->from_arena) ::operator delete(seg);
      seg = next;
    }
  }
}

std::byte* ReachabilityIndex::arena_take(std::size_t bytes) {
  if (arena_ == nullptr) return nullptr;
  std::size_t offset = arena_used_.fetch_add(bytes, std::memory_order_relaxed);
  if (offset + bytes > arena_size_) return nullptr;  // exhausted
  return arena_.get() + offset;
}

ReachabilityIndex::Segment* ReachabilityIndex::allocate_segment(
    std::size_t capacity, bool on_hot_path, Shard& shard) {
  const std::size_t bytes =
      round_up64(sizeof(Segment) + capacity * sizeof(Entry));
  std::byte* mem = arena_take(bytes);
  bool from_arena = mem != nullptr;
  if (!from_arena) {
    mem = static_cast<std::byte*>(::operator new(bytes));
    if (on_hot_path) {
      shard.hot_allocs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  Segment* seg = new (mem) Segment{};
  seg->capacity = capacity;
  seg->from_arena = from_arena;
  Entry* entries = seg->entries();
  for (std::size_t i = 0; i < capacity; ++i) new (&entries[i]) Entry{};
  shard.reserved_bytes.fetch_add(bytes, std::memory_order_relaxed);
  return seg;
}

ReachabilityIndex::Segment* ReachabilityIndex::next_segment(Segment* seg,
                                                            Shard& shard) {
  Segment* next = seg->next.load(std::memory_order_acquire);
  if (next != nullptr) return next;
  Segment* fresh =
      allocate_segment(seg->capacity * 2, /*on_hot_path=*/true, shard);
  Segment* expected = nullptr;
  if (seg->next.compare_exchange_strong(expected, fresh,
                                        std::memory_order_acq_rel)) {
    return fresh;
  }
  // Lost the race: discard ours (arena space, if used, is simply wasted).
  shard.reserved_bytes.fetch_sub(
      round_up64(sizeof(Segment) + fresh->capacity * sizeof(Entry)),
      std::memory_order_relaxed);
  if (!fresh->from_arena) {
    fresh->~Segment();
    ::operator delete(fresh);
  }
  return expected;
}

ReachOutcome ReachabilityIndex::check_and_update(LocalVertexId dst,
                                                 std::uint64_t src_rpid,
                                                 Depth depth) {
  engine_check(dst < num_vertices_, "reach index: vertex out of range");
  Shard& shard = shards_[mix64(dst) & shard_mask_];
  const std::uint64_t hash = slot_hash(dst, src_rpid);
  const std::uint64_t ready = ctrl_ready(dst);

  Segment* seg = shard.head.load(std::memory_order_acquire);
  unsigned spins = 0;
  while (true) {
    Entry* entries = seg->entries();
    const std::size_t mask = seg->capacity - 1;
    for (std::size_t probe = 0; probe < kProbeWindow; ++probe) {
      Entry& entry = entries[(hash + probe) & mask];
      while (true) {
        std::uint64_t ctrl = entry.ctrl.load(std::memory_order_acquire);
        if (ctrl == kCtrlEmpty) {
          std::uint64_t expected = kCtrlEmpty;
          if (entry.ctrl.compare_exchange_strong(expected, kCtrlBusy,
                                                 std::memory_order_acq_rel)) {
            entry.rpid.store(src_rpid, std::memory_order_relaxed);
            entry.depth.store(depth, std::memory_order_relaxed);
            entry.ctrl.store(ready, std::memory_order_release);
            shard.entries.fetch_add(1, std::memory_order_relaxed);
            return ReachOutcome::kNew;
          }
          continue;  // lost the claim: re-examine this same slot
        }
        if (ctrl == kCtrlBusy) {
          spin_pause(spins);  // claimer is publishing; retry shortly
          continue;
        }
        if (ctrl == ready &&
            entry.rpid.load(std::memory_order_relaxed) == src_rpid) {
          // Found: CAS-min on the depth word.
          std::uint32_t stored = entry.depth.load(std::memory_order_relaxed);
          while (true) {
            if (stored <= depth) {
              shard.eliminated.fetch_add(1, std::memory_order_relaxed);
              return ReachOutcome::kEliminated;
            }
            if (entry.depth.compare_exchange_weak(
                    stored, depth, std::memory_order_acq_rel,
                    std::memory_order_relaxed)) {
              shard.duplicated.fetch_add(1, std::memory_order_relaxed);
              return ReachOutcome::kDuplicated;
            }
          }
        }
        break;  // occupied by a different key: next probe slot
      }
    }
    seg = next_segment(seg, shard);  // window exhausted: spill
  }
}

std::optional<Depth> ReachabilityIndex::lookup(LocalVertexId dst,
                                               std::uint64_t src_rpid) const {
  if (dst >= num_vertices_) return std::nullopt;
  const Shard& shard = shards_[mix64(dst) & shard_mask_];
  const std::uint64_t hash = slot_hash(dst, src_rpid);
  const std::uint64_t ready = ctrl_ready(dst);

  const Segment* seg = shard.head.load(std::memory_order_acquire);
  unsigned spins = 0;
  while (seg != nullptr) {
    const Entry* entries = seg->entries();
    const std::size_t mask = seg->capacity - 1;
    for (std::size_t probe = 0; probe < kProbeWindow; ++probe) {
      const Entry& entry = entries[(hash + probe) & mask];
      std::uint64_t ctrl = entry.ctrl.load(std::memory_order_acquire);
      while (ctrl == kCtrlBusy) {
        spin_pause(spins);
        ctrl = entry.ctrl.load(std::memory_order_acquire);
      }
      if (ctrl == kCtrlEmpty) return std::nullopt;
      if (ctrl == ready &&
          entry.rpid.load(std::memory_order_relaxed) == src_rpid) {
        return entry.depth.load(std::memory_order_relaxed);
      }
    }
    seg = seg->next.load(std::memory_order_acquire);
  }
  return std::nullopt;
}

std::uint64_t ReachabilityIndex::duplicate_entries() const {
  struct KeyHash {
    std::size_t operator()(const std::pair<std::uint64_t, std::uint64_t>& k)
        const {
      return static_cast<std::size_t>(mix64(k.first ^ mix64(k.second)));
    }
  };
  std::unordered_set<std::pair<std::uint64_t, std::uint64_t>, KeyHash> keys;
  std::uint64_t duplicates = 0;
  for (const auto& shard : shards_) {
    const Segment* seg = shard.head.load(std::memory_order_acquire);
    while (seg != nullptr) {
      const Entry* entries = seg->entries();
      for (std::size_t i = 0; i < seg->capacity; ++i) {
        const std::uint64_t ctrl = entries[i].ctrl.load(
            std::memory_order_acquire);
        if (ctrl == kCtrlEmpty || ctrl == kCtrlBusy) continue;
        const std::uint64_t dst = ctrl >> 2;  // inverse of ctrl_ready
        const std::uint64_t rpid =
            entries[i].rpid.load(std::memory_order_relaxed);
        if (!keys.emplace(dst, rpid).second) ++duplicates;
      }
      seg = seg->next.load(std::memory_order_acquire);
    }
  }
  return duplicates;
}

ReachIndexStats ReachabilityIndex::stats() const {
  ReachIndexStats s;
  for (const auto& shard : shards_) {
    s.entries += shard.entries.load(std::memory_order_relaxed);
    s.eliminated += shard.eliminated.load(std::memory_order_relaxed);
    s.duplicated += shard.duplicated.load(std::memory_order_relaxed);
    s.hot_allocations += shard.hot_allocs.load(std::memory_order_relaxed);
    s.reserved_bytes += shard.reserved_bytes.load(std::memory_order_relaxed);
  }
  s.dynamic_bytes = s.entries * 12;  // 8B rpid + 4B depth, as in §4.4
  return s;
}

}  // namespace rpqd
