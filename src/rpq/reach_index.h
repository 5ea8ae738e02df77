// The dynamically-built distributed reachability index (§3.5).
//
// Partitioned by destination vertex: every machine holds the index slice
// for its local vertices, so the atomic check-and-update at the RPQ
// control stage is always a local operation (the control stage executes
// at the destination vertex's owner).
//
// Layout: a small power-of-two number of cache-line-aligned shards
// (selected by mixing the destination vertex id), each a chain of
// open-addressing segments keyed by (destination vertex, source rpid).
// Inserts claim a slot with a single compare-and-swap; depth updates are
// a CAS-min loop on the entry's depth word. No locks anywhere on the
// check-and-update path. Segments never move: when a probe window fills
// up, a doubled segment is chained behind it, so readers are never
// invalidated by growth.
//
// `preallocate` (the paper's §4.5 future-work idea of trading memory for
// allocation-free inserts) reserves one contiguous bump-arena at
// construction; first segments and growth segments are carved out of it
// and the hot path performs zero heap allocations until the arena is
// exhausted. Heap fallbacks are counted in `hot_allocations` so tests
// and benchmarks can assert the allocation-free property.
//
// Each entry accounts for 12 bytes (8B source rpid + 4B depth), matching
// the paper's size arithmetic (181MB for Q9, 4.4MB for Q10 on SF100);
// `reserved_bytes` additionally reports the real slot memory.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/types.h"

namespace rpqd {

/// Result of the atomic check-and-update (§4.4 terminology).
enum class ReachOutcome : std::uint8_t {
  kNew,         // first visit: emit the match and keep exploring
  kEliminated,  // already reached at a lower-or-equal depth: prune
  kDuplicated,  // already reached at a greater depth: update, keep
                // exploring, but do not emit again
};

struct ReachIndexStats {
  std::uint64_t entries = 0;
  std::uint64_t eliminated = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t dynamic_bytes = 0;    // 12 bytes per entry (§4.4 arithmetic)
  std::uint64_t reserved_bytes = 0;   // slot memory actually reserved
  std::uint64_t hot_allocations = 0;  // heap allocations on the hot path
};

class ReachabilityIndex {
 public:
  /// `preallocate` reserves the bump-arena described above; `num_shards`
  /// is rounded up to a power of two (capped at 256).
  explicit ReachabilityIndex(std::size_t num_local_vertices,
                             bool preallocate = false,
                             unsigned num_shards = 16);
  ~ReachabilityIndex();

  ReachabilityIndex(const ReachabilityIndex&) = delete;
  ReachabilityIndex& operator=(const ReachabilityIndex&) = delete;

  /// Atomic check-and-update for path (src_rpid -> dst) observed at
  /// `depth`. Thread-safe; called concurrently by all local workers.
  ReachOutcome check_and_update(LocalVertexId dst, std::uint64_t src_rpid,
                                Depth depth);

  /// Point lookup (tests / debugging).
  std::optional<Depth> lookup(LocalVertexId dst, std::uint64_t src_rpid) const;

  ReachIndexStats stats() const;

  /// Cheap live estimate of the index's dynamic footprint (12 bytes per
  /// entry, the §4.4 arithmetic): a handful of relaxed shard-counter
  /// loads, no locks. The reach_index_max_bytes budget polls this on the
  /// control-stage hot path — only when that budget is armed.
  std::uint64_t approx_dynamic_bytes() const {
    std::uint64_t entries = 0;
    for (const auto& shard : shards_) {
      entries += shard.entries.load(std::memory_order_relaxed);
    }
    return entries * 12;
  }

  /// Post-run audit: number of surplus copies of (dst, rpid) keys across
  /// all segments (a key stored k times counts k - 1). The CAS claim
  /// protocol guarantees 0; the engine reports it after every run and the
  /// tests assert it. Allocation-free: each occupied slot re-walks its
  /// key's probe sequence from the shard head and counts as a duplicate
  /// unless it is the first slot there holding the key. Shards with no
  /// entries are skipped. Call only when the index is quiescent.
  std::uint64_t duplicate_entries() const;

 private:
  // One slot. `ctrl` is the claim word: kCtrlEmpty -> kCtrlBusy (claimed,
  // key/depth being written) -> ready (occupied-bit | destination vertex).
  // Probers that observe kCtrlBusy spin briefly; the window between claim
  // and publish is two relaxed stores.
  struct Entry {
    std::atomic<std::uint64_t> ctrl;
    std::atomic<std::uint64_t> rpid;
    std::atomic<std::uint32_t> depth;
  };

  struct Segment {
    std::size_t capacity = 0;  // power of two
    bool from_arena = false;
    std::atomic<Segment*> next{nullptr};
    Entry* entries() { return reinterpret_cast<Entry*>(this + 1); }
    const Entry* entries() const {
      return reinterpret_cast<const Entry*>(this + 1);
    }
  };

  struct alignas(64) Shard {
    std::atomic<Segment*> head{nullptr};
    // Per-shard statistics so the hot path never contends on global
    // counters; stats() sums them.
    std::atomic<std::uint64_t> entries{0};
    std::atomic<std::uint64_t> eliminated{0};
    std::atomic<std::uint64_t> duplicated{0};
    std::atomic<std::uint64_t> hot_allocs{0};
    std::atomic<std::uint64_t> reserved_bytes{0};
  };

  friend class ReachabilityIndexTestPeer;

  /// Start of the probe sequence of (dst, rpid) in every segment.
  static std::uint64_t slot_hash(LocalVertexId dst, std::uint64_t rpid);
  /// The first slot on the probe sequence of (ready >> 2, rpid), walking
  /// every segment from `head`, that holds that key; null when none does.
  static const Entry* first_match(const Segment* head, std::uint64_t ready,
                                  std::uint64_t rpid);
  Segment* allocate_segment(std::size_t capacity, bool on_hot_path,
                            Shard& shard);
  Segment* next_segment(Segment* seg, Shard& shard);
  std::byte* arena_take(std::size_t bytes);

  std::size_t num_vertices_;
  std::uint64_t shard_mask_ = 0;
  std::vector<Shard> shards_;
  std::unique_ptr<std::byte[]> arena_;
  std::size_t arena_size_ = 0;
  std::atomic<std::size_t> arena_used_{0};
};

}  // namespace rpqd
