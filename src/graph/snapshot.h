// Snapshot isolation for online updates (DESIGN.md §12).
//
// A GraphSnapshot is an IMMUTABLE view of the partitioned graph at one
// epoch: the flat base CSR (the PartitionedGraph built at load or by the
// last merge) plus per-machine delta segments layered on top. Applying an
// update batch builds the NEXT snapshot (epoch + 1) without touching the
// previous one; publication is a shared_ptr swap (RCU-style), so a query
// that pinned a snapshot at admission traverses exactly that version for
// its whole run — a torn batch is unobservable by construction, and
// "quiescence" for the background merge is automatic: the old base is
// freed when the last pinned query drains.
//
// Delta layering: a vertex whose adjacency the deltas touched is PATCHED —
// its FULL adjacency (retained base entries + inserted edges, minus
// tombstoned ones) is materialized into a per-machine patch CSR, row-form
// identical to the base (sorted by (elabel, other), aligned edge-property
// columns). Untouched vertices resolve through the base CSR. Flat entry
// indices keep working unchanged in the traversal hot path: base entries
// occupy [0, split) and patch entries [split, split + patch_entries), so
// the Frame cursor/end iteration, binary-searched label ranges, and
// edge-property slot reads all dispatch on a single comparison.
//
// Vertex ids are STABLE across epochs and across merges: deletes
// tombstone (the id keeps hashing to the same partition, its local slot
// keeps existing with alive() == false), inserts append fresh ids. Local
// ids on a machine only grow between merges; a merge rebuilds the
// partitions (dropping dead locals) and therefore invalidates every
// local-id-keyed side structure; none outlives a query.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/hash.h"
#include "common/types.h"
#include "graph/partition.h"
#include "graph/update.h"

namespace rpqd {

class PartitionView;
class GraphSnapshot;

/// Hot-vertex replication (DESIGN.md §14): the adjacency of a small set
/// of hot vertices, mirrored to EVERY machine and pre-bucketed by the
/// destination's owner. When a traversal expands through a hot vertex,
/// its owner sends one mirror-expand message per peer machine instead of
/// one context per remote neighbor; each peer enumerates its own bucket
/// locally. Buckets are plain Adjacency CSRs — one per (machine,
/// direction), rows indexed by hot rank — keeping (elabel, other) sort
/// order and edge-property columns, so receiver-side enumeration is
/// bit-compatible with the owner's.
///
/// A MirrorSet is immutable and rides the GraphSnapshot that built it:
/// an update whose DirtyScope touches a mirrored vertex rebuilds the set
/// before the next snapshot publishes (epoch coherence); untouched
/// updates share the previous set.
class MirrorSet {
 public:
  /// Builds buckets for `hot` (dead/unknown ids get empty rows) against
  /// the given snapshot. `version` is a monotone rebuild counter.
  static std::shared_ptr<const MirrorSet> build(const GraphSnapshot& snap,
                                                std::vector<VertexId> hot,
                                                std::uint64_t version);

  /// Hot rank of `v`, or nullopt when not mirrored. Armed traversals ask
  /// this once per frame, overwhelmingly answering "no": a 4096-bit
  /// membership pre-filter turns almost every miss into one bit test
  /// instead of an unordered_map probe.
  std::optional<std::uint32_t> row_of(VertexId v) const {
    const std::uint64_t h = mix64(v);
    if ((filter_[(h >> 6) & 63] & (1ull << (h & 63))) == 0) {
      return std::nullopt;
    }
    const auto it = index_.find(v);
    if (it == index_.end()) return std::nullopt;
    return it->second;
  }

  /// Machine m's bucket for one direction; row = hot rank.
  const Adjacency& bucket(MachineId m, Direction d) const {
    return d == Direction::kIn ? in_[m] : out_[m];
  }

  std::size_t bucket_degree(MachineId m, std::uint32_t row,
                            Direction d) const {
    return bucket(m, d).degree(row);
  }

  const std::vector<VertexId>& hot() const { return hot_; }
  std::uint64_t version() const { return version_; }
  std::uint64_t entries() const { return entries_; }
  unsigned num_machines() const { return static_cast<unsigned>(out_.size()); }

 private:
  std::vector<VertexId> hot_;  // sorted; rank = position
  std::array<std::uint64_t, 64> filter_{};  // membership pre-filter
  std::unordered_map<VertexId, std::uint32_t> index_;
  std::vector<Adjacency> out_;  // [machine], one row per hot vertex
  std::vector<Adjacency> in_;
  std::uint64_t version_ = 0;
  std::uint64_t entries_ = 0;  // mirrored adjacency entries, both dirs
};

/// Adjacency of one direction of one PartitionView: the base partition's
/// flat CSR with the patch CSR layered over dirty vertices. Mirrors the
/// read API of Adjacency; entry indices < split() address the base CSR,
/// indices >= split() address the patch (offset by split()).
class ViewAdjacency {
 public:
  std::pair<std::size_t, std::size_t> range(std::size_t v) const {
    const std::uint32_t row = row_of(v);
    if (row == 0) return base_->range(v);
    const auto [b, e] = patch_->range(row - 1);
    return {b + split_, e + split_};
  }

  std::pair<std::size_t, std::size_t> label_range(std::size_t v,
                                                  LabelId elabel) const {
    const std::uint32_t row = row_of(v);
    if (row == 0) return base_->label_range(v, elabel);
    const auto [b, e] = patch_->label_range(row - 1, elabel);
    return {b + split_, e + split_};
  }

  bool has_edge_to(std::size_t v, VertexId other,
                   std::optional<LabelId> elabel) const {
    const std::uint32_t row = row_of(v);
    return row == 0 ? base_->has_edge_to(v, other, elabel)
                    : patch_->has_edge_to(row - 1, other, elabel);
  }

  std::size_t count_edges_to(std::size_t v, VertexId other,
                             std::optional<LabelId> elabel) const {
    const std::uint32_t row = row_of(v);
    return row == 0 ? base_->count_edges_to(v, other, elabel)
                    : patch_->count_edges_to(row - 1, other, elabel);
  }

  const AdjEntry& entry(std::size_t idx) const {
    return idx < split_ ? base_->entry(idx) : patch_->entry(idx - split_);
  }

  Value edge_property(std::size_t idx, PropId prop) const {
    return idx < split_ ? base_->edge_property(idx, prop)
                        : patch_->edge_property(idx - split_, prop);
  }

  std::size_t degree(std::size_t v) const {
    const std::uint32_t row = row_of(v);
    return row == 0 ? base_->degree(v) : patch_->degree(row - 1);
  }

  /// Patch-segment entry count (delta bytes living over this direction).
  std::size_t patch_entries() const { return patch_->num_entries(); }

 private:
  friend class PartitionView;
  void init(const Adjacency* base, const Adjacency* patch,
            const std::vector<std::uint32_t>* patch_row) {
    base_ = base;
    patch_ = patch;
    patch_row_ = patch_row;
    split_ = base->num_entries();
  }

  /// 0 = unpatched (resolve through the base CSR; only valid for locals
  /// that exist in the base), else patch row + 1. patch_row_ is empty on
  /// a delta-free view and fully sized otherwise — new and dead locals
  /// are ALWAYS patched (the base CSR has no row for them).
  std::uint32_t row_of(std::size_t v) const {
    return patch_row_->empty() ? 0 : (*patch_row_)[v];
  }

  const Adjacency* base_ = nullptr;
  const Adjacency* patch_ = nullptr;
  const std::vector<std::uint32_t>* patch_row_ = nullptr;
  std::size_t split_ = 0;
};

/// One machine's slice of a GraphSnapshot. Mirrors the Partition read API
/// used by the traversal hot path (machine.cpp / expr.cpp), so the
/// runtime is retargeted by type substitution alone. A delta-free view is
/// a pure pass-through to the base Partition.
class PartitionView {
 public:
  MachineId machine() const { return base_->machine(); }
  unsigned num_machines() const { return base_->num_machines(); }
  bool owns(VertexId v) const { return base_->owns(v); }
  /// Map-aware owner resolution (PartitionMap when adopted, else hash).
  MachineId owner_of(VertexId v) const { return base_->owner_of(v); }

  /// The snapshot's hot-vertex mirror set; nullptr unless replication is
  /// configured (GraphStore::set_hot_set).
  const MirrorSet* mirrors() const { return mirrors_; }

  /// Base locals plus appended locals; tombstoned locals stay counted
  /// (their slots persist with alive() == false until a merge).
  std::size_t num_local() const {
    return base_->num_local() + added_globals_.size();
  }

  VertexId to_global(LocalVertexId lv) const {
    const std::size_t nb = base_->num_local();
    return lv < nb ? base_->to_global(lv) : added_globals_[lv - nb];
  }

  /// Local index of an owned, ALIVE vertex; nullopt for remote and for
  /// tombstoned vertices (a dead vertex is unaddressable — nothing in
  /// this snapshot references it).
  std::optional<LocalVertexId> to_local(VertexId v) const {
    std::optional<LocalVertexId> lv = base_->to_local(v);
    if (!lv.has_value() && !added_index_.empty()) {
      if (const auto it = added_index_.find(v); it != added_index_.end()) {
        lv = it->second;
      }
    }
    if (lv.has_value() && !alive(*lv)) return std::nullopt;
    return lv;
  }

  LocalVertexId require_local(VertexId v) const {
    const auto lv = to_local(v);
    engine_check(lv.has_value(), "vertex processed on non-owner machine");
    return *lv;
  }

  LabelId label(LocalVertexId lv) const {
    const std::size_t nb = base_->num_local();
    return lv < nb ? base_->label(lv) : added_labels_[lv - nb];
  }

  Value property(LocalVertexId lv, PropId prop) const {
    const std::size_t nb = base_->num_local();
    if (lv < nb) return base_->property(lv, prop);
    return prop < added_cols_.size() ? added_cols_[prop].get(lv - nb)
                                     : null_value();
  }

  const ViewAdjacency& adjacency(Direction d) const {
    return d == Direction::kIn ? vin_ : vout_;
  }

  const Catalog& catalog() const { return base_->catalog(); }

  bool alive(LocalVertexId lv) const { return dead_.empty() || !dead_[lv]; }

  const Partition& base() const { return *base_; }
  bool has_deltas() const { return !patch_row_.empty(); }
  std::size_t patch_entries() const {
    return vout_.patch_entries() + vin_.patch_entries();
  }

 private:
  friend class GraphSnapshot;

  /// Wires the ViewAdjacency back-pointers; called once the view has its
  /// final address inside GraphSnapshot::views_ (never moved afterwards).
  void finalize(const Partition* base) {
    base_ = base;
    vout_.init(&base->adjacency(Direction::kOut), &patch_out_, &patch_row_);
    vin_.init(&base->adjacency(Direction::kIn), &patch_in_, &patch_row_);
  }

  const Partition* base_ = nullptr;
  // Delta segments; all empty on a pass-through view.
  std::vector<std::uint32_t> patch_row_;  // local -> patch row + 1; 0 = base
  Adjacency patch_out_;
  Adjacency patch_in_;
  std::vector<LocalVertexId> patched_;  // sorted locals with patch rows
  std::vector<VertexId> added_globals_;  // local = base num_local + index
  std::vector<LabelId> added_labels_;
  std::vector<PropertyColumn> added_cols_;  // PropId-indexed, added-local rows
  std::unordered_map<VertexId, LocalVertexId> added_index_;
  std::vector<std::uint8_t> dead_;  // sized num_local(); empty = none dead
  // Owned by the enclosing GraphSnapshot (same lifetime as base_).
  const MirrorSet* mirrors_ = nullptr;
  ViewAdjacency vout_;
  ViewAdjacency vin_;
};

/// The cluster-wide graph at one epoch: the shared immutable base plus
/// one PartitionView per machine. Snapshots are published via shared_ptr
/// swap and pinned by queries at admission.
class GraphSnapshot {
 public:
  std::uint64_t epoch() const { return epoch_; }
  unsigned num_machines() const { return base_->num_machines(); }
  const PartitionView& view(MachineId m) const { return views_[m]; }
  const PartitionedGraph& base() const { return *base_; }

  /// Global vertex-id space size (tombstoned ids included: the next
  /// inserted vertex gets this id).
  std::uint64_t num_vertices() const { return num_vertices_; }
  /// Global edge-id space size (the next inserted edge gets this id).
  std::uint64_t num_edges() const { return num_edges_; }
  /// Adjacency entries living in delta segments across all machines and
  /// both directions — the merge-trigger quantity.
  std::uint64_t delta_entries() const { return delta_entries_; }
  std::uint64_t dead_vertices() const { return dead_vertices_; }

  /// True while any view carries a delta segment. Exact — counts neither
  /// tombstones folded into a merged base nor zero-edge patch rows out.
  bool has_deltas() const {
    for (const PartitionView& v : views_) {
      if (v.has_deltas()) return true;
    }
    return false;
  }

  /// A delta-free snapshot of `base` at epoch 0.
  static std::shared_ptr<const GraphSnapshot> initial(
      std::shared_ptr<const PartitionedGraph> base);

  /// A delta-free snapshot of a freshly merged base that PRESERVES the
  /// epoch and id spaces of the snapshot it replaces (GraphStore::merge).
  static std::shared_ptr<const GraphSnapshot> rebased(
      std::shared_ptr<const PartitionedGraph> base, std::uint64_t epoch,
      std::uint64_t num_vertices, std::uint64_t num_edges);

  /// Applies one batch on top of `prev`, producing the epoch + 1
  /// snapshot and filling the receipt. Validation failures (unknown
  /// vertex, dead endpoint, out-of-catalog label, delete of a missing
  /// edge) throw QueryError; `prev` is untouched either way.
  static std::shared_ptr<const GraphSnapshot> apply(
      const std::shared_ptr<const GraphSnapshot>& prev,
      const UpdateBatch& batch, UpdateResult* out);

  /// A clone of `prev` (same epoch, base, and deltas) carrying a freshly
  /// built MirrorSet for `hot` (empty = drop mirroring). `version` seeds
  /// the rebuild counter. apply() keeps mirrors coherent from then on:
  /// batches dirtying a hot vertex rebuild, others share the set.
  static std::shared_ptr<const GraphSnapshot> with_mirrors(
      const std::shared_ptr<const GraphSnapshot>& prev,
      std::vector<VertexId> hot, std::uint64_t version);

  /// The hot-vertex mirror set (nullptr = replication not configured).
  std::shared_ptr<const MirrorSet> mirror_set() const { return mirrors_; }

 private:
  GraphSnapshot() = default;

  /// Installs `mirrors` and points every view at it.
  void attach_mirrors(std::shared_ptr<const MirrorSet> mirrors);

  std::uint64_t epoch_ = 0;
  std::shared_ptr<const PartitionedGraph> base_;
  std::vector<PartitionView> views_;
  std::shared_ptr<const MirrorSet> mirrors_;
  std::uint64_t num_vertices_ = 0;
  std::uint64_t num_edges_ = 0;
  std::uint64_t delta_entries_ = 0;
  std::uint64_t dead_vertices_ = 0;
};

}  // namespace rpqd
