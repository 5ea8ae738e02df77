#include "graph/snapshot.h"

#include <algorithm>
#include <string>
#include <unordered_set>

namespace rpqd {

namespace {

void sort_unique_labels(std::vector<LabelId>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

/// Marks a patch entry with no predecessor in the previous snapshot
/// (edges inserted by this batch carry no edge properties to copy).
constexpr std::size_t kNoPrevEntry = static_cast<std::size_t>(-1);

/// An edge inserted by the batch being applied; `dropped` marks edges
/// removed again by a later op of the SAME batch (edge delete or vertex
/// cascade) — they never materialize.
struct NewEdge {
  VertexId src = 0;
  VertexId dst = 0;
  LabelId elabel = 0;
  EdgeId eid = 0;
  bool dropped = false;
};

}  // namespace

std::shared_ptr<const GraphSnapshot> GraphSnapshot::initial(
    std::shared_ptr<const PartitionedGraph> base) {
  const Graph& g = base->global();
  return rebased(std::move(base), /*epoch=*/0, g.num_vertices(),
                 g.num_edges());
}

std::shared_ptr<const GraphSnapshot> GraphSnapshot::rebased(
    std::shared_ptr<const PartitionedGraph> base, std::uint64_t epoch,
    std::uint64_t num_vertices, std::uint64_t num_edges) {
  auto snap = std::shared_ptr<GraphSnapshot>(new GraphSnapshot());
  snap->epoch_ = epoch;
  snap->base_ = std::move(base);
  snap->num_vertices_ = num_vertices;
  snap->num_edges_ = num_edges;
  snap->dead_vertices_ = snap->base_->global().num_dead();
  const unsigned machines = snap->base_->num_machines();
  snap->views_.resize(machines);
  for (unsigned m = 0; m < machines; ++m) {
    snap->views_[m].finalize(&snap->base_->partition(m));
  }
  return snap;
}

std::shared_ptr<const GraphSnapshot> GraphSnapshot::apply(
    const std::shared_ptr<const GraphSnapshot>& prev, const UpdateBatch& batch,
    UpdateResult* out) {
  const PartitionedGraph& base = prev->base();
  const Catalog& catalog = base.catalog();
  const unsigned machines = base.num_machines();

  auto fail = [](const std::string& what) -> void { throw QueryError(what); };

  // Locates a vertex alive in `prev` (to_local is nullopt for dead ones).
  auto prev_local = [&](VertexId v) -> std::optional<LocalVertexId> {
    if (v >= prev->num_vertices_) return std::nullopt;
    return prev->views_[base.owner(v)].to_local(v);
  };

  UpdateResult receipt;
  receipt.epoch = prev->epoch_ + 1;

  // ---- resolve the batch against prev (vertex inserts, edge inserts,
  // edge deletes, vertex deletes — in that order) --------------------------
  const VertexId first_new_vertex = prev->num_vertices_;
  std::unordered_map<VertexId, const VertexInsert*> inserted_verts;
  for (std::size_t i = 0; i < batch.vertex_inserts.size(); ++i) {
    const VertexInsert& vi = batch.vertex_inserts[i];
    if (vi.label >= catalog.num_vertex_labels()) {
      fail("update: vertex label id outside the frozen catalog");
    }
    for (const auto& [prop, value] : vi.props) {
      if (prop >= catalog.num_properties()) {
        fail("update: property id outside the frozen catalog");
      }
      if (!is_null(value) && catalog.property_type(prop) != value.type) {
        fail("update: property value type mismatch");
      }
    }
    const VertexId id = first_new_vertex + i;
    receipt.new_vertices.push_back(id);
    inserted_verts.emplace(id, &vi);
  }

  auto exists_alive = [&](VertexId v) {
    return inserted_verts.count(v) != 0 || prev_local(v).has_value();
  };

  std::vector<NewEdge> new_edges;
  new_edges.reserve(batch.edge_inserts.size());
  for (std::size_t i = 0; i < batch.edge_inserts.size(); ++i) {
    const EdgeInsert& ei = batch.edge_inserts[i];
    if (ei.elabel >= catalog.num_edge_labels()) {
      fail("update: edge label id outside the frozen catalog");
    }
    if (!exists_alive(ei.src) || !exists_alive(ei.dst)) {
      fail("update: edge insert references a missing or deleted vertex");
    }
    const EdgeId eid = prev->num_edges_ + i;
    new_edges.push_back(NewEdge{ei.src, ei.dst, ei.elabel, eid, false});
    receipt.new_edges.push_back(eid);
  }

  // Tombstoned edges of the base/prev-delta layers, resolved to concrete
  // edge ids (patch rebuild filters by id membership), plus their
  // endpoints and labels for dirty tracking.
  std::unordered_set<EdgeId> deleted_eids;
  std::vector<std::pair<VertexId, VertexId>> deleted_endpoints;
  std::vector<LabelId> dirty_elabels;

  auto tombstone = [&](EdgeId eid, VertexId src, VertexId dst,
                       LabelId elabel) {
    if (deleted_eids.insert(eid).second) {
      deleted_endpoints.emplace_back(src, dst);
      dirty_elabels.push_back(elabel);
    }
  };

  for (const EdgeDelete& ed : batch.edge_deletes) {
    std::size_t matched = 0;
    // Existing layers: scan src's out label range in prev.
    if (const auto lv = prev_local(ed.src)) {
      const PartitionView& view = prev->views_[base.owner(ed.src)];
      const ViewAdjacency& adj = view.adjacency(Direction::kOut);
      const auto [b, e] = adj.label_range(*lv, ed.elabel);
      for (std::size_t idx = b; idx < e; ++idx) {
        const AdjEntry& entry = adj.entry(idx);
        if (entry.other != ed.dst) continue;
        if (deleted_eids.count(entry.eid) != 0) continue;  // already gone
        tombstone(entry.eid, ed.src, ed.dst, entry.elabel);
        ++matched;
      }
    }
    // Edges inserted earlier in this same batch.
    for (NewEdge& ne : new_edges) {
      if (ne.dropped || ne.src != ed.src || ne.dst != ed.dst ||
          ne.elabel != ed.elabel) {
        continue;
      }
      ne.dropped = true;
      dirty_elabels.push_back(ne.elabel);
      ++matched;
    }
    if (matched == 0) fail("update: edge delete matched no edge");
    receipt.edges_deleted += matched;
  }

  std::unordered_set<VertexId> killed;
  std::vector<LabelId> dirty_vlabels;
  for (const VertexDelete& vd : batch.vertex_deletes) {
    if (inserted_verts.count(vd.v) != 0) {
      fail("update: cannot delete a vertex inserted by the same batch");
    }
    if (killed.count(vd.v) != 0) {
      fail("update: vertex deleted twice in one batch");
    }
    const auto lv = prev_local(vd.v);
    if (!lv.has_value()) fail("update: vertex delete of a missing vertex");
    const PartitionView& view = prev->views_[base.owner(vd.v)];
    dirty_vlabels.push_back(view.label(*lv));
    killed.insert(vd.v);
    // Cascade over every incident edge still alive: the out-CSR gives the
    // edges leaving v, the in-CSR the edges arriving at v (entry.other is
    // the source there).
    for (const Direction dir : {Direction::kOut, Direction::kIn}) {
      const ViewAdjacency& adj = view.adjacency(dir);
      const auto [b, e] = adj.range(*lv);
      for (std::size_t idx = b; idx < e; ++idx) {
        const AdjEntry& entry = adj.entry(idx);
        if (deleted_eids.count(entry.eid) != 0) continue;
        const VertexId src = dir == Direction::kOut ? vd.v : entry.other;
        const VertexId dst = dir == Direction::kOut ? entry.other : vd.v;
        tombstone(entry.eid, src, dst, entry.elabel);
        ++receipt.edges_deleted;
      }
    }
    for (NewEdge& ne : new_edges) {
      if (ne.dropped || (ne.src != vd.v && ne.dst != vd.v)) continue;
      ne.dropped = true;
      dirty_elabels.push_back(ne.elabel);
      ++receipt.edges_deleted;
    }
  }

  // ---- dirty scope -------------------------------------------------------
  DirtyScope& dirty = receipt.dirty;
  dirty.vertices_changed = !batch.vertex_inserts.empty() || !killed.empty();
  for (const VertexInsert& vi : batch.vertex_inserts) {
    dirty.vertex_labels.push_back(vi.label);
  }
  dirty.vertex_labels.insert(dirty.vertex_labels.end(), dirty_vlabels.begin(),
                             dirty_vlabels.end());
  sort_unique_labels(dirty.vertex_labels);
  for (const NewEdge& ne : new_edges) {
    if (!ne.dropped) dirty.edge_labels.push_back(ne.elabel);
  }
  dirty.edge_labels.insert(dirty.edge_labels.end(), dirty_elabels.begin(),
                           dirty_elabels.end());
  sort_unique_labels(dirty.edge_labels);
  dirty.edges_changed = receipt.edges_deleted > 0 ||
                        std::any_of(new_edges.begin(), new_edges.end(),
                                    [](const NewEdge& ne) {
                                      return !ne.dropped;
                                    });

  // Vertices whose adjacency (or existence) changed; their locals get
  // patch rows rebuilt.
  std::unordered_set<VertexId> dirty_verts;
  for (const VertexId v : receipt.new_vertices) dirty_verts.insert(v);
  for (const VertexId v : killed) dirty_verts.insert(v);
  for (const NewEdge& ne : new_edges) {
    if (ne.dropped) continue;
    dirty_verts.insert(ne.src);
    dirty_verts.insert(ne.dst);
  }
  for (const auto& [src, dst] : deleted_endpoints) {
    dirty_verts.insert(src);
    dirty_verts.insert(dst);
  }

  // ---- build the next snapshot -------------------------------------------
  auto snap = std::shared_ptr<GraphSnapshot>(new GraphSnapshot());
  snap->epoch_ = receipt.epoch;
  snap->base_ = prev->base_;
  snap->num_vertices_ = prev->num_vertices_ + batch.vertex_inserts.size();
  snap->num_edges_ = prev->num_edges_ + batch.edge_inserts.size();
  snap->dead_vertices_ = prev->dead_vertices_ + killed.size();
  snap->views_.resize(machines);

  const std::size_t num_props = catalog.num_properties();

  for (unsigned m = 0; m < machines; ++m) {
    const PartitionView& pv = prev->views_[m];
    PartitionView& nv = snap->views_[m];
    const Partition& part = base.partition(m);
    const std::size_t base_locals = part.num_local();

    // Carry the appended-vertex book forward, then append this batch's.
    nv.added_globals_ = pv.added_globals_;
    nv.added_labels_ = pv.added_labels_;
    nv.added_cols_ = pv.added_cols_;
    nv.added_index_ = pv.added_index_;
    for (const VertexId v : receipt.new_vertices) {
      if (base.owner(v) != m) continue;
      const LocalVertexId lv =
          static_cast<LocalVertexId>(base_locals + nv.added_globals_.size());
      nv.added_index_.emplace(v, lv);
      nv.added_globals_.push_back(v);
      const VertexInsert& vi = *inserted_verts.at(v);
      nv.added_labels_.push_back(vi.label);
      for (const auto& [prop, value] : vi.props) {
        if (is_null(value)) continue;
        if (nv.added_cols_.size() <= prop) nv.added_cols_.resize(prop + 1);
        nv.added_cols_[prop].set(lv - base_locals, value);
      }
    }
    const std::size_t num_local = base_locals + nv.added_globals_.size();

    // Tombstone book.
    nv.dead_ = pv.dead_;
    bool any_dead = !nv.dead_.empty();
    for (const VertexId v : killed) {
      if (base.owner(v) != m) continue;
      if (nv.dead_.empty()) nv.dead_.resize(num_local, 0);
      // prev_local was validated alive above, so the lookup must succeed.
      const LocalVertexId lv = *prev->views_[m].to_local(v);
      nv.dead_[lv] = 1;
      any_dead = true;
    }
    if (any_dead && nv.dead_.size() < num_local) nv.dead_.resize(num_local, 0);

    // Patched locals: everything patched before stays patched (its base
    // row no longer reflects it), plus this batch's dirty locals.
    std::vector<LocalVertexId> patched = pv.patched_;
    {
      std::unordered_set<LocalVertexId> have(patched.begin(), patched.end());
      auto mark = [&](VertexId v) {
        if (base.owner(v) != m) return;
        LocalVertexId lv;
        if (const auto bl = part.to_local(v)) {
          lv = *bl;
        } else {
          lv = nv.added_index_.at(v);
        }
        if (have.insert(lv).second) patched.push_back(lv);
      };
      for (const VertexId v : dirty_verts) mark(v);
      std::sort(patched.begin(), patched.end());
    }
    nv.patched_ = std::move(patched);

    // Materialize the full adjacency of every patched local, per
    // direction: prev entries minus tombstones, plus this batch's
    // inserts, re-sorted into the base CSR's (elabel, other) row form
    // with edge-property columns aligned.
    auto global_of = [&](LocalVertexId lv) -> VertexId {
      return lv < base_locals ? part.to_global(lv)
                              : nv.added_globals_[lv - base_locals];
    };
    for (const Direction dir : {Direction::kOut, Direction::kIn}) {
      std::vector<std::uint64_t> offsets;
      offsets.reserve(nv.patched_.size() + 1);
      offsets.push_back(0);
      std::vector<AdjEntry> entries;
      std::vector<std::vector<std::pair<std::size_t, Value>>> prop_vals(
          num_props);
      for (const LocalVertexId lv : nv.patched_) {
        const bool dead = !nv.dead_.empty() && nv.dead_[lv] != 0;
        std::vector<std::pair<AdjEntry, std::size_t>> row;  // entry, prev idx
        if (!dead) {
          if (lv < pv.num_local()) {
            const ViewAdjacency& prev_adj = pv.adjacency(dir);
            const auto [b, e] = prev_adj.range(lv);
            for (std::size_t idx = b; idx < e; ++idx) {
              const AdjEntry& entry = prev_adj.entry(idx);
              if (deleted_eids.count(entry.eid) != 0) continue;
              row.emplace_back(entry, idx);
            }
          }
          const VertexId self = global_of(lv);
          for (const NewEdge& ne : new_edges) {
            if (ne.dropped) continue;
            if (dir == Direction::kOut && ne.src == self) {
              row.emplace_back(AdjEntry{ne.dst, ne.elabel, ne.eid},
                               kNoPrevEntry);
            } else if (dir == Direction::kIn && ne.dst == self) {
              row.emplace_back(AdjEntry{ne.src, ne.elabel, ne.eid},
                               kNoPrevEntry);
            }
          }
          std::sort(row.begin(), row.end(),
                    [](const auto& a, const auto& b) {
                      return std::tie(a.first.elabel, a.first.other,
                                      a.first.eid) <
                             std::tie(b.first.elabel, b.first.other,
                                      b.first.eid);
                    });
        }
        for (const auto& [entry, prev_idx] : row) {
          const std::size_t pos = entries.size();
          entries.push_back(entry);
          if (prev_idx != kNoPrevEntry) {
            const ViewAdjacency& prev_adj = pv.adjacency(dir);
            for (PropId p = 0; p < num_props; ++p) {
              const Value val = prev_adj.edge_property(prev_idx, p);
              if (!is_null(val)) prop_vals[p].emplace_back(pos, val);
            }
          }
        }
        offsets.push_back(entries.size());
      }
      std::vector<PropertyColumn> eprops;
      for (PropId p = 0; p < num_props; ++p) {
        if (prop_vals[p].empty()) continue;
        PropertyColumn col(p);
        for (const auto& [pos, val] : prop_vals[p]) col.set(pos, val);
        eprops.push_back(std::move(col));
      }
      Adjacency patch = Adjacency::make(std::move(offsets), std::move(entries),
                                        std::move(eprops));
      (dir == Direction::kOut ? nv.patch_out_ : nv.patch_in_) =
          std::move(patch);
    }

    if (!nv.patched_.empty()) {
      nv.patch_row_.assign(num_local, 0);
      for (std::size_t row = 0; row < nv.patched_.size(); ++row) {
        nv.patch_row_[nv.patched_[row]] = static_cast<std::uint32_t>(row + 1);
      }
    }

    nv.finalize(&part);
    snap->delta_entries_ += nv.patch_entries();
  }

  // Mirror coherence (DESIGN.md §14): a batch that dirtied a mirrored hot
  // vertex rebuilds the MirrorSet against the NEW views before the
  // snapshot publishes — a query pinning this epoch can never observe a
  // stale mirror. Batches not touching any hot vertex share the set
  // (every edge change dirties both endpoints, so "hot vertex adjacency
  // changed" implies "hot vertex is in dirty_verts").
  if (prev->mirrors_ != nullptr) {
    bool dirty_hot = false;
    for (const VertexId h : prev->mirrors_->hot()) {
      if (dirty_verts.count(h) != 0) {
        dirty_hot = true;
        break;
      }
    }
    snap->attach_mirrors(dirty_hot
                             ? MirrorSet::build(*snap, prev->mirrors_->hot(),
                                                prev->mirrors_->version() + 1)
                             : prev->mirrors_);
  }

  if (out != nullptr) *out = std::move(receipt);
  return snap;
}

std::shared_ptr<const GraphSnapshot> GraphSnapshot::with_mirrors(
    const std::shared_ptr<const GraphSnapshot>& prev,
    std::vector<VertexId> hot, std::uint64_t version) {
  auto snap = std::shared_ptr<GraphSnapshot>(new GraphSnapshot());
  snap->epoch_ = prev->epoch_;
  snap->base_ = prev->base_;
  snap->num_vertices_ = prev->num_vertices_;
  snap->num_edges_ = prev->num_edges_;
  snap->delta_entries_ = prev->delta_entries_;
  snap->dead_vertices_ = prev->dead_vertices_;
  snap->views_ = prev->views_;
  const unsigned machines = snap->base_->num_machines();
  for (unsigned m = 0; m < machines; ++m) {
    // The copied views' ViewAdjacency pointers still reference prev's
    // patch members; finalize re-wires them to this snapshot's copies.
    snap->views_[m].finalize(&snap->base_->partition(m));
  }
  // The copied views still point at prev's mirror set, which this
  // snapshot does not own: detach them first, or dropping mirrors (an
  // empty `hot`) leaves them dangling once prev is released.
  snap->attach_mirrors(nullptr);
  if (!hot.empty()) {
    snap->attach_mirrors(MirrorSet::build(*snap, std::move(hot), version));
  }
  return snap;
}

void GraphSnapshot::attach_mirrors(std::shared_ptr<const MirrorSet> mirrors) {
  mirrors_ = std::move(mirrors);
  for (PartitionView& v : views_) v.mirrors_ = mirrors_.get();
}

std::shared_ptr<const MirrorSet> MirrorSet::build(const GraphSnapshot& snap,
                                                  std::vector<VertexId> hot,
                                                  std::uint64_t version) {
  auto ms = std::make_shared<MirrorSet>();
  std::sort(hot.begin(), hot.end());
  hot.erase(std::unique(hot.begin(), hot.end()), hot.end());
  ms->hot_ = std::move(hot);
  ms->version_ = version;
  ms->index_.reserve(ms->hot_.size());
  for (std::size_t rank = 0; rank < ms->hot_.size(); ++rank) {
    ms->index_.emplace(ms->hot_[rank], static_cast<std::uint32_t>(rank));
    const std::uint64_t h = mix64(ms->hot_[rank]);
    ms->filter_[(h >> 6) & 63] |= 1ull << (h & 63);
  }
  const PartitionedGraph& base = snap.base();
  const unsigned machines = base.num_machines();
  const std::size_t num_props = base.catalog().num_properties();
  ms->out_.reserve(machines);
  ms->in_.reserve(machines);
  for (unsigned m = 0; m < machines; ++m) {
    for (const Direction dir : {Direction::kOut, Direction::kIn}) {
      std::vector<std::uint64_t> offsets;
      offsets.reserve(ms->hot_.size() + 1);
      offsets.push_back(0);
      std::vector<AdjEntry> entries;
      std::vector<std::vector<std::pair<std::size_t, Value>>> prop_vals(
          num_props);
      for (const VertexId h : ms->hot_) {
        // Dead or unknown hot vertices keep an empty row (to_local is
        // nullopt); the owner never runs a frame for them anyway.
        if (h < snap.num_vertices()) {
          const PartitionView& ov = snap.view(base.owner(h));
          if (const auto lv = ov.to_local(h)) {
            const ViewAdjacency& adj = ov.adjacency(dir);
            const auto [b, e] = adj.range(*lv);
            for (std::size_t idx = b; idx < e; ++idx) {
              const AdjEntry& entry = adj.entry(idx);
              if (base.owner(entry.other) != m) continue;
              const std::size_t pos = entries.size();
              entries.push_back(entry);
              for (PropId p = 0; p < num_props; ++p) {
                const Value val = adj.edge_property(idx, p);
                if (!is_null(val)) prop_vals[p].emplace_back(pos, val);
              }
            }
          }
        }
        offsets.push_back(entries.size());
      }
      std::vector<PropertyColumn> eprops;
      for (PropId p = 0; p < num_props; ++p) {
        if (prop_vals[p].empty()) continue;
        PropertyColumn col(p);
        for (const auto& [pos, val] : prop_vals[p]) col.set(pos, val);
        eprops.push_back(std::move(col));
      }
      ms->entries_ += entries.size();
      Adjacency bucket = Adjacency::make(std::move(offsets),
                                         std::move(entries), std::move(eprops));
      (dir == Direction::kOut ? ms->out_ : ms->in_).push_back(
          std::move(bucket));
    }
  }
  return ms;
}

}  // namespace rpqd
