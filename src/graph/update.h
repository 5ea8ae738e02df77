// Online graph updates (DESIGN.md §12): the batch vocabulary shared by
// GraphStore (application + materialization), GraphSnapshot (delta
// layering), and the cache-coherence plumbing.
//
// A batch is applied atomically: the ops take effect in a fixed order —
// vertex inserts, edge inserts, edge deletes, vertex deletes (each
// cascading over its incident edges) — and produce exactly one new graph
// epoch. Queries never observe a torn batch because they pin an immutable
// snapshot at admission; the batch builds the NEXT snapshot.
//
// The catalog is frozen at seed-graph build time: updates reference
// existing LabelId/PropId values only (LDBC-style workloads grow the data,
// not the schema). Inserted edges get fresh EdgeIds past the seed range
// and carry no edge properties.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.h"
#include "graph/value.h"

namespace rpqd {

struct VertexInsert {
  LabelId label = 0;
  std::vector<std::pair<PropId, Value>> props;
};

struct EdgeInsert {
  /// Endpoints may be pre-existing vertices or vertices inserted by the
  /// SAME batch (ids are assigned in vertex_inserts order, so callers can
  /// compute them from the pre-batch num_vertices).
  VertexId src = 0;
  VertexId dst = 0;
  LabelId elabel = 0;
};

struct EdgeDelete {
  /// Deletes EVERY parallel (src, dst, elabel) edge alive at this point
  /// of the batch (homomorphic matching counts parallels, so deletion
  /// must drop them all to be observable).
  VertexId src = 0;
  VertexId dst = 0;
  LabelId elabel = 0;
};

struct VertexDelete {
  /// Tombstones the vertex and cascades over every incident edge (both
  /// directions). The id is never reused; merge keeps ids stable.
  VertexId v = 0;
};

struct UpdateBatch {
  std::vector<VertexInsert> vertex_inserts;
  std::vector<EdgeInsert> edge_inserts;
  std::vector<EdgeDelete> edge_deletes;
  std::vector<VertexDelete> vertex_deletes;

  bool empty() const {
    return vertex_inserts.empty() && edge_inserts.empty() &&
           edge_deletes.empty() && vertex_deletes.empty();
  }
  std::size_t num_ops() const {
    return vertex_inserts.size() + edge_inserts.size() + edge_deletes.size() +
           vertex_deletes.size();
  }
};

/// What one applied batch touched — the coherence currency (DESIGN.md
/// §12): the result cache evicts entries whose plan scope intersects the
/// dirtied labels.
struct DirtyScope {
  std::vector<LabelId> vertex_labels;  // labels of inserted/deleted vertices
  std::vector<LabelId> edge_labels;    // labels of inserted/deleted edges
                                       // (incl. vertex-delete cascades)
  bool vertices_changed = false;
  bool edges_changed = false;

  bool empty() const { return !vertices_changed && !edges_changed; }
};

/// Label footprint of one compiled plan, for label-granular result-cache
/// eviction. `vertex_labels` are the labels the stage-0 scan can start
/// from; `edge_labels` are every hop's edge labels across all stages.
/// An empty list is a WILDCARD (the plan scans/hops without a label
/// restriction, so any change of that kind may affect it).
///
/// Vertex-label scope from the scan alone is sound: a vertex insert adds
/// no edges by itself, so it can only change results by seeding the
/// scan; a vertex delete's reachability effects travel through its
/// cascaded edge deletions, which dirty the edge labels and are caught
/// by the edge scope (an isolated vertex delete again only affects the
/// scan).
struct ResultCacheScope {
  /// Wildcard flags: true = any label of that kind can affect the plan
  /// (an unlabeled scan / an unlabeled hop — or the conservative default
  /// for callers that pass no scope). When false, only the listed labels
  /// can; a plan with NO edge hops has all_edge_labels = false and an
  /// empty list, so edge-only updates never evict it.
  bool all_vertex_labels = true;
  bool all_edge_labels = true;
  std::vector<LabelId> vertex_labels;  // sorted unique
  std::vector<LabelId> edge_labels;    // sorted unique
};

inline bool labels_intersect(const std::vector<LabelId>& a,
                             const std::vector<LabelId>& b) {
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) return true;
    if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

/// True when a batch with dirty scope `dirty` may change the result of a
/// plan with footprint `scope` — the result-cache eviction predicate.
inline bool scope_affected(const ResultCacheScope& scope,
                           const DirtyScope& dirty) {
  if (dirty.vertices_changed &&
      (scope.all_vertex_labels || dirty.vertex_labels.empty() ||
       labels_intersect(scope.vertex_labels, dirty.vertex_labels))) {
    return true;
  }
  if (dirty.edges_changed &&
      (scope.all_edge_labels || dirty.edge_labels.empty() ||
       labels_intersect(scope.edge_labels, dirty.edge_labels))) {
    return true;
  }
  return false;
}

/// Receipt of one applied batch.
struct UpdateResult {
  /// The epoch this batch created (pre-batch epoch + 1).
  std::uint64_t epoch = 0;
  /// Ids assigned to vertex_inserts, in order.
  std::vector<VertexId> new_vertices;
  /// Ids assigned to edge_inserts, in order.
  std::vector<EdgeId> new_edges;
  /// Edges actually removed, including vertex-delete cascades.
  std::uint64_t edges_deleted = 0;
  DirtyScope dirty;
};

}  // namespace rpqd
