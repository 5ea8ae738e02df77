#include "rpq/cache_key.h"

#include <algorithm>

namespace rpqd {

ResultCacheScope result_cache_scope(const ExecPlan& plan) {
  ResultCacheScope scope;
  // Vertex dimension: only the stage-0 scan can be seeded by a vertex
  // change (see the soundness note on ResultCacheScope). A single-start
  // plan still scans its stage-0 labels conceptually — a future vertex
  // can match a cached-empty ID probe, so the scan labels (or wildcard)
  // stay in scope.
  if (!plan.stages.empty() && !plan.stages.front().vlabels.empty()) {
    scope.all_vertex_labels = false;
    scope.vertex_labels = plan.stages.front().vlabels;
    std::sort(scope.vertex_labels.begin(), scope.vertex_labels.end());
    scope.vertex_labels.erase(
        std::unique(scope.vertex_labels.begin(), scope.vertex_labels.end()),
        scope.vertex_labels.end());
  }
  // Edge dimension: union of every edge-traversing hop's alternation.
  // One unlabeled hop makes the whole dimension a wildcard; a plan with
  // no kNeighbor/kEdge hops cannot observe edges at all.
  scope.all_edge_labels = false;
  for (const StagePlan& sp : plan.stages) {
    if (sp.hop.kind != HopKind::kNeighbor && sp.hop.kind != HopKind::kEdge) {
      continue;
    }
    if (sp.hop.elabels.empty()) {
      scope.all_edge_labels = true;
      scope.edge_labels.clear();
      break;
    }
    scope.edge_labels.insert(scope.edge_labels.end(), sp.hop.elabels.begin(),
                             sp.hop.elabels.end());
  }
  if (!scope.all_edge_labels) {
    std::sort(scope.edge_labels.begin(), scope.edge_labels.end());
    scope.edge_labels.erase(
        std::unique(scope.edge_labels.begin(), scope.edge_labels.end()),
        scope.edge_labels.end());
  }
  return scope;
}

}  // namespace rpqd
