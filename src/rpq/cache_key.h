// Label footprint of a plan for update-driven result-cache eviction
// (DESIGN.md §11, §12).
#pragma once

#include "graph/update.h"
#include "plan/plan.h"

namespace rpqd {

/// Label footprint of the whole plan, for update-driven result-cache
/// eviction (DESIGN.md §12): the stage-0 scan's vertex labels plus every
/// kNeighbor/kEdge hop's edge labels, each dimension a wildcard when any
/// contributing alternation is unlabeled.
ResultCacheScope result_cache_scope(const ExecPlan& plan);

}  // namespace rpqd
