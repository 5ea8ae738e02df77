// Profile-driven offline repartitioning (DESIGN.md §14).
//
// The hash placement spreads *vertices* evenly, but RPQ work follows the
// traversal frontier: a workload whose queries keep expanding the same
// hub vertices piles its frames onto the hubs' owners. The Repartitioner
// closes the loop offline: it replays per-machine load observations
// (RuntimeStats::machine_contexts vectors of finished queries),
// attributes each machine's measured frame count to its owned vertices
// in proportion to degree — the only per-vertex signal that survives
// aggregation — and proposes
//
//   - a hot set (propose_hot_set): the vertices worth mirroring into
//     every machine's MirrorSet for delegated fan-out, and
//   - a vertex→machine map (propose): a greedy cost-balanced assignment
//     (heaviest vertex first onto the least-loaded machine, neighbor-
//     affinity tiebreak to keep the edge cut down) adoptable between
//     queries via Database::repartition.
//
// Everything here is offline and advisory: proposing never touches the
// running engine, and adopting a proposal goes through the same
// rebuild-at-a-quiescent-point path as a delta merge.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "graph/graph.h"
#include "graph/partition.h"

namespace rpqd {

/// A proposed vertex→machine assignment plus the cost model's view of it.
struct RepartitionPlan {
  /// assignment[v] = v's proposed owner; index by VertexId. Always total
  /// over the graph the Repartitioner was built on.
  std::vector<MachineId> assignment;
  /// Modeled per-machine cost under the current placement and under the
  /// proposal (same units: attributed frame counts).
  std::vector<double> current_cost;
  std::vector<double> proposed_cost;
  /// max/mean of the cost vectors (1.0 = balanced); the proposal is only
  /// worth adopting when predicted_imbalance < current_imbalance.
  double current_imbalance = 1.0;
  double predicted_imbalance = 1.0;
  /// Vertices whose owner changes under the proposal.
  std::uint64_t moved_vertices = 0;
};

/// Offline profile replayer + greedy cost-balanced partitioner.
class Repartitioner {
 public:
  /// `current` resolves the placement the observations were collected
  /// under (cost attribution needs to know which machine's load a vertex
  /// contributed to).
  Repartitioner(std::shared_ptr<const Graph> graph, unsigned num_machines,
                std::shared_ptr<const PartitionMap> current = nullptr);

  /// Feeds one observed per-machine frame-count vector (e.g.
  /// RuntimeStats::machine_contexts of a finished query). Vectors shorter
  /// or longer than num_machines are clamped. Observations accumulate.
  void observe(const std::vector<std::uint64_t>& machine_contexts);

  /// Queries observed so far (observe() calls).
  std::uint64_t observations() const { return observations_; }

  /// The modeled per-vertex expansion cost: the observed load of v's
  /// current owner attributed over that machine's vertices by degree
  /// (out + in), plus a degree floor so unobserved graphs still balance
  /// structurally. Exposed for tests and for hot-set thresholds.
  double vertex_cost(VertexId v) const;

  /// Vertices worth mirroring: cost-ranked, capped at `max_hot`, and
  /// requiring degree ≥ `min_degree` (mirroring a low-degree vertex buys
  /// nothing — the delegated fan-out saves at most degree-1 contexts).
  std::vector<VertexId> propose_hot_set(std::size_t max_hot,
                                        std::uint64_t min_degree) const;

  /// Greedy cost-balanced proposal: vertices in descending cost order,
  /// each placed on the machine with the lowest accumulated cost;
  /// near-ties (within `affinity_slack`, a cost ratio) break toward the
  /// machine already owning the most neighbors, keeping the edge cut
  /// down without a full min-cut solve.
  RepartitionPlan propose(double affinity_slack = 1.02) const;

 private:
  MachineId current_owner(VertexId v) const;

  std::shared_ptr<const Graph> graph_;
  std::shared_ptr<const PartitionMap> current_;
  unsigned num_machines_ = 1;
  std::vector<double> observed_;  // per-machine accumulated frame counts
  std::uint64_t observations_ = 0;
};

}  // namespace rpqd
