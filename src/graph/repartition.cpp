#include "graph/repartition.h"

#include <algorithm>
#include <numeric>

namespace rpqd {

namespace {

double imbalance_of(const std::vector<double>& cost) {
  const double total = std::accumulate(cost.begin(), cost.end(), 0.0);
  if (total <= 0.0) return 1.0;
  const double mean = total / static_cast<double>(cost.size());
  return *std::max_element(cost.begin(), cost.end()) / mean;
}

}  // namespace

Repartitioner::Repartitioner(std::shared_ptr<const Graph> graph,
                             unsigned num_machines,
                             std::shared_ptr<const PartitionMap> current)
    : graph_(std::move(graph)),
      current_(std::move(current)),
      num_machines_(num_machines),
      observed_(num_machines, 0.0) {
  engine_check(num_machines_ > 0, "repartitioner needs at least one machine");
}

MachineId Repartitioner::current_owner(VertexId v) const {
  return current_ != nullptr ? current_->owner(v)
                             : Partition::owner(v, num_machines_);
}

void Repartitioner::observe(const std::vector<std::uint64_t>& machine_contexts) {
  const std::size_t n =
      std::min<std::size_t>(machine_contexts.size(), num_machines_);
  for (std::size_t m = 0; m < n; ++m) {
    observed_[m] += static_cast<double>(machine_contexts[m]);
  }
  ++observations_;
}

double Repartitioner::vertex_cost(VertexId v) const {
  if (!graph_->alive(v)) return 0.0;
  const double deg = static_cast<double>(graph_->out().degree(v) +
                                         graph_->in().degree(v));
  const MachineId owner = current_owner(v);
  // Attribute the owner's observed frame count over its vertices by
  // degree share. The denominator is the owner's total degree, computed
  // on demand would be O(V) per call — so fold it as load-per-degree,
  // cached lazily below.
  if (observed_[owner] <= 0.0) return deg;
  double owner_deg = 0.0;
  for (VertexId u = 0; u < graph_->num_vertices(); ++u) {
    if (current_owner(u) == owner && graph_->alive(u)) {
      owner_deg += static_cast<double>(graph_->out().degree(u) +
                                       graph_->in().degree(u));
    }
  }
  if (owner_deg <= 0.0) return deg;
  return deg + observed_[owner] * (deg / owner_deg);
}

std::vector<VertexId> Repartitioner::propose_hot_set(
    std::size_t max_hot, std::uint64_t min_degree) const {
  // Rank by the same per-degree attribution as vertex_cost, but hoist
  // the per-machine degree totals out of the loop (vertex_cost recomputes
  // them per call; fine for spot checks, quadratic here).
  std::vector<double> machine_deg(num_machines_, 0.0);
  const std::size_t n = graph_->num_vertices();
  for (VertexId v = 0; v < n; ++v) {
    if (!graph_->alive(v)) continue;
    machine_deg[current_owner(v)] += static_cast<double>(
        graph_->out().degree(v) + graph_->in().degree(v));
  }
  std::vector<std::pair<double, VertexId>> ranked;
  for (VertexId v = 0; v < n; ++v) {
    if (!graph_->alive(v)) continue;
    const std::uint64_t deg =
        graph_->out().degree(v) + graph_->in().degree(v);
    if (deg < min_degree) continue;
    const MachineId owner = current_owner(v);
    double cost = static_cast<double>(deg);
    if (observed_[owner] > 0.0 && machine_deg[owner] > 0.0) {
      cost += observed_[owner] * (static_cast<double>(deg) / machine_deg[owner]);
    }
    ranked.emplace_back(cost, v);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;  // deterministic on cost ties
  });
  if (ranked.size() > max_hot) ranked.resize(max_hot);
  std::vector<VertexId> hot;
  hot.reserve(ranked.size());
  for (const auto& [cost, v] : ranked) hot.push_back(v);
  return hot;
}

RepartitionPlan Repartitioner::propose(double affinity_slack) const {
  const std::size_t n = graph_->num_vertices();
  RepartitionPlan plan;
  plan.assignment.resize(n, 0);
  plan.current_cost.assign(num_machines_, 0.0);
  plan.proposed_cost.assign(num_machines_, 0.0);

  // Per-vertex costs under the shared per-machine degree totals.
  std::vector<double> machine_deg(num_machines_, 0.0);
  for (VertexId v = 0; v < n; ++v) {
    if (!graph_->alive(v)) continue;
    machine_deg[current_owner(v)] += static_cast<double>(
        graph_->out().degree(v) + graph_->in().degree(v));
  }
  std::vector<double> cost(n, 0.0);
  for (VertexId v = 0; v < n; ++v) {
    if (!graph_->alive(v)) continue;
    const double deg = static_cast<double>(graph_->out().degree(v) +
                                           graph_->in().degree(v));
    const MachineId owner = current_owner(v);
    cost[v] = deg;
    if (observed_[owner] > 0.0 && machine_deg[owner] > 0.0) {
      cost[v] += observed_[owner] * (deg / machine_deg[owner]);
    }
    plan.current_cost[owner] += cost[v];
  }

  // Greedy: heaviest first onto the least-loaded machine; near-ties
  // (within affinity_slack of the minimum) break toward the machine
  // already owning the most neighbors, then toward the current owner
  // (fewer moves), then the lowest machine id (determinism).
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), VertexId{0});
  std::sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    if (cost[a] != cost[b]) return cost[a] > cost[b];
    return a < b;
  });
  std::vector<std::uint8_t> assigned(n, 0);
  std::vector<std::uint32_t> neighbor_count(num_machines_, 0);
  for (const VertexId v : order) {
    double min_cost = plan.proposed_cost[0];
    for (unsigned m = 1; m < num_machines_; ++m) {
      min_cost = std::min(min_cost, plan.proposed_cost[m]);
    }
    const double bar = min_cost <= 0.0 ? 0.0 : min_cost * affinity_slack;
    std::fill(neighbor_count.begin(), neighbor_count.end(), 0);
    for (const Direction dir : {Direction::kOut, Direction::kIn}) {
      const Adjacency& adj = graph_->adjacency(dir);
      const auto [begin, end] = adj.range(v);
      for (std::size_t idx = begin; idx < end; ++idx) {
        const VertexId u = adj.entry(idx).other;
        if (assigned[u]) ++neighbor_count[plan.assignment[u]];
      }
    }
    const MachineId stay = current_owner(v);
    MachineId best = 0;
    bool have = false;
    for (unsigned m = 0; m < num_machines_; ++m) {
      if (plan.proposed_cost[m] > bar) continue;
      if (!have) {
        best = static_cast<MachineId>(m);
        have = true;
        continue;
      }
      if (neighbor_count[m] != neighbor_count[best]) {
        if (neighbor_count[m] > neighbor_count[best]) {
          best = static_cast<MachineId>(m);
        }
        continue;
      }
      if (m == stay && best != stay) best = static_cast<MachineId>(m);
    }
    plan.assignment[v] = best;
    plan.proposed_cost[best] += cost[v];
    assigned[v] = 1;
    if (best != stay && graph_->alive(v)) ++plan.moved_vertices;
  }

  plan.current_imbalance = imbalance_of(plan.current_cost);
  plan.predicted_imbalance = imbalance_of(plan.proposed_cost);
  return plan;
}

}  // namespace rpqd
