#include "baseline/reference.h"

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "baseline/eval_util.h"
#include "common/error.h"
#include "common/hash.h"
#include "pgql/parser.h"

namespace rpqd::baseline {

namespace {

using pgql::Expr;
using pgql::PathMacro;
using pgql::Query;

struct REdge {
  std::string src, dst;
  Direction dir = Direction::kOut;
  std::vector<std::string> labels;
  bool is_rpq = false;
  Depth min = 1, max = 1;
  const PathMacro* macro = nullptr;
  std::vector<std::string> rpq_labels;
};

class Evaluator {
 public:
  Evaluator(const Query& q, const Graph& g) : q_(q), g_(g) {
    for (const auto& m : q.path_macros) macros_.emplace(m.name, &m);
    collect();
  }

  std::uint64_t run() {
    count_ = 0;
    Binding bind;
    assign(0, bind, 1);
    return count_;
  }

 private:
  void collect() {
    for (const auto& chain : q_.match) {
      note_var(chain.src.var, chain.src.labels);
      std::string prev = chain.src.var;
      for (const auto& hop : chain.hops) {
        note_var(hop.dst.var, hop.dst.labels);
        REdge e;
        e.src = prev;
        e.dst = hop.dst.var;
        e.dir = hop.edge.dir;
        e.labels = hop.edge.labels;
        e.is_rpq = hop.edge.is_rpq;
        if (e.is_rpq) {
          e.min = hop.edge.quantifier.min;
          e.max = hop.edge.quantifier.max;
          if (!hop.edge.path_name.empty()) {
            const auto it = macros_.find(hop.edge.path_name);
            if (it != macros_.end()) {
              e.macro = it->second;
            } else {
              e.rpq_labels = {hop.edge.path_name};
            }
          } else {
            e.rpq_labels = hop.edge.labels;
            e.labels.clear();
          }
          if (e.dir == Direction::kIn) {
            // Normalize `<-/:p/-`: the path runs right-to-left.
            std::swap(e.src, e.dst);
            e.dir = Direction::kOut;
          }
        }
        edges_.push_back(std::move(e));
        prev = hop.dst.var;
      }
    }
    // WHERE conjuncts referencing macro variables become per-iteration
    // filters of that macro's RPQ edge(s); the rest are plain filters.
    std::vector<const Expr*> flat;
    flatten_and(q_.where.get(), flat);
    for (const Expr* e : flat) {
      std::vector<std::string> vars;
      pgql::collect_vars(*e, vars);
      const PathMacro* m = nullptr;
      for (const auto& v : vars) {
        for (const auto& [name, macro] : macros_) {
          (void)name;
          if (macro_has_var(*macro, v)) m = macro;
        }
      }
      if (m != nullptr) {
        macro_filters_[m].push_back(e);
      } else {
        filters_.push_back(e);
      }
    }
  }

  static bool macro_has_var(const PathMacro& m, const std::string& v) {
    if (m.pattern.src.var == v) return true;
    for (const auto& hop : m.pattern.hops) {
      if (hop.dst.var == v) return true;
    }
    return false;
  }

  void note_var(const std::string& name,
                const std::vector<std::string>& labels) {
    if (std::find(order_.begin(), order_.end(), name) == order_.end()) {
      order_.push_back(name);
    }
    if (labels.empty()) return;
    auto& merged = var_labels_[name];
    if (!var_constrained_.count(name)) {
      merged = labels;
      var_constrained_.insert(name);
    } else {
      std::vector<std::string> kept;
      for (const auto& l : merged) {
        if (std::find(labels.begin(), labels.end(), l) != labels.end()) {
          kept.push_back(l);
        }
      }
      merged = std::move(kept);
      if (merged.empty()) impossible_.insert(name);
    }
  }

  // The oriented inner chain of an RPQ edge.
  struct Chain {
    std::vector<const pgql::VertexPattern*> verts;
    std::vector<std::pair<const pgql::EdgePattern*, Direction>> hops;
  };

  Chain chain_of(const REdge& e, bool forward) const {
    Chain c;
    static const pgql::VertexPattern anon_a{"_ref_a", {}};
    static const pgql::VertexPattern anon_b{"_ref_b", {}};
    static const pgql::EdgePattern no_edge{};
    if (e.macro != nullptr) {
      c.verts.push_back(&e.macro->pattern.src);
      for (const auto& hop : e.macro->pattern.hops) {
        c.verts.push_back(&hop.dst);
        c.hops.emplace_back(&hop.edge, hop.edge.dir);
      }
    } else {
      c.verts.push_back(&anon_a);
      c.verts.push_back(&anon_b);
      c.hops.emplace_back(&no_edge, e.dir);
    }
    if (!forward) {
      std::reverse(c.verts.begin(), c.verts.end());
      std::reverse(c.hops.begin(), c.hops.end());
      for (auto& h : c.hops) h.second = reverse(h.second);
    }
    return c;
  }

  // One path-pattern iteration from `from`: invokes fn for every endpoint
  // reachable by matching the inner chain once (per inner edge binding).
  void iterate_once(const REdge& e, const Chain& chain, VertexId from,
                    const Binding& outer,
                    const std::function<void(VertexId)>& fn) const {
    Binding bind = outer;  // outer vars visible to cross-filters
    std::function<void(std::size_t, VertexId)> walk = [&](std::size_t pos,
                                                          VertexId at) {
      if (!label_ok(g_, at, chain.verts[pos]->labels)) return;
      bind[chain.verts[pos]->var] = at;
      if (pos + 1 == chain.verts.size()) {
        if (e.macro != nullptr) {
          if (e.macro->where != nullptr &&
              !eval_bool(*e.macro->where, g_, bind)) {
            return;
          }
          const auto it = macro_filters_.find(e.macro);
          if (it != macro_filters_.end()) {
            for (const Expr* f : it->second) {
              if (!eval_bool(*f, g_, bind)) return;
            }
          }
        }
        fn(at);
        return;
      }
      const auto& [edge, dir] = chain.hops[pos];
      const auto& labels = e.macro != nullptr ? edge->labels : e.rpq_labels;
      for_each_neighbor(g_, at, dir, labels,
                        [&](VertexId next) { walk(pos + 1, next); });
    };
    walk(0, from);
  }

  // Destinations reachable from `from` with iteration count in [min, max].
  //
  // Unbounded max: depths are *clamped at min* — once a walk has length
  // >= min, all longer extensions behave identically, so the state space
  // is (vertex, min(depth, min)) and exploration terminates after at most
  // |V| * (min + 1) states. A destination counts iff the clamped-at-min
  // state is reached.
  std::unordered_set<VertexId> reachable(const REdge& e, VertexId from,
                                         bool forward,
                                         const Binding& outer) const {
    // Plain-label RPQs (no macro, hence no binding-dependent filters) are
    // memoized per (edge, anchor, orientation) — the backtracking search
    // re-queries the same anchors many times.
    const bool cacheable = e.macro == nullptr;
    // Exact composite key (edge index, anchor, orientation) — no hashing,
    // a collision would silently return the wrong set.
    const auto edge_index = static_cast<std::uint64_t>(&e - edges_.data());
    const std::uint64_t cache_key =
        (edge_index << 40) | (from << 1) | (forward ? 1u : 0u);
    if (cacheable) {
      const auto it = reachable_memo_.find(cache_key);
      if (it != reachable_memo_.end()) return it->second;
    }
    auto result = reachable_uncached(e, from, forward, outer);
    if (cacheable) reachable_memo_.emplace(cache_key, result);
    return result;
  }

  std::unordered_set<VertexId> reachable_uncached(const REdge& e,
                                                  VertexId from, bool forward,
                                                  const Binding& outer) const {
    const Chain chain = chain_of(e, forward);
    const bool unbounded = e.max == kUnboundedDepth;
    const Depth cap = unbounded ? e.min : e.max;
    std::unordered_set<VertexId> result;
    std::unordered_set<std::uint64_t> seen;  // (vertex, depth) states
    std::deque<std::pair<VertexId, Depth>> queue;
    queue.emplace_back(from, 0);
    seen.insert(mix64(mix64(from)));  // state (from, depth 0)
    if (e.min == 0) result.insert(from);
    while (!queue.empty()) {
      const auto [v, d] = queue.front();
      queue.pop_front();
      if (!unbounded && d >= cap) continue;
      iterate_once(e, chain, v, outer, [&](VertexId w) {
        const Depth next = unbounded ? std::min<Depth>(d + 1, cap) : d + 1;
        // Nested mixing: a plain xor of two mixes collides on w == depth.
        const std::uint64_t key =
            mix64(mix64(w) + static_cast<std::uint64_t>(next));
        if (!seen.insert(key).second) return;
        if (next >= e.min) result.insert(w);
        queue.emplace_back(w, next);
      });
    }
    return result;
  }

  bool rpq_connects(const REdge& e, VertexId src, VertexId dst,
                    const Binding& outer) const {
    return reachable(e, src, /*forward=*/true, outer).count(dst) != 0;
  }

  // Backtracking over variables in appearance order. `weight` carries the
  // homomorphic multiplicity of cycle-closing parallel edges.
  void assign(std::size_t pos, Binding& bind, std::uint64_t weight) {
    if (pos == order_.size()) {
      count_ += weight;
      return;
    }
    const std::string& var = order_[pos];
    if (impossible_.count(var) != 0) return;
    const auto bound = [&](const std::string& v) { return bind.count(v) != 0; };

    const REdge* generator = nullptr;
    bool gen_forward = true;
    for (const auto& e : edges_) {
      if (e.dst == var && bound(e.src)) {
        generator = &e;
        gen_forward = true;
        break;
      }
      if (e.src == var && bound(e.dst)) {
        generator = &e;
        gen_forward = false;
        break;
      }
    }

    const auto try_candidate = [&](VertexId v, std::uint64_t base_weight) {
      // Tombstoned vertices (online deletes) are unaddressable, exactly
      // as in the engine's partitions.
      if (!g_.alive(v)) return;
      if (!label_ok(g_, v, var_labels_[var])) return;
      bind[var] = v;
      std::uint64_t w = base_weight;
      for (const auto& e : edges_) {
        if ((e.src != var && e.dst != var) || &e == generator) continue;
        if (!bound(e.src) || !bound(e.dst)) continue;
        const VertexId s = bind[e.src];
        const VertexId d = bind[e.dst];
        if (e.is_rpq) {
          if (!rpq_connects(e, s, d, bind)) {
            w = 0;
            break;
          }
        } else {
          const std::size_t m = count_edges(g_, s, d, e.dir, e.labels);
          if (m == 0) {
            w = 0;
            break;
          }
          w *= m;  // each parallel edge is a distinct homomorphic match
        }
      }
      if (w > 0) {
        bool ok = true;
        for (const Expr* f : filters_) {
          std::vector<std::string> vars;
          pgql::collect_vars(*f, vars);
          bool complete = true;
          bool uses_var = false;
          for (const auto& fv : vars) {
            if (fv == var) uses_var = true;
            if (!bound(fv)) complete = false;
          }
          if (complete && uses_var && !eval_bool(*f, g_, bind)) {
            ok = false;
            break;
          }
        }
        if (ok) assign(pos + 1, bind, w);
      }
      bind.erase(var);
    };

    if (generator == nullptr) {
      if (pos != 0) {
        throw UnsupportedError(
            "reference: disconnected pattern (cartesian product)");
      }
      for (const Expr* f : filters_) {
        std::vector<std::string> vars;
        pgql::collect_vars(*f, vars);
        if (vars.empty() && !eval_bool(*f, g_, bind)) return;
      }
      for (VertexId v = 0; v < g_.num_vertices(); ++v) {
        try_candidate(v, weight);
      }
      return;
    }

    const VertexId anchor = bind[gen_forward ? generator->src : generator->dst];
    if (generator->is_rpq) {
      // RPQ destinations are deduplicated per source binding (§3.5).
      for (const VertexId v : reachable(*generator, anchor, gen_forward, bind)) {
        try_candidate(v, weight);
      }
    } else {
      const Direction dir =
          gen_forward ? generator->dir : reverse(generator->dir);
      // One candidate invocation per incident edge: homomorphic matching
      // counts parallel edges separately.
      for_each_neighbor(g_, anchor, dir, generator->labels,
                        [&](VertexId v) { try_candidate(v, weight); });
    }
  }

  const Query& q_;
  const Graph& g_;
  std::unordered_map<std::string, const PathMacro*> macros_;
  std::vector<std::string> order_;
  std::unordered_map<std::string, std::vector<std::string>> var_labels_;
  std::unordered_set<std::string> var_constrained_;
  std::unordered_set<std::string> impossible_;
  std::vector<REdge> edges_;
  std::vector<const Expr*> filters_;
  std::unordered_map<const PathMacro*, std::vector<const Expr*>> macro_filters_;
  mutable std::unordered_map<std::uint64_t, std::unordered_set<VertexId>>
      reachable_memo_;
  std::uint64_t count_ = 0;
};

}  // namespace

ReferenceResult reference_evaluate(const Query& query, const Graph& graph) {
  Evaluator eval(query, graph);
  return {eval.run()};
}

ReferenceResult reference_evaluate(std::string_view pgql_text,
                                   const Graph& graph) {
  const Query q = pgql::parse(pgql_text);
  return reference_evaluate(q, graph);
}

}  // namespace rpqd::baseline
