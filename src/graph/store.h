// GraphStore: the mutable front door for online updates (DESIGN.md §12).
//
// Owns the current GraphSnapshot plus the append-only batch log. apply()
// validates a batch against the current snapshot, builds the next one
// (epoch + 1), and publishes it with a shared_ptr swap; readers that
// pinned the previous snapshot keep traversing it untouched. merge()
// folds the accumulated delta segments back into a flat PartitionedGraph
// base at a quiescent point — quiescence is automatic under RCU
// publication: in-flight queries hold their own shared_ptr, so the old
// base is freed when the last of them drains.
//
// materialize(epoch) replays seed + log into a standalone flat Graph —
// the differential harness hands that to baseline::reference_evaluate to
// check a query against the exact snapshot it pinned.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "graph/snapshot.h"

namespace rpqd {

struct GraphStoreStats {
  std::uint64_t epoch = 0;
  std::uint64_t batches_applied = 0;
  std::uint64_t merges = 0;
  /// Adjacency entries currently living in delta segments (both
  /// directions, all machines) — the merge-trigger quantity.
  std::uint64_t delta_entries = 0;
  std::uint64_t dead_vertices = 0;
  std::uint64_t vertices_inserted = 0;
  std::uint64_t edges_inserted = 0;
  std::uint64_t edges_deleted = 0;
  std::uint64_t vertices_deleted = 0;
  double last_merge_ms = 0.0;
  // ---- skew-aware balancing (DESIGN.md §14) ----
  /// Hot vertices currently mirrored (0 = replication off).
  std::uint64_t mirrored_vertices = 0;
  /// Adjacency entries held by mirror buckets (both directions, all
  /// machines).
  std::uint64_t mirror_entries = 0;
  /// MirrorSet rebuilds (set_hot_set, dirty updates, merges,
  /// repartitions).
  std::uint64_t mirror_rebuilds = 0;
  /// Partition-map adoptions performed.
  std::uint64_t repartitions = 0;
  double last_repartition_ms = 0.0;
};

class GraphStore {
 public:
  explicit GraphStore(std::shared_ptr<const PartitionedGraph> seed);

  /// The current snapshot; callers pin it by keeping the shared_ptr.
  std::shared_ptr<const GraphSnapshot> snapshot() const;
  std::uint64_t epoch() const;
  unsigned num_machines() const { return num_machines_; }

  /// Applies one batch atomically: validates against the current
  /// snapshot, publishes epoch + 1, appends to the log. Throws
  /// QueryError on validation failure (the store is unchanged).
  UpdateResult apply(const UpdateBatch& batch);

  /// Replays the seed graph plus the first `epoch` logged batches into a
  /// standalone flat Graph (tombstoned vertices included, their edges
  /// dropped). Edge ids are renumbered densely — harmless, they only
  /// link edge-property columns. `epoch` must not exceed epoch().
  std::shared_ptr<const Graph> materialize(std::uint64_t epoch) const;

  /// Folds all delta segments into a fresh flat base and publishes a
  /// delta-free snapshot at the SAME epoch (a merge changes no visible
  /// data). Returns false (and does nothing) when there are no deltas.
  /// Local vertex ids are remapped by the rebuild.
  bool merge();

  // ---- skew-aware balancing (DESIGN.md §14) ------------------------------

  /// Installs (or, with an empty vector, drops) the hot-vertex mirror
  /// set and publishes a snapshot carrying it at the SAME epoch. Every
  /// later apply()/merge()/repartition() keeps the mirrors coherent.
  void set_hot_set(std::vector<VertexId> hot);

  /// The currently armed hot set (empty = replication off).
  std::vector<VertexId> hot_set() const;

  /// Adopts an explicit vertex→machine map: rebuilds the flat base under
  /// the map at the SAME epoch (folding any deltas, like merge()) and
  /// publishes it. Local vertex ids are remapped, exactly as by merge().
  /// `assignment[v]` is v's new owner; vertices beyond the vector (later
  /// inserts) fall back to the hash placement.
  void repartition(std::vector<MachineId> assignment);

  GraphStoreStats stats() const;

 private:
  std::shared_ptr<const Graph> materialize_locked(std::uint64_t epoch) const;
  /// Rebuilds the flat base from the current log under map_ and
  /// publishes it (same epoch); mirror rebuild included.
  void rebase_locked();
  /// Attaches a freshly built MirrorSet for hot_ to the current
  /// snapshot (or strips mirrors when hot_ is empty).
  void refresh_mirrors_locked();

  mutable std::mutex mu_;
  std::shared_ptr<const Graph> seed_graph_;
  unsigned num_machines_ = 1;
  std::vector<UpdateBatch> log_;  // log_[e - 1] built epoch e
  std::shared_ptr<const GraphSnapshot> snap_;
  std::shared_ptr<const PartitionMap> map_;  // null = hash placement
  std::vector<VertexId> hot_;                // empty = replication off
  std::uint64_t mirror_version_ = 0;
  GraphStoreStats stats_;
};

}  // namespace rpqd
