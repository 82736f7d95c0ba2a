#pragma once
// Distributed union-find (DSU) over contig ids — the component builder of
// the owner-computes GraphFromFasta path.
//
// The pooled path replicates every weld pair onto every rank and runs the
// sequential UnionFind there; its communication is O(global pairs) per
// rank. Related large-scale assemblers (ELBA's string-graph construction,
// the extreme-scale HipMer line of work in PAPERS.md) merge components
// with a distributed union-find instead: each rank keeps a path-compressed
// local forest over the vertices it has seen, and only *boundary edges* —
// fresh root-pair unions — travel, owner-addressed, until a global fixed
// point. Per-rank traffic is O(spanning edges), never O(pairs).
//
// Algorithm (collective; every rank calls with its own local edge set):
//  1. Local contraction: unite this rank's pairs in a union-by-min,
//     path-compressed forest. Every *successful* union is logged as the
//     contracted boundary edge (lo_root, hi_root).
//  2. Boundary exchange: each fresh edge is routed with Context::alltoallv
//     to the owners of both endpoints (owner(v) = splitmix64(v) % nranks),
//     so edge chains meeting at a shared root meet at that root's owner.
//     Receivers unite the edges, logging any fresh contractions, and the
//     round repeats until allreduce_sum(fresh unions) == 0.
//  3. Resolution: ranks exchange block segments of their root estimates
//     (find(v) for all v) with alltoallv; the block owner takes the
//     element-wise minimum — under union-by-min every estimate is >= the
//     true component minimum, and at the fixed point some rank holds the
//     exact minimum — then the finished blocks are shared back.
//  4. Verification: each rank re-checks its *original* pairs under the
//     final labels. Any violated pair re-enters the exchange as a new
//     boundary edge, so the result is correct by construction, not by a
//     convergence argument; in practice the first fixed point is final.
//
// The labels equal each component's smallest contig id — exactly the
// anchor cluster_contigs numbers components by — so rebuilding the
// ComponentSet from them is byte-identical to the pooled path (dsu_test
// asserts this over random edge sets at every rank count).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "chrysalis/components.hpp"
#include "simpi/context.hpp"

namespace trinity::chrysalis {

/// Union-find specialized for component labeling: union-by-min (the root
/// of every set is its smallest element) with full path compression. The
/// rank-based UnionFind in components.hpp is faster for anonymous sets;
/// this one makes roots meaningful, which the distributed resolution
/// phase depends on.
class MinUnionFind {
 public:
  explicit MinUnionFind(std::size_t n);

  /// Representative of x's set — the smallest element united into it.
  std::int32_t find(std::int32_t x);

  /// Merges the sets of a and b; returns true when they were distinct.
  bool unite(std::int32_t a, std::int32_t b);

  [[nodiscard]] std::size_t num_sets() const { return num_sets_; }

 private:
  std::vector<std::int32_t> parent_;
  std::size_t num_sets_;
};

/// Per-rank observability counters of one distributed_components call.
/// The edges' bytes are counted on the rank's CommStats alltoallv row.
struct DsuStats {
  int rounds = 0;  ///< boundary-exchange rounds until the global fixed point
};

/// Hash-partition owner of vertex v among nranks ranks (splitmix64
/// finalizer, the same mix the weld sharding uses).
[[nodiscard]] int dsu_owner(std::int32_t v, int nranks);

/// Distributed component clustering. Collective: every rank of the world
/// must call it with the same `num_contigs` but its *own* `local_pairs`
/// (the global edge set is the union over ranks). All ranks return the
/// same ComponentSet, byte-identical to
/// cluster_contigs(num_contigs, union of all ranks' pairs).
ComponentSet distributed_components(simpi::Context& ctx, std::size_t num_contigs,
                                    const std::vector<ContigPair>& local_pairs,
                                    DsuStats* stats = nullptr);

}  // namespace trinity::chrysalis
