#include "chrysalis/dsu.hpp"

#include <algorithm>
#include <stdexcept>

#include "chrysalis/distribution.hpp"
#include "kmer/flat_index.hpp"

namespace trinity::chrysalis {

MinUnionFind::MinUnionFind(std::size_t n) : parent_(n), num_sets_(n) {
  for (std::size_t i = 0; i < n; ++i) parent_[i] = static_cast<std::int32_t>(i);
}

std::int32_t MinUnionFind::find(std::int32_t x) {
  std::int32_t root = x;
  while (parent_[static_cast<std::size_t>(root)] != root) {
    root = parent_[static_cast<std::size_t>(root)];
  }
  while (parent_[static_cast<std::size_t>(x)] != root) {
    std::int32_t next = parent_[static_cast<std::size_t>(x)];
    parent_[static_cast<std::size_t>(x)] = root;
    x = next;
  }
  return root;
}

bool MinUnionFind::unite(std::int32_t a, std::int32_t b) {
  std::int32_t ra = find(a);
  std::int32_t rb = find(b);
  if (ra == rb) return false;
  // Union-by-min: the root of every set is its smallest element, so root
  // estimates only ever decrease toward the true component minimum.
  if (rb < ra) std::swap(ra, rb);
  parent_[static_cast<std::size_t>(rb)] = ra;
  --num_sets_;
  return true;
}

int dsu_owner(std::int32_t v, int nranks) {
  return static_cast<int>(kmer::mix_kmer_code(static_cast<std::uint64_t>(v)) %
                          static_cast<std::uint64_t>(nranks));
}

namespace {

/// Unites `edges` (flat a,b pairs) into `uf`, appending every successful
/// union's contracted root pair to `fresh`.
void contract(MinUnionFind& uf, const std::vector<std::int32_t>& edges,
              std::vector<std::int32_t>& fresh) {
  for (std::size_t i = 0; i + 1 < edges.size(); i += 2) {
    const std::int32_t ra = uf.find(edges[i]);
    const std::int32_t rb = uf.find(edges[i + 1]);
    if (ra == rb) continue;
    uf.unite(ra, rb);
    fresh.push_back(std::min(ra, rb));
    fresh.push_back(std::max(ra, rb));
  }
}

}  // namespace

ComponentSet distributed_components(simpi::Context& ctx, std::size_t num_contigs,
                                    const std::vector<ContigPair>& local_pairs,
                                    DsuStats* stats) {
  const int nranks = ctx.size();
  for (const auto& p : local_pairs) {
    if (p.a < 0 || p.b < 0 || static_cast<std::size_t>(p.a) >= num_contigs ||
        static_cast<std::size_t>(p.b) >= num_contigs) {
      throw std::out_of_range("distributed_components: pair index out of range");
    }
  }

  MinUnionFind uf(num_contigs);
  DsuStats local_stats;
  std::vector<std::int32_t> pending;
  pending.reserve(local_pairs.size() * 2);
  for (const auto& p : local_pairs) {
    pending.push_back(p.a);
    pending.push_back(p.b);
  }

  const BlockDistribution blocks(num_contigs, nranks);
  std::vector<std::int32_t> labels;
  for (;;) {
    // Boundary exchange until the global fixed point: unite what arrived,
    // route the fresh contracted edges to the owners of both endpoints
    // (chains sharing a root meet at that root's owner), repeat while any
    // rank still merged something.
    for (;;) {
      std::vector<std::int32_t> fresh;
      contract(uf, pending, fresh);
      const std::uint64_t total_fresh =
          ctx.allreduce_sum(static_cast<std::uint64_t>(fresh.size() / 2));
      if (total_fresh == 0) break;
      ++local_stats.rounds;
      std::vector<std::vector<std::int32_t>> outbox(static_cast<std::size_t>(nranks));
      for (std::size_t i = 0; i + 1 < fresh.size(); i += 2) {
        const int lo_owner = dsu_owner(fresh[i], nranks);
        const int hi_owner = dsu_owner(fresh[i + 1], nranks);
        outbox[static_cast<std::size_t>(lo_owner)].push_back(fresh[i]);
        outbox[static_cast<std::size_t>(lo_owner)].push_back(fresh[i + 1]);
        if (hi_owner != lo_owner) {
          outbox[static_cast<std::size_t>(hi_owner)].push_back(fresh[i]);
          outbox[static_cast<std::size_t>(hi_owner)].push_back(fresh[i + 1]);
        }
      }
      const auto received = ctx.alltoallv(outbox);
      pending.clear();
      for (const auto& part : received) {
        pending.insert(pending.end(), part.begin(), part.end());
      }
    }

    // Resolution: element-wise minimum of every rank's root estimates.
    // Each estimate is the minimum of that rank's *known* piece of the
    // component, so it is >= the true minimum, and the fixed point put the
    // exact minimum on at least one rank; min over ranks recovers it.
    // Block-partitioned reduce-scatter, then the finished blocks are
    // shared back — both legs on alltoallv, so no pooled collective runs.
    std::vector<std::vector<std::int32_t>> est_parts(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) {
      const IndexRange range = blocks.block_for(r);
      auto& part = est_parts[static_cast<std::size_t>(r)];
      part.reserve(range.end - range.begin);
      for (std::size_t v = range.begin; v < range.end; ++v) {
        part.push_back(uf.find(static_cast<std::int32_t>(v)));
      }
    }
    const auto est_received = ctx.alltoallv(est_parts);
    const IndexRange mine = blocks.block_for(ctx.rank());
    std::vector<std::int32_t> my_block(mine.end - mine.begin);
    for (std::size_t i = 0; i < my_block.size(); ++i) {
      my_block[i] = static_cast<std::int32_t>(mine.begin + i);
    }
    for (const auto& part : est_received) {
      for (std::size_t i = 0; i < part.size() && i < my_block.size(); ++i) {
        my_block[i] = std::min(my_block[i], part[i]);
      }
    }
    std::vector<std::vector<std::int32_t>> share(static_cast<std::size_t>(nranks),
                                                 my_block);
    const auto final_blocks = ctx.alltoallv(share);
    labels.clear();
    labels.reserve(num_contigs);
    for (const auto& block : final_blocks) {
      labels.insert(labels.end(), block.begin(), block.end());
    }

    // Verification: the final labels must agree across every original
    // local pair. A violation (possible only if a knowledge chain never
    // met at a common rank) re-enters the exchange as a boundary edge, so
    // correctness does not rest on the fixed point alone.
    pending.clear();
    for (const auto& p : local_pairs) {
      const std::int32_t la = labels[static_cast<std::size_t>(p.a)];
      const std::int32_t lb = labels[static_cast<std::size_t>(p.b)];
      if (la != lb) {
        pending.push_back(la);
        pending.push_back(lb);
      }
    }
    const std::uint64_t violations =
        ctx.allreduce_sum(static_cast<std::uint64_t>(pending.size() / 2));
    if (violations == 0) break;
  }

  if (stats != nullptr) *stats = local_stats;

  // labels[v] is v's component minimum, the anchor cluster_contigs numbers
  // by; rebuilding through it keeps the output byte-identical to the
  // pooled path.
  std::vector<ContigPair> label_pairs;
  for (std::size_t v = 0; v < num_contigs; ++v) {
    const std::int32_t label = labels[v];
    if (label != static_cast<std::int32_t>(v)) {
      label_pairs.push_back({label, static_cast<std::int32_t>(v)});
    }
  }
  return cluster_contigs(num_contigs, label_pairs);
}

}  // namespace trinity::chrysalis
