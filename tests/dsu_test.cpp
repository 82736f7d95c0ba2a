// Tests for the distributed union-find behind owner-computes
// GraphFromFasta: MinUnionFind invariants, the hash ownership map, and the
// core property — distributed_components over scattered edge sets is
// byte-identical to the sequential cluster_contigs at every rank count.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

#include "chrysalis/components.hpp"
#include "chrysalis/dsu.hpp"
#include "simpi/context.hpp"

namespace trinity::chrysalis {
namespace {

TEST(MinUnionFindTest, SingletonsAreTheirOwnRoots) {
  MinUnionFind uf(5);
  EXPECT_EQ(uf.num_sets(), 5u);
  for (std::int32_t i = 0; i < 5; ++i) EXPECT_EQ(uf.find(i), i);
}

TEST(MinUnionFindTest, RootIsAlwaysTheSmallestElement) {
  MinUnionFind uf(8);
  EXPECT_TRUE(uf.unite(7, 3));
  EXPECT_EQ(uf.find(7), 3);
  EXPECT_TRUE(uf.unite(3, 5));
  EXPECT_EQ(uf.find(5), 3);
  // Joining through the larger side must still surface the global minimum.
  EXPECT_TRUE(uf.unite(5, 1));
  for (const std::int32_t v : {1, 3, 5, 7}) EXPECT_EQ(uf.find(v), 1);
  EXPECT_FALSE(uf.unite(7, 1));  // already one set
  EXPECT_EQ(uf.num_sets(), 5u);  // {1,3,5,7} + four singletons
}

TEST(MinUnionFindTest, ChainCompressesToTheMinimum) {
  constexpr std::int32_t kN = 300;
  MinUnionFind uf(kN);
  for (std::int32_t i = kN - 1; i > 0; --i) EXPECT_TRUE(uf.unite(i, i - 1));
  EXPECT_EQ(uf.num_sets(), 1u);
  for (std::int32_t i = 0; i < kN; ++i) EXPECT_EQ(uf.find(i), 0);
}

TEST(DsuOwnerTest, OwnersAreInRangeAndSpreadAcrossRanks) {
  for (const int nranks : {1, 2, 3, 5, 8}) {
    std::vector<int> hits(static_cast<std::size_t>(nranks), 0);
    for (std::int32_t v = 0; v < 512; ++v) {
      const int owner = dsu_owner(v, nranks);
      ASSERT_GE(owner, 0);
      ASSERT_LT(owner, nranks);
      EXPECT_EQ(owner, dsu_owner(v, nranks));  // deterministic
      ++hits[static_cast<std::size_t>(owner)];
    }
    // splitmix64 over 512 consecutive ids must not starve any rank.
    for (const int h : hits) EXPECT_GT(h, 0);
  }
}

/// component_of plus the component list must agree exactly.
void expect_identical(const ComponentSet& got, const ComponentSet& want) {
  ASSERT_EQ(got.component_of, want.component_of);
  ASSERT_EQ(got.num_components(), want.num_components());
  for (std::size_t c = 0; c < want.components.size(); ++c) {
    EXPECT_EQ(got.components[c].id, want.components[c].id);
    EXPECT_EQ(got.components[c].contig_ids, want.components[c].contig_ids);
  }
}

/// Runs distributed_components at `nranks` with `all` scattered round-robin
/// and asserts every rank returned the sequential cluster_contigs answer.
void check_matches_sequential(int nranks, std::size_t num_contigs,
                              const std::vector<ContigPair>& all) {
  const auto want = cluster_contigs(num_contigs, all);
  std::vector<ComponentSet> per_rank(static_cast<std::size_t>(nranks));
  simpi::run(nranks, [&](simpi::Context& ctx) {
    std::vector<ContigPair> mine;
    for (std::size_t i = 0; i < all.size(); ++i) {
      if (static_cast<int>(i % static_cast<std::size_t>(nranks)) == ctx.rank()) {
        mine.push_back(all[i]);
      }
    }
    per_rank[static_cast<std::size_t>(ctx.rank())] =
        distributed_components(ctx, num_contigs, mine);
  });
  for (const auto& got : per_rank) expect_identical(got, want);
}

TEST(DistributedComponentsTest, EmptyEdgeSetYieldsSingletons) {
  for (const int nranks : {1, 2, 4, 7}) check_matches_sequential(nranks, 9, {});
}

TEST(DistributedComponentsTest, NoContigsAtAll) {
  for (const int nranks : {1, 3}) check_matches_sequential(nranks, 0, {});
}

TEST(DistributedComponentsTest, ChainSpanningEveryRank) {
  std::vector<ContigPair> chain;
  for (std::int32_t i = 0; i + 1 < 64; ++i) chain.push_back({i, i + 1});
  for (int nranks = 1; nranks <= 8; ++nranks) {
    check_matches_sequential(nranks, 64, chain);
  }
}

TEST(DistributedComponentsTest, StarsDuplicatesAndSelfLoops) {
  std::vector<ContigPair> pairs;
  for (std::int32_t i = 1; i < 20; ++i) pairs.push_back({0, i});   // star at 0
  for (std::int32_t i = 41; i < 50; ++i) pairs.push_back({40, i});  // star at 40
  pairs.push_back({0, 5});    // duplicate
  pairs.push_back({5, 0});    // reversed duplicate
  pairs.push_back({33, 33});  // self loop
  for (int nranks = 1; nranks <= 8; ++nranks) {
    check_matches_sequential(nranks, 55, pairs);
  }
}

TEST(DistributedComponentsTest, RandomEdgeSetsMatchSequentialAtEveryRankCount) {
  std::mt19937 rng(20260808);
  for (int round = 0; round < 6; ++round) {
    const std::size_t n = 40 + static_cast<std::size_t>(round) * 37;
    std::uniform_int_distribution<std::int32_t> vertex(0, static_cast<std::int32_t>(n) - 1);
    std::vector<ContigPair> pairs(n * 2);
    for (auto& p : pairs) p = {vertex(rng), vertex(rng)};
    for (int nranks = 1; nranks <= 8; ++nranks) {
      check_matches_sequential(nranks, n, pairs);
    }
  }
}

TEST(DistributedComponentsTest, ResultIsIndependentOfEdgePlacement) {
  // The same global edge set, dealt to ranks three different ways, must
  // produce the same clustering (owner routing makes placement irrelevant).
  std::mt19937 rng(7);
  constexpr std::size_t kN = 120;
  std::uniform_int_distribution<std::int32_t> vertex(0, kN - 1);
  std::vector<ContigPair> all(180);
  for (auto& p : all) p = {vertex(rng), vertex(rng)};
  const auto want = cluster_contigs(kN, all);
  for (const int scheme : {0, 1, 2}) {
    std::vector<ComponentSet> per_rank(4);
    simpi::run(4, [&](simpi::Context& ctx) {
      std::vector<ContigPair> mine;
      for (std::size_t i = 0; i < all.size(); ++i) {
        const int home = scheme == 0 ? static_cast<int>(i % 4)
                         : scheme == 1
                             ? static_cast<int>(i * 4 / all.size())  // contiguous blocks
                             : 2;                                    // all on one rank
        if (home == ctx.rank()) mine.push_back(all[i]);
      }
      per_rank[static_cast<std::size_t>(ctx.rank())] =
          distributed_components(ctx, kN, mine);
    });
    for (const auto& got : per_rank) expect_identical(got, want);
  }
}

TEST(DistributedComponentsTest, StatsCountRoutedEdges) {
  std::vector<ContigPair> chain;
  for (std::int32_t i = 0; i + 1 < 32; ++i) chain.push_back({i, i + 1});
  std::vector<DsuStats> stats(4);
  const auto ranks = simpi::run(4, [&](simpi::Context& ctx) {
    std::vector<ContigPair> mine;
    for (std::size_t i = 0; i < chain.size(); ++i) {
      if (static_cast<int>(i % 4) == ctx.rank()) mine.push_back(chain[i]);
    }
    distributed_components(ctx, 32, mine, &stats[static_cast<std::size_t>(ctx.rank())]);
  });
  // A 4-rank chain cannot resolve without at least one boundary exchange.
  // Every rank counts the same rounds, and the edges they routed are
  // counted on the CommStats alltoallv row.
  const int rounds = stats[0].rounds;
  EXPECT_GE(rounds, 1);
  std::uint64_t routed = 0;
  for (const auto& r : ranks) {
    EXPECT_EQ(stats[static_cast<std::size_t>(r.rank)].rounds, rounds);
    routed += r.comm.of(simpi::CommOp::kAlltoallv).bytes_sent;
    // One reduction per round, the fixed-point check that ends the rounds,
    // and the verification of the final labels.
    EXPECT_EQ(r.comm.of(simpi::CommOp::kReduce).calls, static_cast<std::uint64_t>(rounds) + 2);
  }
  EXPECT_GT(routed, 0u);
}

TEST(DistributedComponentsTest, OutOfRangePairThrows) {
  simpi::run(1, [&](simpi::Context& ctx) {
    EXPECT_THROW(distributed_components(ctx, 4, {{0, 4}}), std::out_of_range);
    EXPECT_THROW(distributed_components(ctx, 4, {{-1, 2}}), std::out_of_range);
  });
}

}  // namespace
}  // namespace trinity::chrysalis
