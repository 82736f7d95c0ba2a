// Tests for the work-distribution strategies: the paper's chunked
// round-robin (Figure 3 semantics) and the discarded block pre-allocation.

#include <gtest/gtest.h>

#include <ostream>
#include <set>

#include "chrysalis/distribution.hpp"

namespace trinity::chrysalis {
namespace {

struct DistCase {
  std::size_t items;
  int ranks;
  std::size_t chunk;
};

// Names each case by its fields. gtest's default prints the struct's raw
// bytes, padding included, so the test names would vary between builds.
void PrintTo(const DistCase& c, std::ostream* os) {
  *os << "items=" << c.items << " ranks=" << c.ranks << " chunk=" << c.chunk;
}

class ChunkedRoundRobinTest : public ::testing::TestWithParam<DistCase> {};

TEST_P(ChunkedRoundRobinTest, EveryItemOwnedExactlyOnce) {
  const auto [items, ranks, chunk] = GetParam();
  const ChunkedRoundRobin dist(items, ranks, chunk);
  std::vector<int> owner(items, -1);
  for (int r = 0; r < ranks; ++r) {
    for (const auto& range : dist.chunks_for(r)) {
      for (std::size_t i = range.begin; i < range.end; ++i) {
        EXPECT_EQ(owner[i], -1) << "item " << i << " assigned twice";
        owner[i] = r;
      }
    }
  }
  for (std::size_t i = 0; i < items; ++i) {
    EXPECT_NE(owner[i], -1) << "item " << i << " unassigned";
  }
}

TEST_P(ChunkedRoundRobinTest, ChunksHonorSizeAndTailClip) {
  const auto [items, ranks, chunk] = GetParam();
  const ChunkedRoundRobin dist(items, ranks, chunk);
  for (int r = 0; r < ranks; ++r) {
    for (const auto& range : dist.chunks_for(r)) {
      EXPECT_LE(range.size(), chunk);
      EXPECT_GT(range.size(), 0u);
      EXPECT_LE(range.end, items);
      // Only the final chunk may be short — the paper's tail condition.
      if (range.size() < chunk) {
        EXPECT_EQ(range.end, items);
      }
    }
  }
}

TEST_P(ChunkedRoundRobinTest, OwnershipIsRoundRobinByChunkIndex) {
  const auto [items, ranks, chunk] = GetParam();
  const ChunkedRoundRobin dist(items, ranks, chunk);
  for (int r = 0; r < ranks; ++r) {
    for (const auto& range : dist.chunks_for(r)) {
      EXPECT_EQ(range.begin % chunk, 0u) << "chunks start on a chunk boundary";
      const std::size_t chunk_index = range.begin / chunk;
      EXPECT_EQ(static_cast<int>(chunk_index % static_cast<std::size_t>(ranks)), r);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ChunkedRoundRobinTest,
    ::testing::Values(DistCase{0, 1, 1}, DistCase{1, 1, 1}, DistCase{10, 1, 3},
                      DistCase{10, 3, 3}, DistCase{100, 4, 7}, DistCase{100, 7, 100},
                      DistCase{5, 8, 2},    // fewer chunks than ranks
                      DistCase{64, 4, 16},  // exact division
                      DistCase{65, 4, 16},  // one-item tail
                      DistCase{1000, 16, 1}));

TEST(ChunkedRoundRobinEdge, RejectsBadArguments) {
  EXPECT_THROW(ChunkedRoundRobin(10, 0, 1), std::invalid_argument);
  EXPECT_THROW(ChunkedRoundRobin(10, 2, 0), std::invalid_argument);
}

TEST(ChunkedRoundRobinEdge, DefaultChunkSizeIsPositive) {
  EXPECT_GE(ChunkedRoundRobin::default_chunk_size(0, 4, 16), 1u);
  EXPECT_GE(ChunkedRoundRobin::default_chunk_size(1000000, 16, 16), 1u);
  // Many items over few workers -> chunks hold multiple items.
  EXPECT_GT(ChunkedRoundRobin::default_chunk_size(1000000, 2, 2), 1u);
}

TEST(ChunkedRoundRobinEdge, NumChunksCountsTail) {
  const ChunkedRoundRobin dist(10, 2, 3);
  EXPECT_EQ(dist.num_chunks(), 4u);  // 3+3+3+1
}

class BlockDistributionTest : public ::testing::TestWithParam<DistCase> {};

TEST_P(BlockDistributionTest, BlocksPartitionTheIndexSpace) {
  const auto [items, ranks, chunk] = GetParam();
  (void)chunk;
  const BlockDistribution dist(items, ranks);
  std::size_t covered = 0;
  std::size_t prev_end = 0;
  for (int r = 0; r < ranks; ++r) {
    const auto block = dist.block_for(r);
    EXPECT_EQ(block.begin, prev_end) << "blocks must be contiguous";
    EXPECT_LE(block.begin, block.end);
    prev_end = block.end;
    covered += block.size();
  }
  EXPECT_EQ(prev_end, items);
  EXPECT_EQ(covered, items);
}

TEST_P(BlockDistributionTest, BlockSizesDifferByAtMostOne) {
  const auto [items, ranks, chunk] = GetParam();
  (void)chunk;
  const BlockDistribution dist(items, ranks);
  std::size_t min_size = items + 1;
  std::size_t max_size = 0;
  for (int r = 0; r < ranks; ++r) {
    const auto s = dist.block_for(r).size();
    min_size = std::min(min_size, s);
    max_size = std::max(max_size, s);
  }
  EXPECT_LE(max_size - min_size, 1u);
}

INSTANTIATE_TEST_SUITE_P(Cases, BlockDistributionTest,
                         ::testing::Values(DistCase{0, 3, 0}, DistCase{10, 3, 0},
                                           DistCase{100, 7, 0}, DistCase{5, 8, 0},
                                           DistCase{64, 4, 0}));

TEST(BlockDistributionEdge, RejectsZeroRanks) {
  EXPECT_THROW(BlockDistribution(10, 0), std::invalid_argument);
}

}  // namespace
}  // namespace trinity::chrysalis
