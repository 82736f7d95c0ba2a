// Tests for the simpi extensions: one-sided shared counters (the
// MPI_Fetch_and_op analogue), collective ordered file output (the MPI-I/O
// analogue), and the alltoallv collective.

#include <gtest/gtest.h>

#include <fstream>
#include <numeric>
#include <set>

#include "simpi/context.hpp"
#include "simpi/file_io.hpp"
#include "simpi/rma.hpp"
#include "test_helpers.hpp"

namespace trinity::simpi {
namespace {

using trinity::testing::TempDir;

// --- SharedCounter --------------------------------------------------------------

TEST(SharedCounterTest, StartsAtZero) {
  run(2, [](Context& ctx) {
    SharedCounter counter(ctx, 1);
    ctx.barrier();
    // Neither rank has incremented yet.
    EXPECT_EQ(counter.fetch_add(0), 0u);
    ctx.barrier();
  });
}

TEST(SharedCounterTest, FetchAddReturnsPreviousValue) {
  run(1, [](Context& ctx) {
    SharedCounter counter(ctx, 2);
    EXPECT_EQ(counter.fetch_add(1), 0u);
    EXPECT_EQ(counter.fetch_add(5), 1u);
    EXPECT_EQ(counter.fetch_add(0), 6u);
  });
}

class SharedCounterWorlds : public ::testing::TestWithParam<int> {};

TEST_P(SharedCounterWorlds, ClaimsArePairwiseDistinctAndComplete) {
  const int nranks = GetParam();
  constexpr std::uint64_t kClaimsPerRank = 200;
  std::vector<std::vector<std::uint64_t>> claims(static_cast<std::size_t>(nranks));
  run(nranks, [&](Context& ctx) {
    SharedCounter counter(ctx, 3);
    auto& mine = claims[static_cast<std::size_t>(ctx.rank())];
    for (std::uint64_t i = 0; i < kClaimsPerRank; ++i) {
      mine.push_back(counter.fetch_add(1));
    }
  });
  std::set<std::uint64_t> all;
  for (const auto& per_rank : claims) {
    for (const auto v : per_rank) {
      EXPECT_TRUE(all.insert(v).second) << "value " << v << " claimed twice";
    }
  }
  // Exactly [0, nranks * kClaimsPerRank) claimed.
  EXPECT_EQ(all.size(), static_cast<std::size_t>(nranks) * kClaimsPerRank);
  EXPECT_EQ(*all.rbegin(), static_cast<std::uint64_t>(nranks) * kClaimsPerRank - 1);
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, SharedCounterWorlds, ::testing::Values(1, 2, 4, 8));

TEST(SharedCounterTest, DistinctIdsAreIndependent) {
  run(1, [](Context& ctx) {
    SharedCounter a(ctx, 10);
    SharedCounter b(ctx, 11);
    a.fetch_add(7);
    EXPECT_EQ(a.fetch_add(0), 7u);
    EXPECT_EQ(b.fetch_add(0), 0u);
  });
}

TEST(SharedCounterTest, ResetRestartsTheSequence) {
  run(1, [](Context& ctx) {
    SharedCounter counter(ctx, 12);
    counter.fetch_add(100);
    counter.reset(3);
    EXPECT_EQ(counter.fetch_add(1), 3u);
  });
}

TEST(SharedCounterTest, OperationsChargeCommTime) {
  run(2, [](Context& ctx) {
    const double before = ctx.comm_seconds();
    SharedCounter counter(ctx, 13);
    counter.fetch_add(1);
    EXPECT_GT(ctx.comm_seconds(), before);
  });
}

// --- write_file_ordered -----------------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

class CollectiveWrite : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveWrite, ConcatenatesInRankOrder) {
  const int nranks = GetParam();
  const TempDir dir("cwrite");
  const std::string path = dir.file("out.bin");
  run(nranks, [&](Context& ctx) {
    const std::string mine = "rank" + std::to_string(ctx.rank()) + ";";
    write_file_ordered(ctx, path, mine);
  });
  std::string expected;
  for (int r = 0; r < nranks; ++r) expected += "rank" + std::to_string(r) + ";";
  EXPECT_EQ(read_file(path), expected);
}

TEST_P(CollectiveWrite, HandlesUnequalAndEmptyContributions) {
  const int nranks = GetParam();
  const TempDir dir("cwrite2");
  const std::string path = dir.file("out.bin");
  run(nranks, [&](Context& ctx) {
    // Odd ranks contribute nothing; even ranks contribute rank+1 bytes.
    std::string mine;
    if (ctx.rank() % 2 == 0) {
      mine.assign(static_cast<std::size_t>(ctx.rank()) + 1, 'a' + static_cast<char>(ctx.rank()));
    }
    write_file_ordered(ctx, path, mine);
  });
  std::string expected;
  for (int r = 0; r < nranks; r += 2) {
    expected.append(static_cast<std::size_t>(r) + 1, 'a' + static_cast<char>(r));
  }
  EXPECT_EQ(read_file(path), expected);
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, CollectiveWrite, ::testing::Values(1, 2, 3, 5, 8));

TEST(CollectiveWriteEdge, OverwritesExistingFile) {
  const TempDir dir("cwrite3");
  const std::string path = dir.file("out.bin");
  {
    std::ofstream out(path);
    out << "previous content that is much longer than the new content";
  }
  run(2, [&](Context& ctx) {
    write_file_ordered(ctx, path, ctx.rank() == 0 ? "ab" : "cd");
  });
  EXPECT_EQ(read_file(path), "abcd");
}

TEST(CollectiveWriteEdge, UnwritableDirectoryThrows) {
  EXPECT_THROW(run(2,
                   [&](Context& ctx) {
                     write_file_ordered(ctx, "/nonexistent_dir_xyz/file.bin", "data");
                   }),
               std::runtime_error);
}

// --- Context::alltoallv ------------------------------------------------------------

class ContextAlltoallvWorlds : public ::testing::TestWithParam<int> {};

TEST_P(ContextAlltoallvWorlds, TransposesThePartMatrix) {
  const int nranks = GetParam();
  run(nranks, [&](Context& ctx) {
    std::vector<std::vector<int>> send_parts;
    for (int d = 0; d < nranks; ++d) {
      // Part lengths vary by (source, dest) so size bookkeeping is exercised.
      send_parts.emplace_back(static_cast<std::size_t>((ctx.rank() + d) % 3 + 1),
                              ctx.rank() * 100 + d);
    }
    const auto received = ctx.alltoallv(send_parts);
    ASSERT_EQ(received.size(), static_cast<std::size_t>(nranks));
    for (int src = 0; src < nranks; ++src) {
      const auto& part = received[static_cast<std::size_t>(src)];
      ASSERT_EQ(part.size(), static_cast<std::size_t>((src + ctx.rank()) % 3 + 1));
      for (const int v : part) EXPECT_EQ(v, src * 100 + ctx.rank());
    }
  });
}

TEST_P(ContextAlltoallvWorlds, EmptyPartsAreFine) {
  const int nranks = GetParam();
  run(nranks, [&](Context& ctx) {
    std::vector<std::vector<double>> send_parts(static_cast<std::size_t>(nranks));
    const auto received = ctx.alltoallv(send_parts);
    for (const auto& part : received) EXPECT_TRUE(part.empty());
  });
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, ContextAlltoallvWorlds, ::testing::Values(1, 2, 3, 5, 8));

TEST(AlltoallvTest, ChargesCommunication) {
  run(2, [](Context& ctx) {
    const double before = ctx.comm_seconds();
    std::vector<std::vector<int>> parts{{1, 2, 3}, {4, 5, 6}};
    (void)ctx.alltoallv(parts);
    EXPECT_GT(ctx.comm_seconds(), before);
  });
}

TEST(ContextAlltoallvTest, AccountsOnItsOwnRow) {
  const auto ranks = run(3, [](Context& ctx) {
    std::vector<std::vector<int>> parts(3);
    for (auto& p : parts) p.assign(2, ctx.rank());  // 6 ints out per rank
    (void)ctx.alltoallv(parts);
  });
  for (const auto& r : ranks) {
    const auto& row = r.comm.of(CommOp::kAlltoallv);
    EXPECT_EQ(row.calls, 1u);
    // Only the parts for the two peers move; the own slot counts nothing.
    EXPECT_EQ(row.bytes_sent, 4 * sizeof(int));
    EXPECT_EQ(row.bytes_received, 4 * sizeof(int));
    EXPECT_GT(r.comm_seconds, 0.0);  // the modeled collective cost is charged
  }
}

TEST(ContextAlltoallvTest, TypedSizeMismatchThrows) {
  // Rank 0 sends one 4-byte int; rank 1 expects 8-byte doubles.
  EXPECT_THROW(run(2,
                   [](Context& ctx) {
                     if (ctx.rank() == 0) {
                       (void)ctx.alltoallv(std::vector<std::vector<int>>{{1}, {2}});
                     } else {
                       (void)ctx.alltoallv(std::vector<std::vector<double>>(2));
                     }
                   }),
               std::runtime_error);
}

TEST(ContextAlltoallvTest, WrongPartCountThrows) {
  EXPECT_THROW(run(2,
                   [](Context& ctx) {
                     std::vector<std::vector<int>> parts(1);  // wrong: need 2
                     (void)ctx.alltoallv(parts);
                   }),
               std::invalid_argument);
}

}  // namespace
}  // namespace trinity::simpi
