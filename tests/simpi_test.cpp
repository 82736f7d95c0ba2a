// Tests for the simpi substrate: point-to-point semantics, collectives
// against serial oracles across rank counts, abort propagation, packing,
// and the communication cost model.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <string>

#include "simpi/context.hpp"
#include "simpi/pack.hpp"

namespace trinity::simpi {
namespace {

// --- point-to-point --------------------------------------------------------------

TEST(SimpiP2P, PingPong) {
  run(2, [](Context& ctx) {
    if (ctx.rank() == 0) {
      ctx.send(1, 0, std::vector<int>{41});
      EXPECT_EQ(ctx.recv<int>(1, 1).at(0), 42);
    } else {
      const int v = ctx.recv<int>(0, 0).at(0);
      ctx.send(0, 1, std::vector<int>{v + 1});
    }
  });
}

TEST(SimpiP2P, MessagesFromOneSourceArriveInOrder) {
  run(2, [](Context& ctx) {
    if (ctx.rank() == 0) {
      for (int i = 0; i < 50; ++i) ctx.send(1, 3, std::vector<int>{i});
    } else {
      for (int i = 0; i < 50; ++i) EXPECT_EQ(ctx.recv<int>(0, 3).at(0), i);
    }
  });
}

TEST(SimpiP2P, TagsSelectMessages) {
  run(2, [](Context& ctx) {
    if (ctx.rank() == 0) {
      ctx.send(1, 5, std::vector<int>{55});
      ctx.send(1, 4, std::vector<int>{44});
    } else {
      // Receive in the opposite order of sending: tag matching must hold.
      EXPECT_EQ(ctx.recv<int>(0, 4).at(0), 44);
      EXPECT_EQ(ctx.recv<int>(0, 5).at(0), 55);
    }
  });
}

TEST(SimpiP2P, AnySourceReceivesFromEveryRank) {
  run(4, [](Context& ctx) {
    if (ctx.rank() == 0) {
      std::set<int> sources;
      for (int i = 0; i < 3; ++i) {
        const Message msg = ctx.recv_bytes(kAnySource, 9);
        sources.insert(msg.source);
      }
      EXPECT_EQ(sources, (std::set<int>{1, 2, 3}));
    } else {
      ctx.send(0, 9, std::vector<int>{ctx.rank()});
    }
  });
}

TEST(SimpiP2P, VectorPayloadRoundTrips) {
  run(2, [](Context& ctx) {
    if (ctx.rank() == 0) {
      std::vector<double> data(1000);
      std::iota(data.begin(), data.end(), 0.5);
      ctx.send(1, 2, data);
    } else {
      const auto got = ctx.recv<double>(0, 2);
      ASSERT_EQ(got.size(), 1000u);
      EXPECT_DOUBLE_EQ(got[999], 999.5);
    }
  });
}

TEST(SimpiP2P, NegativeUserTagRejected) {
  run(2, [](Context& ctx) {
    if (ctx.rank() == 0) {
      EXPECT_THROW(ctx.send(1, -1, std::vector<int>{0}), std::invalid_argument);
      ctx.send(1, 0, std::vector<int>{1});  // unblock the peer
    } else {
      (void)ctx.recv<int>(0, 0);
    }
  });
}

TEST(SimpiP2P, OutOfRangeDestinationRejected) {
  run(1, [](Context& ctx) {
    EXPECT_THROW(ctx.send(5, 0, std::vector<int>{0}), std::out_of_range);
  });
}

// --- collectives, parameterized over world size -----------------------------------

class SimpiCollectives : public ::testing::TestWithParam<int> {};

TEST_P(SimpiCollectives, BarrierSynchronizesPhases) {
  const int nranks = GetParam();
  std::atomic<int> arrived{0};
  run(nranks, [&](Context& ctx) {
    arrived.fetch_add(1);
    ctx.barrier();
    // After the barrier every rank must have arrived.
    EXPECT_EQ(arrived.load(), nranks);
  });
}

TEST_P(SimpiCollectives, BcastDeliversRootData) {
  const int nranks = GetParam();
  run(nranks, [&](Context& ctx) {
    std::vector<int> data;
    if (ctx.rank() == 0) data = {10, 20, 30};
    ctx.bcast(data, 0);
    EXPECT_EQ(data, (std::vector<int>{10, 20, 30}));
  });
}

TEST_P(SimpiCollectives, BcastFromNonZeroRoot) {
  const int nranks = GetParam();
  const int root = nranks - 1;
  run(nranks, [&](Context& ctx) {
    std::vector<std::uint64_t> data;
    if (ctx.rank() == root) data = {7ULL};
    ctx.bcast(data, root);
    ASSERT_EQ(data.size(), 1u);
    EXPECT_EQ(data[0], 7ULL);
  });
}

TEST_P(SimpiCollectives, GathervCollectsPerRankVectors) {
  const int nranks = GetParam();
  run(nranks, [&](Context& ctx) {
    // Rank r contributes r+1 copies of its rank id.
    std::vector<int> local(static_cast<std::size_t>(ctx.rank()) + 1, ctx.rank());
    const auto parts = ctx.gatherv(local, 0);
    if (ctx.rank() == 0) {
      ASSERT_EQ(parts.size(), static_cast<std::size_t>(nranks));
      for (int r = 0; r < nranks; ++r) {
        ASSERT_EQ(parts[static_cast<std::size_t>(r)].size(),
                  static_cast<std::size_t>(r) + 1);
        for (const int v : parts[static_cast<std::size_t>(r)]) EXPECT_EQ(v, r);
      }
    } else {
      EXPECT_TRUE(parts.empty());
    }
  });
}

TEST_P(SimpiCollectives, AllgathervConcatenatesInRankOrder) {
  const int nranks = GetParam();
  run(nranks, [&](Context& ctx) {
    std::vector<int> local{ctx.rank() * 100, ctx.rank() * 100 + 1};
    const auto all = ctx.allgatherv(local);
    ASSERT_EQ(all.size(), static_cast<std::size_t>(2 * nranks));
    for (int r = 0; r < nranks; ++r) {
      EXPECT_EQ(all[static_cast<std::size_t>(2 * r)], r * 100);
      EXPECT_EQ(all[static_cast<std::size_t>(2 * r) + 1], r * 100 + 1);
    }
  });
}

TEST_P(SimpiCollectives, AllgathervHandlesEmptyContributions) {
  const int nranks = GetParam();
  run(nranks, [&](Context& ctx) {
    // Only even ranks contribute.
    std::vector<int> local;
    if (ctx.rank() % 2 == 0) local.push_back(ctx.rank());
    const auto all = ctx.allgatherv(local);
    std::vector<int> expected;
    for (int r = 0; r < nranks; r += 2) expected.push_back(r);
    EXPECT_EQ(all, expected);
  });
}

TEST_P(SimpiCollectives, ReductionsMatchSerialOracle) {
  const int nranks = GetParam();
  run(nranks, [&](Context& ctx) {
    const int sum = ctx.allreduce_sum(ctx.rank() + 1);
    EXPECT_EQ(sum, nranks * (nranks + 1) / 2);
    EXPECT_DOUBLE_EQ(ctx.allreduce_sum(static_cast<double>(ctx.rank()) * 0.5),
                     static_cast<double>(nranks * (nranks - 1)) * 0.25);
  });
}

TEST_P(SimpiCollectives, RepeatedCollectivesDoNotCrossTalk) {
  const int nranks = GetParam();
  run(nranks, [&](Context& ctx) {
    for (int round = 0; round < 20; ++round) {
      const auto all = ctx.allgather(ctx.rank() * 1000 + round);
      ASSERT_EQ(all.size(), static_cast<std::size_t>(nranks));
      for (int r = 0; r < nranks; ++r) {
        EXPECT_EQ(all[static_cast<std::size_t>(r)], r * 1000 + round);
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, SimpiCollectives, ::testing::Values(1, 2, 3, 4, 7, 8));

TEST_P(SimpiCollectives, RandomizedAllPairsTrafficIsExact) {
  // Fuzz: every rank sends a random-length, random-content vector to every
  // other rank; receivers verify content and provenance exactly.
  const int nranks = GetParam();
  run(nranks, [&](Context& ctx) {
    // Deterministic per-(src,dst) payload so receivers can reconstruct it.
    auto payload = [](int src, int dst) {
      std::vector<std::uint32_t> data(static_cast<std::size_t>((src * 7 + dst * 13) % 50) + 1);
      for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<std::uint32_t>(src * 1000003 + dst * 1009 + i);
      }
      return data;
    };
    for (int dst = 0; dst < ctx.size(); ++dst) {
      if (dst == ctx.rank()) continue;
      ctx.send(dst, 21, payload(ctx.rank(), dst));
    }
    for (int src = 0; src < ctx.size(); ++src) {
      if (src == ctx.rank()) continue;
      const auto got = ctx.recv<std::uint32_t>(src, 21);
      EXPECT_EQ(got, payload(src, ctx.rank())) << "from rank " << src;
    }
  });
}

// --- error handling ------------------------------------------------------------------

TEST(SimpiAbort, ExceptionInOneRankUnblocksOthers) {
  EXPECT_THROW(
      run(3,
          [](Context& ctx) {
            if (ctx.rank() == 0) {
              throw std::runtime_error("rank0 failed");
            }
            // Other ranks block forever on a message that never comes; the
            // abort must wake them.
            ctx.recv_bytes(0, 17);
          }),
      std::runtime_error);
}

TEST(SimpiAbort, RootCauseExceptionWinsOverAbortedError) {
  try {
    run(3, [](Context& ctx) {
      if (ctx.rank() == 2) throw std::logic_error("root cause");
      ctx.barrier();
    });
    FAIL() << "expected an exception";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "root cause");
  }
}

TEST(SimpiAbort, BarrierWaitersAreWoken) {
  EXPECT_THROW(run(2,
                   [](Context& ctx) {
                     if (ctx.rank() == 0) throw std::runtime_error("boom");
                     ctx.barrier();
                   }),
               std::runtime_error);
}

TEST(SimpiRun, RejectsZeroRanks) {
  EXPECT_THROW(run(0, [](Context&) {}), std::invalid_argument);
}

TEST(SimpiRun, ReportsPerRankResults) {
  const auto results = run(3, [](Context& ctx) {
    double sink = 0.0;
    for (int i = 0; i < 100000 * (ctx.rank() + 1); ++i) sink += i;
    EXPECT_GE(sink, 0.0);
    ctx.barrier();
  });
  ASSERT_EQ(results.size(), 3u);
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(results[static_cast<std::size_t>(r)].rank, r);
    EXPECT_GE(results[static_cast<std::size_t>(r)].cpu_seconds, 0.0);
    EXPECT_GT(results[static_cast<std::size_t>(r)].comm_seconds, 0.0);  // barrier charged
    EXPECT_GE(results[static_cast<std::size_t>(r)].virtual_seconds(),
              results[static_cast<std::size_t>(r)].cpu_seconds);
  }
}

TEST(SimpiP2P, TypedRecvSizeMismatchThrows) {
  run(2, [](Context& ctx) {
    if (ctx.rank() == 0) {
      // 3 bytes cannot be reinterpreted as int32s.
      const std::byte payload[3] = {std::byte{1}, std::byte{2}, std::byte{3}};
      ctx.send_bytes(1, 0, payload);
    } else {
      EXPECT_THROW((void)ctx.recv<std::int32_t>(0, 0), std::runtime_error);
    }
  });
}

TEST(SimpiP2P, SendChargesMoreForBiggerPayloads) {
  run(2, [](Context& ctx) {
    if (ctx.rank() == 0) {
      const double t0 = ctx.comm_seconds();
      ctx.send(1, 0, std::vector<char>(16));
      const double small = ctx.comm_seconds() - t0;
      ctx.send(1, 0, std::vector<char>(1 << 20));
      const double big = ctx.comm_seconds() - t0 - small;
      EXPECT_GT(big, small);
    } else {
      (void)ctx.recv<char>(0, 0);
      (void)ctx.recv<char>(0, 0);
    }
  });
}

// --- pack ------------------------------------------------------------------------------

TEST(SimpiPack, RoundTripsStrings) {
  const std::vector<std::string> in{"ACGT", "", "TTTTTTTT", "A"};
  EXPECT_EQ(unpack_strings(pack_strings(in)), in);
}

TEST(SimpiPack, EmptyVectorRoundTrips) {
  EXPECT_TRUE(unpack_strings(pack_strings({})).empty());
}

TEST(SimpiPack, PoolUnpacksConcatenatedFrames) {
  const std::vector<std::string> a{"AA", "CC"};
  const std::vector<std::string> b{"GG"};
  auto bytes = pack_strings(a);
  const auto more = pack_strings(b);
  bytes.insert(bytes.end(), more.begin(), more.end());
  EXPECT_EQ(unpack_string_pool(bytes), (std::vector<std::string>{"AA", "CC", "GG"}));
}

TEST(SimpiPack, TruncatedBufferThrows) {
  auto bytes = pack_strings({"ACGTACGT"});
  bytes.resize(bytes.size() - 3);
  EXPECT_THROW(unpack_strings(bytes), std::runtime_error);

  // A length prefix so large that pos + len wraps past zero must still
  // read as truncated, not reach the string constructor.
  auto huge = pack_strings({"ACGTACGT"});
  const std::uint64_t len = UINT64_MAX - 7;
  std::memcpy(huge.data() + sizeof(std::uint64_t), &len, sizeof(len));
  EXPECT_THROW(unpack_strings(huge), std::runtime_error);
}

TEST(SimpiPack, TrailingGarbageThrows) {
  auto bytes = pack_strings({"ACGT"});
  bytes.push_back(std::byte{0});
  EXPECT_THROW(unpack_strings(bytes), std::runtime_error);
}

// --- cost model -----------------------------------------------------------------------

TEST(CostModel, P2PCostGrowsWithBytes) {
  const CommCostModel m;
  EXPECT_GT(m.p2p_cost(1 << 20), m.p2p_cost(1));
  EXPECT_GE(m.p2p_cost(0), m.latency_seconds);
}

TEST(CostModel, CollectiveCostIsZeroForSingleRank) {
  const CommCostModel m;
  EXPECT_EQ(m.collective_cost(1, 1 << 20), 0.0);
  EXPECT_EQ(m.barrier_cost(1), 0.0);
}

TEST(CostModel, CollectiveLatencyGrowsLogarithmically) {
  const CommCostModel m;
  const double c2 = m.collective_cost(2, 0);
  const double c16 = m.collective_cost(16, 0);
  EXPECT_NEAR(c16 / c2, 4.0, 1e-9);  // log2(16)/log2(2)
}

TEST(CostModel, CommClockAccumulatesOnSend) {
  run(2, [](Context& ctx) {
    const double before = ctx.comm_seconds();
    if (ctx.rank() == 0) {
      std::vector<std::byte> payload(1 << 16);
      ctx.send_bytes(1, 0, payload);
      EXPECT_GT(ctx.comm_seconds(), before);
    } else {
      ctx.recv_bytes(0, 0);
    }
  });
}

}  // namespace
}  // namespace trinity::simpi
