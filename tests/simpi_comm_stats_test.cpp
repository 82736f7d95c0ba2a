// Per-rank communication accounting: exact call/byte counts for every
// costed operation, the layered-collective bookkeeping (allgatherv on top
// of gatherv + bcast), blocked-wait measurement, and the skew ratio the
// run report derives from it. The expected numbers here restate the
// counting semantics documented in simpi/comm_stats.hpp and
// docs/OBSERVABILITY.md — if one of these tests breaks, the docs are
// stale too.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "simpi/context.hpp"

namespace trinity::simpi {
namespace {

const OpStats& op(const std::vector<RankResult>& results, int rank, CommOp which) {
  return results[static_cast<std::size_t>(rank)].comm.of(which);
}

TEST(CommStats, SendRecvCountsBothSides) {
  const auto results = run(2, [](Context& ctx) {
    const std::vector<std::int32_t> payload{1, 2, 3};  // 12 bytes
    if (ctx.rank() == 0) {
      ctx.send(1, 7, payload);
    } else {
      const auto got = ctx.recv<std::int32_t>(0, 7);
      EXPECT_EQ(got, payload);
    }
  });

  EXPECT_EQ(op(results, 0, CommOp::kSend).calls, 1u);
  EXPECT_EQ(op(results, 0, CommOp::kSend).bytes_sent, 12u);
  EXPECT_EQ(op(results, 0, CommOp::kSend).bytes_received, 0u);
  EXPECT_EQ(op(results, 0, CommOp::kRecv).calls, 0u);

  EXPECT_EQ(op(results, 1, CommOp::kRecv).calls, 1u);
  EXPECT_EQ(op(results, 1, CommOp::kRecv).bytes_received, 12u);
  EXPECT_EQ(op(results, 1, CommOp::kRecv).bytes_sent, 0u);
  EXPECT_EQ(op(results, 1, CommOp::kSend).calls, 0u);
}

TEST(CommStats, RecvWaitMeasuresBlockedTime) {
  const auto results = run(2, [](Context& ctx) {
    if (ctx.rank() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      ctx.send(1, 0, std::vector<std::int32_t>{42});
    } else {
      (void)ctx.recv<std::int32_t>(0, 0);
    }
  });
  // Rank 1 sat blocked for the sender's 50 ms nap; allow generous
  // scheduling slack but the wait must be clearly non-trivial.
  EXPECT_GE(op(results, 1, CommOp::kRecv).wait_seconds, 0.03);
  EXPECT_EQ(op(results, 0, CommOp::kRecv).wait_seconds, 0.0);
}

TEST(CommStats, BarrierCountsCallsAndLaggardWait) {
  const auto results = run(2, [](Context& ctx) {
    if (ctx.rank() == 0) std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ctx.barrier();
    ctx.barrier();
  });
  EXPECT_EQ(op(results, 0, CommOp::kBarrier).calls, 2u);
  EXPECT_EQ(op(results, 1, CommOp::kBarrier).calls, 2u);
  // Rank 1 arrived first and waited out rank 0's nap.
  EXPECT_GE(op(results, 1, CommOp::kBarrier).wait_seconds, 0.03);
}

TEST(CommStats, BcastRootSendsToEveryPeer) {
  const auto results = run(3, [](Context& ctx) {
    std::vector<std::int32_t> data;
    if (ctx.rank() == 1) data = {10, 20, 30, 40, 50};  // 20 bytes
    ctx.bcast(data, 1);
    EXPECT_EQ(data.size(), 5u);
  });
  for (int r = 0; r < 3; ++r) EXPECT_EQ(op(results, r, CommOp::kBcast).calls, 1u) << r;
  EXPECT_EQ(op(results, 1, CommOp::kBcast).bytes_sent, 40u);  // 20 B x 2 peers
  EXPECT_EQ(op(results, 1, CommOp::kBcast).bytes_received, 0u);
  EXPECT_EQ(op(results, 0, CommOp::kBcast).bytes_received, 20u);
  EXPECT_EQ(op(results, 2, CommOp::kBcast).bytes_received, 20u);
}

TEST(CommStats, GathervCountsContributionsAndRootReceipts) {
  const auto results = run(3, [](Context& ctx) {
    // Rank r contributes r+1 int32 elements: 4, 8, 12 bytes.
    std::vector<std::int32_t> local(static_cast<std::size_t>(ctx.rank() + 1), ctx.rank());
    const auto parts = ctx.gatherv(local, 0);
    if (ctx.rank() == 0) {
      ASSERT_EQ(parts.size(), 3u);
      EXPECT_EQ(parts[2].size(), 3u);
    } else {
      EXPECT_TRUE(parts.empty());
    }
  });
  for (int r = 0; r < 3; ++r) EXPECT_EQ(op(results, r, CommOp::kGatherv).calls, 1u) << r;
  // The root's own contribution moves no bytes; it receives the other two.
  EXPECT_EQ(op(results, 0, CommOp::kGatherv).bytes_sent, 0u);
  EXPECT_EQ(op(results, 0, CommOp::kGatherv).bytes_received, 20u);  // 8 + 12
  EXPECT_EQ(op(results, 1, CommOp::kGatherv).bytes_sent, 8u);
  EXPECT_EQ(op(results, 2, CommOp::kGatherv).bytes_sent, 12u);
}

TEST(CommStats, AllgathervLogicalAndTransportRows) {
  // 2 ranks; rank 0 contributes {1} (4 B), rank 1 contributes {2, 3} (8 B).
  // Pooled result: 3 int32 = 12 B on every rank.
  const auto results = run(2, [](Context& ctx) {
    std::vector<std::int32_t> local;
    if (ctx.rank() == 0) {
      local = {1};
    } else {
      local = {2, 3};
    }
    const auto flat = ctx.allgatherv(local);
    EXPECT_EQ(flat, (std::vector<std::int32_t>{1, 2, 3}));
  });

  // Logical row: contribution sent, pooled concatenation received.
  for (int r = 0; r < 2; ++r) {
    EXPECT_EQ(op(results, r, CommOp::kAllgatherv).calls, 1u) << r;
    EXPECT_EQ(op(results, r, CommOp::kAllgatherv).bytes_received, 12u) << r;
  }
  EXPECT_EQ(op(results, 0, CommOp::kAllgatherv).bytes_sent, 4u);
  EXPECT_EQ(op(results, 1, CommOp::kAllgatherv).bytes_sent, 8u);

  // Transport rows: the inner gatherv at rank 0 moves rank 1's 8 B...
  EXPECT_EQ(op(results, 0, CommOp::kGatherv).calls, 1u);
  EXPECT_EQ(op(results, 1, CommOp::kGatherv).calls, 1u);
  EXPECT_EQ(op(results, 1, CommOp::kGatherv).bytes_sent, 8u);
  EXPECT_EQ(op(results, 0, CommOp::kGatherv).bytes_received, 8u);
  // ...and the two bcasts (flat 12 B, then the 2 x uint64 counts = 16 B)
  // fan out from rank 0 to the single peer.
  EXPECT_EQ(op(results, 0, CommOp::kBcast).calls, 2u);
  EXPECT_EQ(op(results, 1, CommOp::kBcast).calls, 2u);
  EXPECT_EQ(op(results, 0, CommOp::kBcast).bytes_sent, 28u);  // 12 + 16
  EXPECT_EQ(op(results, 1, CommOp::kBcast).bytes_received, 28u);
}

TEST(CommStats, AllreduceCountsLogicalElements) {
  const auto results = run(3, [](Context& ctx) {
    const auto sum = ctx.allreduce_sum<std::int64_t>(ctx.rank() + 1);
    EXPECT_EQ(sum, 6);
  });
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(op(results, r, CommOp::kReduce).calls, 1u) << r;
    EXPECT_EQ(op(results, r, CommOp::kReduce).bytes_sent, sizeof(std::int64_t)) << r;
    EXPECT_EQ(op(results, r, CommOp::kReduce).bytes_received, 3 * sizeof(std::int64_t)) << r;
    // Transport for the inner allgather shows up in its own rows.
    EXPECT_EQ(op(results, r, CommOp::kAllgatherv).calls, 1u) << r;
  }
}

TEST(CommStats, TotalsSumOverOps) {
  CommStats stats;
  stats.of(CommOp::kSend) = {2, 100, 0, 0.0};
  stats.of(CommOp::kRecv) = {3, 0, 100, 0.5};
  stats.of(CommOp::kBarrier) = {1, 0, 0, 0.25};
  EXPECT_EQ(stats.total_calls(), 6u);
  EXPECT_EQ(stats.total_bytes_sent(), 100u);
  EXPECT_EQ(stats.total_bytes_received(), 100u);
  EXPECT_DOUBLE_EQ(stats.total_wait_seconds(), 0.75);

  CommStats other;
  other.of(CommOp::kSend) = {1, 50, 0, 0.0};
  stats += other;
  EXPECT_EQ(stats.of(CommOp::kSend).calls, 3u);
  EXPECT_EQ(stats.total_bytes_sent(), 150u);
}

TEST(CommStats, ContextExposesLiveCounters) {
  run(2, [](Context& ctx) {
    EXPECT_EQ(ctx.comm_stats().total_calls(), 0u);
    ctx.barrier();
    EXPECT_EQ(ctx.comm_stats().of(CommOp::kBarrier).calls, 1u);
  });
}

TEST(SkewRatio, EdgeCasesAndImbalance) {
  EXPECT_DOUBLE_EQ(skew_ratio({}), 1.0);

  std::vector<RankResult> zero(2);
  EXPECT_DOUBLE_EQ(skew_ratio(zero), 1.0);  // zero mean: defined as balanced

  std::vector<RankResult> uneven(2);
  uneven[0].cpu_seconds = 1.0;
  uneven[1].cpu_seconds = 3.0;
  EXPECT_DOUBLE_EQ(skew_ratio(uneven), 1.5);  // max 3 / mean 2

  std::vector<RankResult> balanced(3);
  for (auto& r : balanced) r.comm_seconds = 2.0;
  EXPECT_DOUBLE_EQ(skew_ratio(balanced), 1.0);
}

}  // namespace
}  // namespace trinity::simpi
