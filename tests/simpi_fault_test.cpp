// Tests for simpi rank fault injection: a FaultPlan kills its victim rank
// mid-collective, every surviving rank observes AbortedError instead of
// deadlocking, run() reports the RankFaultError as the root cause, and the
// shared fire budget makes a transient fault fire exactly once across
// re-launches.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "simpi/context.hpp"

namespace trinity::simpi {
namespace {

constexpr int kRanks = 4;
constexpr int kVictim = 2;

FaultPlan kill_at(CommOp op, int at_entry = 1, int rank = kVictim) {
  FaultPlan plan;
  plan.rank = rank;
  plan.op = op;
  plan.at_entry = at_entry;
  return plan;
}

// Runs `body` on kRanks ranks with `plan` injected; asserts the world
// aborts with RankFaultError as root cause and that every non-victim rank
// observed AbortedError from its blocked call (i.e. nobody deadlocked and
// nobody sailed through).
void expect_world_dies(const FaultPlan& plan, const std::function<void(Context&)>& body) {
  std::atomic<int> survivors_aborted{0};
  std::atomic<int> victim_faulted{0};
  EXPECT_THROW(
      run(kRanks,
          [&](Context& ctx) {
            try {
              body(ctx);
            } catch (const RankFaultError&) {
              victim_faulted.fetch_add(1);
              throw;  // the victim's root cause must reach run()
            } catch (const AbortedError&) {
              survivors_aborted.fetch_add(1);
              // Swallowed: survivors report the abort and exit cleanly.
            }
          },
          {}, plan),
      RankFaultError);
  EXPECT_EQ(victim_faulted.load(), 1);
  EXPECT_EQ(survivors_aborted.load(), kRanks - 1);
}

// --- one kill per collective -----------------------------------------------------

TEST(SimpiFault, KillInsideBarrier) {
  expect_world_dies(kill_at(CommOp::kBarrier), [](Context& ctx) {
    ctx.barrier();
    ctx.barrier();  // survivors of entry 1 block here until the abort
  });
}

TEST(SimpiFault, KillInsideBcast) {
  expect_world_dies(kill_at(CommOp::kBcast), [](Context& ctx) {
    std::vector<int> data(8, ctx.rank());
    ctx.bcast(data, 0);
    ctx.barrier();
  });
}

TEST(SimpiFault, KillInsideGatherv) {
  expect_world_dies(kill_at(CommOp::kGatherv), [](Context& ctx) {
    const std::vector<int> local(static_cast<std::size_t>(ctx.rank() + 1), ctx.rank());
    (void)ctx.gatherv(local, 0);
    ctx.barrier();
  });
}

TEST(SimpiFault, KillInsideAllgatherv) {
  expect_world_dies(kill_at(CommOp::kAllgatherv), [](Context& ctx) {
    const std::vector<int> local(4, ctx.rank());
    (void)ctx.allgatherv(local);
    ctx.barrier();
  });
}

TEST(SimpiFault, KillInsideAlltoallv) {
  expect_world_dies(kill_at(CommOp::kAlltoallv), [](Context& ctx) {
    std::vector<std::vector<int>> parts(static_cast<std::size_t>(ctx.size()));
    for (auto& p : parts) p.assign(3, ctx.rank());
    (void)ctx.alltoallv(parts);
    ctx.barrier();
  });
}

TEST(SimpiFault, KillInsideReduce) {
  expect_world_dies(kill_at(CommOp::kReduce), [](Context& ctx) {
    (void)ctx.allreduce_sum(ctx.rank());
    ctx.barrier();
  });
}

// --- trigger selection -----------------------------------------------------------

TEST(SimpiFault, EntryCountPicksTheNthCall) {
  // Entries 1 and 2 succeed; the fault fires on the victim's 3rd barrier.
  std::atomic<int> completed_barriers{0};
  EXPECT_THROW(run(kRanks,
                   [&](Context& ctx) {
                     try {
                       ctx.barrier();
                       ctx.barrier();
                       completed_barriers.fetch_add(1);
                       ctx.barrier();
                     } catch (const AbortedError&) {
                     }
                   },
                   {}, kill_at(CommOp::kBarrier, 3)),
               RankFaultError);
  EXPECT_EQ(completed_barriers.load(), kRanks);
}

TEST(SimpiFault, CollectivesAdvanceOnlyTheirOwnCounter) {
  // allgatherv and allreduce_sum move their data with gather and broadcast
  // steps, but those steps are not calls to gatherv or bcast: a plan on
  // either op's first entry waits for the caller's own first call.
  for (const CommOp op : {CommOp::kGatherv, CommOp::kBcast}) {
    std::atomic<int> victim_reached{0};
    expect_world_dies(kill_at(op), [&](Context& ctx) {
      const std::vector<int> local(static_cast<std::size_t>(ctx.rank()) + 1, ctx.rank());
      const auto pooled = ctx.allgatherv(local);
      EXPECT_EQ(pooled.size(), static_cast<std::size_t>(kRanks * (kRanks + 1) / 2));
      EXPECT_EQ(ctx.allreduce_sum(1), kRanks);
      (void)ctx.allgather(ctx.rank());
      if (ctx.rank() == kVictim) victim_reached.fetch_add(1);
      std::vector<int> data(3, ctx.rank());
      if (op == CommOp::kGatherv) {
        (void)ctx.gatherv(data, 0);
      } else {
        ctx.bcast(data, 0);
      }
      ctx.barrier();
    });
    EXPECT_EQ(victim_reached.load(), 1) << to_string(op);
  }
}

TEST(SimpiFault, VirtualTimeTriggerFiresOnNextCall) {
  FaultPlan plan;
  plan.rank = kVictim;
  plan.after_virtual_seconds = 0.0;  // no op trigger; time alone trips it
  expect_world_dies(plan, [](Context& ctx) {
    ctx.barrier();
    ctx.barrier();
  });
}

TEST(SimpiFault, DisabledPlanIsInert) {
  FaultPlan plan;  // rank = -1
  const auto results = run(kRanks, [](Context& ctx) { ctx.barrier(); }, {}, plan);
  EXPECT_EQ(results.size(), static_cast<std::size_t>(kRanks));
}

TEST(SimpiFault, NonVictimRanksNeverFire) {
  // A plan aimed at a rank that does not exist in this world never fires.
  const auto results =
      run(2, [](Context& ctx) { ctx.barrier(); }, {}, kill_at(CommOp::kBarrier, 1, 3));
  EXPECT_EQ(results.size(), 2u);
}

// --- transient-fault budget ------------------------------------------------------

TEST(SimpiFault, ArmedPlanFiresOnceAcrossRelaunches) {
  FaultPlan plan = kill_at(CommOp::kBarrier);
  plan.arm();  // retry-driver posture: one budget across launches
  const auto body = [](Context& ctx) { ctx.barrier(); };
  EXPECT_THROW(run(kRanks, body, {}, plan), RankFaultError);
  // Same plan object re-launched: budget exhausted, the world completes.
  const auto results = run(kRanks, body, {}, plan);
  EXPECT_EQ(results.size(), static_cast<std::size_t>(kRanks));
}

TEST(SimpiFault, UnarmedPlanGetsFreshBudgetPerWorld) {
  const FaultPlan plan = kill_at(CommOp::kBarrier);  // never armed by us
  const auto body = [](Context& ctx) { ctx.barrier(); };
  EXPECT_THROW(run(kRanks, body, {}, plan), RankFaultError);
  EXPECT_THROW(run(kRanks, body, {}, plan), RankFaultError);  // fires again
}

TEST(SimpiFault, MaxFiresModelsPersistentFaults) {
  FaultPlan plan = kill_at(CommOp::kBarrier);
  plan.max_fires = 2;
  plan.arm();
  const auto body = [](Context& ctx) { ctx.barrier(); };
  EXPECT_THROW(run(kRanks, body, {}, plan), RankFaultError);
  EXPECT_THROW(run(kRanks, body, {}, plan), RankFaultError);
  EXPECT_EQ(run(kRanks, body, {}, plan).size(), static_cast<std::size_t>(kRanks));
}

// --- p2p fault points ------------------------------------------------------------

TEST(SimpiFault, KillInsideSend) {
  std::atomic<int> aborted{0};
  EXPECT_THROW(run(2,
                   [&](Context& ctx) {
                     try {
                       if (ctx.rank() == 1) {
                         ctx.send(0, 0, std::vector<int>{7});
                       } else {
                         (void)ctx.recv<int>(1, 0);
                       }
                     } catch (const AbortedError&) {
                       aborted.fetch_add(1);
                     }
                   },
                   {}, kill_at(CommOp::kSend, 1, 1)),
               RankFaultError);
  EXPECT_EQ(aborted.load(), 1);
}

// --- CLI parsing -----------------------------------------------------------------

TEST(SimpiFault, OpNamesRoundTrip) {
  for (std::size_t i = 0; i < kNumCommOps; ++i) {
    const auto op = static_cast<CommOp>(i);
    EXPECT_EQ(comm_op_from_string(to_string(op)), op);
  }
  for (const char* name :
       {"barrier", "bcast", "gatherv", "allgatherv", "alltoallv", "reduce", "send", "recv"}) {
    EXPECT_STREQ(to_string(comm_op_from_string(name)), name);
  }
  EXPECT_THROW((void)comm_op_from_string("warp-core-breach"), std::invalid_argument);
  EXPECT_THROW((void)comm_op_from_string("none"), std::invalid_argument);
}

}  // namespace
}  // namespace trinity::simpi
