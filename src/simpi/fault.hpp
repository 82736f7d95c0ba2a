#pragma once
// Rank fault injection for the simpi substrate.
//
// Validating checkpoint/restart needs a way to make a rank die the way
// real MPI jobs die: mid-collective, while every other rank is blocked on
// it. A FaultPlan designates one victim rank and a trigger — the Nth entry
// into a given operation (counting only the caller's own calls to that op,
// never the steps of another collective), or the first simpi call after K
// virtual seconds — and the victim throws RankFaultError at that point. The world then
// aborts exactly as it does for any rank failure: every other rank's
// blocked call raises AbortedError instead of deadlocking, and
// simpi::run() rethrows the RankFaultError as the root cause.
//
// The fire budget (max_fires, default 1) is shared by every copy of the
// plan, so a retry driver that re-launches the stage with the same plan
// sees the fault exactly once — the transient-failure model. Set max_fires
// high to model a persistent fault and exercise retry exhaustion.

#include <atomic>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "simpi/comm_stats.hpp"

namespace trinity::simpi {

/// Thrown by the victim rank when its fault fires. Deliberately NOT
/// derived from AbortedError: run() must report it as the root cause, not
/// discard it as a secondary wake-up.
class RankFaultError : public std::runtime_error {
 public:
  explicit RankFaultError(const std::string& what) : std::runtime_error(what) {}
};

/// An injected-fault schedule for one world. Default-constructed plans are
/// disabled and cost one predicted branch per simpi call.
struct FaultPlan {
  int rank = -1;                        ///< victim rank; -1 disables the plan
  std::optional<CommOp> op;             ///< operation the trigger counts
  int at_entry = 1;                     ///< fire on the Nth entry (1-based)
  double after_virtual_seconds = -1.0;  ///< alternative trigger; < 0 disables
  int max_fires = 1;                    ///< total fires across world launches

  [[nodiscard]] bool enabled() const {
    return rank >= 0 && (op.has_value() || after_virtual_seconds >= 0.0);
  }

  /// Allocates the shared fire budget. Idempotent; called automatically
  /// when a World adopts the plan, but a retry driver that wants
  /// once-across-relaunches semantics must arm its own copy first and pass
  /// that same copy to every launch.
  void arm();

  /// Consumes one fire. False when the budget is exhausted (the fault
  /// already happened) or the plan was never armed and is disabled.
  [[nodiscard]] bool consume_fire() const;

  /// Shared across copies so re-launching with the same plan does not
  /// re-fire a transient fault.
  std::shared_ptr<std::atomic<int>> fires_remaining;
};

}  // namespace trinity::simpi
