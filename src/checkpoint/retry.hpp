#pragma once
// Bounded retry/backoff policy for the pipeline's fault-recovery driver.
//
// When a simpi world aborts (a rank failure), the stage that was running is
// re-launched up to max_attempts times, sleeping an exponentially growing
// backoff between attempts — the standard transient-fault posture of
// long-running cluster jobs. The defaults keep the backoff at zero so unit
// tests retry instantly; production callers set initial_backoff_seconds.

#include <algorithm>

namespace trinity::checkpoint {

struct RetryPolicy {
  int max_attempts = 3;                ///< total attempts per stage (>= 1)
  double initial_backoff_seconds = 0.0;  ///< sleep after the first failure
  double backoff_multiplier = 2.0;     ///< growth per additional failure
  double max_backoff_seconds = 30.0;   ///< backoff ceiling

  /// Backoff to sleep after `failed_attempts` consecutive failures (>= 1).
  [[nodiscard]] double backoff_for(int failed_attempts) const {
    if (initial_backoff_seconds <= 0.0 || failed_attempts < 1) return 0.0;
    double delay = initial_backoff_seconds;
    for (int i = 1; i < failed_attempts; ++i) delay *= backoff_multiplier;
    return std::min(delay, max_backoff_seconds);
  }
};

/// Sleeps the calling thread; no-op for non-positive durations.
void sleep_seconds(double seconds);

}  // namespace trinity::checkpoint
