#include "checkpoint/retry.hpp"

#include <chrono>
#include <thread>

#include "util/hash.hpp"

namespace trinity::checkpoint {

double RetryPolicy::jittered_backoff_for(int failed_attempts, std::uint64_t seed) const {
  const double base = backoff_for(failed_attempts);
  if (base <= 0.0 || jitter_fraction <= 0.0) return base;
  // splitmix64 finalizer: a full-avalanche hash of the seed gives a
  // uniform point in [0, 1) without any global RNG state.
  const std::uint64_t z = util::mix64(seed + util::kGoldenGamma);
  const double unit = static_cast<double>(z >> 11) * 0x1.0p-53;  // [0, 1)
  const double spread = std::min(jitter_fraction, 1.0);
  const double factor = 1.0 - spread + 2.0 * spread * unit;
  return std::min(base * factor, max_backoff_seconds);
}

void sleep_seconds(double seconds) {
  if (seconds <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

}  // namespace trinity::checkpoint
