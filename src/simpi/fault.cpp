#include "simpi/fault.hpp"

namespace trinity::simpi {

void FaultPlan::arm() {
  if (!fires_remaining) {
    fires_remaining = std::make_shared<std::atomic<int>>(max_fires);
  }
}

bool FaultPlan::consume_fire() const {
  if (!fires_remaining) return false;
  // Decrement-if-positive: concurrent fire attempts (victim rank only, but
  // be safe) never push the budget negative.
  int current = fires_remaining->load(std::memory_order_relaxed);
  while (current > 0) {
    if (fires_remaining->compare_exchange_weak(current, current - 1,
                                               std::memory_order_acq_rel)) {
      return true;
    }
  }
  return false;
}

}  // namespace trinity::simpi
