#include "simpi/rma.hpp"

namespace trinity::simpi {

SharedCounter::SharedCounter(Context& ctx, int id) : ctx_(ctx), id_(id) {
  // Touch the counter so creation cost is paid up front.
  (void)ctx_.world_counter(id_);
}

std::uint64_t SharedCounter::fetch_add(std::uint64_t delta) {
  const std::uint64_t prev =
      ctx_.world_counter(id_).fetch_add(delta, std::memory_order_relaxed);
  // One RMA round trip to the window's host rank.
  ctx_.charge(2.0 * ctx_.cost_model().latency_seconds);
  return prev;
}

void SharedCounter::reset(std::uint64_t value) {
  ctx_.world_counter(id_).store(value, std::memory_order_relaxed);
  ctx_.charge(2.0 * ctx_.cost_model().latency_seconds);
}

}  // namespace trinity::simpi
