#include "checkpoint/retry.hpp"

#include <chrono>
#include <thread>

namespace trinity::checkpoint {

void sleep_seconds(double seconds) {
  if (seconds <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

}  // namespace trinity::checkpoint
