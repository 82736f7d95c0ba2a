#include "simpi/comm_stats.hpp"

#include <stdexcept>
#include <string>

namespace trinity::simpi {

const char* to_string(CommOp op) {
  switch (op) {
    case CommOp::kSend: return "send";
    case CommOp::kRecv: return "recv";
    case CommOp::kBarrier: return "barrier";
    case CommOp::kBcast: return "bcast";
    case CommOp::kGatherv: return "gatherv";
    case CommOp::kAllgatherv: return "allgatherv";
    case CommOp::kAlltoallv: return "alltoallv";
    case CommOp::kReduce: return "reduce";
  }
  return "unknown";
}

CommOp comm_op_from_string(std::string_view name) {
  for (std::size_t i = 0; i < kNumCommOps; ++i) {
    const auto op = static_cast<CommOp>(i);
    if (name == to_string(op)) return op;
  }
  throw std::invalid_argument("unknown comm op: " + std::string(name));
}

std::uint64_t CommStats::total_calls() const {
  std::uint64_t total = 0;
  for (const auto& s : ops) total += s.calls;
  return total;
}

std::uint64_t CommStats::total_bytes_sent() const {
  std::uint64_t total = 0;
  for (const auto& s : ops) total += s.bytes_sent;
  return total;
}

std::uint64_t CommStats::total_bytes_received() const {
  std::uint64_t total = 0;
  for (const auto& s : ops) total += s.bytes_received;
  return total;
}

double CommStats::total_wait_seconds() const {
  double total = 0.0;
  for (const auto& s : ops) total += s.wait_seconds;
  return total;
}

}  // namespace trinity::simpi
