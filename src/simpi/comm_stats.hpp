#pragma once
// Per-rank communication counters for the simpi substrate.
//
// The paper's evaluation (Figures 7-11) hinges on quantities the library
// previously computed but never exposed: how many collectives each rank
// entered, how many bytes each Allgatherv pooled, and how long the fast
// ranks sat blocked waiting for the slow ones (load-imbalance "skew").
// Related distributed assemblers attribute most scaling loss to exactly
// those two numbers — communication volume and rank skew — so every costed
// simpi operation now records into a per-rank CommStats, returned alongside
// the virtual-time clocks in RankResult and surfaced by the pipeline's JSON
// run report (docs/OBSERVABILITY.md documents the schema).
//
// Counting semantics (docs/OBSERVABILITY.md repeats them): every op
// records on exactly one row, the op the caller issued, one call per entry
// on every participating rank. bytes_sent is what this rank put into
// another rank's mailbox and bytes_received what it took out of its own
// mailbox from another rank; a part a rank keeps or sends to itself moves
// nothing and counts nothing. Summed over a world's ranks, every
// collective row's sent equals its received (and kSend's sent equals
// kRecv's received), and a 1-rank world records zero bytes.
// wait_seconds is wall-clock time blocked inside the op — waiting on a
// barrier, or on a peer's data in a receive — and is the direct per-rank
// measure of skew: the earlier a rank arrives, the longer it waits.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace trinity::simpi {

/// Operations whose calls/bytes/wait are counted per rank; also the
/// operations a simpi FaultPlan can target.
enum class CommOp : int {
  kSend = 0,    ///< Context::send_bytes and the typed wrappers
  kRecv,        ///< Context::recv_bytes and the typed wrappers
  kBarrier,     ///< Context::barrier
  kBcast,       ///< Context::bcast
  kGatherv,     ///< Context::gatherv
  kAllgatherv,  ///< Context::allgatherv/allgather
  kAlltoallv,   ///< Context::alltoallv, owner-addressed point-to-point routing
  kReduce,      ///< Context::allreduce_sum
};

inline constexpr std::size_t kNumCommOps = 8;

/// Lower-case op name ("send", "allgatherv", ...), as used in the JSON
/// run report's per-op keys.
[[nodiscard]] const char* to_string(CommOp op);

/// The CommOp whose to_string is `name`; throws std::invalid_argument on
/// anything else. Parses --fault-op.
[[nodiscard]] CommOp comm_op_from_string(std::string_view name);

/// Counters for one operation on one rank.
struct OpStats {
  std::uint64_t calls = 0;           ///< entries into the op
  std::uint64_t bytes_sent = 0;      ///< payload bytes sent to other ranks
  std::uint64_t bytes_received = 0;  ///< payload bytes received from other ranks
  double wait_seconds = 0.0;         ///< wall time blocked waiting on peers
};

/// The complete per-rank communication profile: one OpStats row per CommOp.
struct CommStats {
  std::array<OpStats, kNumCommOps> ops{};

  [[nodiscard]] OpStats& of(CommOp op) { return ops[static_cast<std::size_t>(op)]; }
  [[nodiscard]] const OpStats& of(CommOp op) const {
    return ops[static_cast<std::size_t>(op)];
  }

  /// Sums over all ops.
  [[nodiscard]] std::uint64_t total_calls() const;
  [[nodiscard]] std::uint64_t total_bytes_sent() const;
  [[nodiscard]] std::uint64_t total_bytes_received() const;
  /// Total wall time this rank spent blocked on peers — its skew exposure.
  [[nodiscard]] double total_wait_seconds() const;
};

}  // namespace trinity::simpi
