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
// Counting semantics (the schema doc repeats these):
//  * Every op records one call per entry on every participating rank.
//  * kSend/kRecv count user point-to-point payload bytes.
//  * kBcast: the root counts payload * (nranks - 1) as sent; every other
//    rank counts payload as received.
//  * kGatherv: non-roots count their contribution as sent; the root counts
//    the sum of the other ranks' contributions as received.
//  * kAllgatherv is LOGICAL accounting: each rank counts its contribution
//    as sent and the pooled concatenation as received. The transport bytes
//    appear in the inner kGatherv/kBcast rows, because simpi layers
//    allgatherv on gatherv + bcast — mirror of the FaultOp layering note.
//  * kAlltoallv counts the full send matrix row as sent (every destination
//    part, own slot included) and the full receive row as received; its
//    transfers are direct point-to-point, so unlike allgatherv there are
//    no inner transport rows — the row is both logical and transport.
//  * kReduce (the allreduce family) likewise counts one element sent and
//    nranks elements received, with transport in the inner ops.
//  * wait_seconds is wall-clock time blocked inside the op — waiting on a
//    barrier, or on a peer's data in a receive — and is the direct per-rank
//    measure of skew: the earlier a rank arrives, the longer it waits.

#include <array>
#include <cstddef>
#include <cstdint>

namespace trinity::simpi {

/// Operations whose calls/bytes/wait are counted per rank. Layered
/// collectives advance their inner operations' rows too (see file comment).
enum class CommOp : int {
  kSend = 0,    ///< Context::send_bytes and the typed wrappers
  kRecv,        ///< Context::recv_bytes and the typed wrappers
  kBarrier,     ///< Context::barrier
  kBcast,       ///< Context::bcast
  kGatherv,     ///< Context::gatherv (also inner step of allgatherv)
  kAllgatherv,  ///< Context::allgatherv/allgather, logical payload bytes
  kAlltoallv,   ///< Context::alltoallv, owner-addressed point-to-point routing
  kReduce,      ///< the allreduce family, logical payload bytes
};

inline constexpr std::size_t kNumCommOps = 8;

/// Lower-case op name ("send", "allgatherv", ...), as used in the JSON
/// run report's per-op keys.
[[nodiscard]] const char* to_string(CommOp op);

/// Counters for one operation on one rank.
struct OpStats {
  std::uint64_t calls = 0;           ///< entries into the op
  std::uint64_t bytes_sent = 0;      ///< payload bytes this rank contributed
  std::uint64_t bytes_received = 0;  ///< payload bytes this rank obtained
  double wait_seconds = 0.0;         ///< wall time blocked waiting on peers

  OpStats& operator+=(const OpStats& other) {
    calls += other.calls;
    bytes_sent += other.bytes_sent;
    bytes_received += other.bytes_received;
    wait_seconds += other.wait_seconds;
    return *this;
  }
};

/// The complete per-rank communication profile: one OpStats row per CommOp.
struct CommStats {
  std::array<OpStats, kNumCommOps> ops{};

  [[nodiscard]] OpStats& of(CommOp op) { return ops[static_cast<std::size_t>(op)]; }
  [[nodiscard]] const OpStats& of(CommOp op) const {
    return ops[static_cast<std::size_t>(op)];
  }

  /// Sums over all ops. total_bytes_* mix transport and logical rows (see
  /// the layering note); per-op rows are the precise quantities.
  [[nodiscard]] std::uint64_t total_calls() const;
  [[nodiscard]] std::uint64_t total_bytes_sent() const;
  [[nodiscard]] std::uint64_t total_bytes_received() const;
  /// Total wall time this rank spent blocked on peers — its skew exposure.
  [[nodiscard]] double total_wait_seconds() const;

  /// Element-wise accumulation (e.g. folding several worlds' stats).
  CommStats& operator+=(const CommStats& other);
};

}  // namespace trinity::simpi
