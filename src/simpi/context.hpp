#pragma once
// simpi: a simulated MPI subset.
//
// The paper's hybrid Chrysalis uses MPI across nodes with OpenMP threads
// inside each node. No MPI implementation is available in this environment,
// so simpi provides the substitution: each rank is a thread with a private
// logical address space (nothing is shared between ranks except through
// simpi calls), point-to-point messages go through per-rank mailboxes with
// MPI matching semantics, and the collectives used by the paper's code
// (Barrier, Bcast, Gatherv, Allgatherv, Reduce/Allreduce) are implemented
// on top of point-to-point transfers.
//
// Because ranks share a 2-core host, wall time cannot demonstrate scaling.
// Instead each rank carries a virtual clock: measured thread-CPU time for
// compute, plus modeled communication time from CommCostModel. Benchmark
// reporters use max/min over per-rank virtual times — exactly the
// "processes with the highest/lowest times" curves of Figures 7 and 9.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "simpi/comm_stats.hpp"
#include "simpi/cost_model.hpp"
#include "simpi/fault.hpp"
#include "simpi/mailbox.hpp"
#include "trace/span_recorder.hpp"
#include "util/timer.hpp"

namespace trinity::simpi {

/// Thrown out of blocked simpi calls when another rank failed and the
/// world was aborted (the simulated analogue of MPI_Abort tearing the
/// job down).
class AbortedError : public std::runtime_error {
 public:
  AbortedError() : std::runtime_error("simpi world aborted by another rank") {}
  explicit AbortedError(const std::string& what) : std::runtime_error(what) {}
};

class World;

namespace detail {
/// Copies a received payload into `out` as T elements. Throws when the
/// payload is not a whole number of T; an empty payload copies nothing
/// (its data pointer may be null, which memcpy must not see).
template <typename T>
void unpack_payload(const Message& msg, std::vector<T>& out, const char* op) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (msg.payload.size() % sizeof(T) != 0) {
    throw std::runtime_error(std::string("simpi: ") + op + " typed size mismatch");
  }
  out.resize(msg.payload.size() / sizeof(T));
  if (!msg.payload.empty()) std::memcpy(out.data(), msg.payload.data(), msg.payload.size());
}
}  // namespace detail

/// Per-rank communication endpoint handed to the rank function.
/// All members must be called from the rank's own thread.
class Context {
 public:
  Context(World& world, int rank);
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  /// This rank's id in [0, size()).
  [[nodiscard]] int rank() const { return rank_; }
  /// Number of ranks in the world.
  [[nodiscard]] int size() const;

  // --- point-to-point -----------------------------------------------------

  /// Sends `bytes` to rank `dest` with `tag` (>= 0). Buffered send: returns
  /// immediately after the payload is copied into the destination mailbox.
  void send_bytes(int dest, int tag, std::span<const std::byte> bytes);

  /// Blocks until a message from `source` (or kAnySource) with `tag`
  /// arrives and returns it. Throws AbortedError if the world aborts.
  Message recv_bytes(int source, int tag);

  /// Typed send of a contiguous array of trivially copyable elements.
  template <typename T>
  void send(int dest, int tag, std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(dest, tag, std::as_bytes(data));
  }

  template <typename T>
  void send(int dest, int tag, const std::vector<T>& data) {
    send(dest, tag, std::span<const T>(data));
  }

  /// Typed receive; the payload size must be a multiple of sizeof(T).
  template <typename T>
  std::vector<T> recv(int source, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<T> out;
    detail::unpack_payload(recv_bytes(source, tag), out, "recv");
    return out;
  }

  // --- collectives ----------------------------------------------------------
  // All collectives must be entered by every rank in the same program order.

  /// Blocks until all ranks have entered the barrier.
  void barrier();

  /// Broadcasts `data` from `root` to all ranks (resizing at non-roots).
  template <typename T>
  void bcast(std::vector<T>& data, int root);

  /// Gathers each rank's local vector at `root`. Returns size()-long vector
  /// of per-rank contributions at root, empty vector elsewhere. The
  /// variable-length analogue of MPI_Gatherv.
  template <typename T>
  std::vector<std::vector<T>> gatherv(const std::vector<T>& local, int root);

  /// Allgatherv: every rank receives all ranks' contributions, concatenated
  /// in rank order. Mirrors the paper's pooling of packed weld sequences and
  /// pair-index arrays after each GraphFromFasta loop. `counts_out`, when
  /// non-null, receives each rank's element count.
  template <typename T>
  std::vector<T> allgatherv(const std::vector<T>& local,
                            std::vector<std::size_t>* counts_out = nullptr);

  /// Allgather of a single value per rank.
  template <typename T>
  std::vector<T> allgather(const T& v);

  /// Alltoallv: `send_parts[r]` (one vector per destination rank, own slot
  /// included) is delivered to rank r; returns the size()-long vector of
  /// parts received, indexed by source rank. The owner-computes exchange
  /// primitive: where allgatherv replicates every rank's contribution onto
  /// every rank, alltoallv routes each candidate only to the rank that owns
  /// its key, so the per-rank volume stays O(total/nranks). Counted on the
  /// kAlltoallv row (see simpi/comm_stats.hpp); transfers are direct
  /// point-to-point, so the row is both logical and transport.
  template <typename T>
  std::vector<std::vector<T>> alltoallv(const std::vector<std::vector<T>>& send_parts);

  /// Reduction over one value per rank; result valid on every rank.
  template <typename T>
  T allreduce_sum(T v);
  template <typename T>
  T allreduce_max(T v);
  template <typename T>
  T allreduce_min(T v);

  // --- virtual time and communication accounting ----------------------------

  /// Modeled communication seconds accumulated by this rank so far.
  [[nodiscard]] double comm_seconds() const { return comm_seconds_; }

  /// Per-op call/byte/wait counters accumulated by this rank so far (see
  /// simpi/comm_stats.hpp for the counting semantics). Also returned per
  /// rank in RankResult after run().
  [[nodiscard]] const CommStats& comm_stats() const { return stats_; }

  /// Adds explicitly modeled time (e.g. a charged I/O estimate) to this
  /// rank's communication clock.
  void charge(double seconds) { comm_seconds_ += seconds; }

  /// The world's communication cost model.
  [[nodiscard]] const CommCostModel& cost_model() const;

  /// Access to a world-global atomic counter (used by simpi/rma.hpp's
  /// SharedCounter; prefer that wrapper, which charges RMA costs).
  std::atomic<std::uint64_t>& world_counter(int id);

 private:
  friend class World;

  // Internal transfers used by collectives: no cost accrual (the collective
  // charges its own modeled cost once).
  void raw_send(int dest, int tag, std::span<const std::byte> bytes);
  Message raw_recv(int source, int tag);

  /// raw_recv plus accounting: the blocked wall time and the payload size
  /// are added to `op`'s wait_seconds / bytes_received. Callers count the
  /// op's own call and any sent bytes themselves. While a WaitAttribution
  /// guard is active, only the *wait* (row and "<op>.wait" span) is
  /// redirected to the guard's op; bytes stay on `op`'s row.
  Message waited_recv(int source, int tag, CommOp op);

  /// Scoped wait re-attribution for layered collectives: the blocking
  /// allgatherv runs on gatherv + bcast, whose transport rows must keep
  /// their calls/bytes (comm_stats.hpp documents the layering), but the
  /// blocked wall belongs to the collective the caller issued, where
  /// GraphFromFasta's pool_wait accounting reads it.
  class WaitAttribution {
   public:
    WaitAttribution(Context& ctx, CommOp op) : ctx_(ctx), saved_(ctx.wait_override_) {
      ctx_.wait_override_ = op;
    }
    ~WaitAttribution() { ctx_.wait_override_ = saved_; }
    WaitAttribution(const WaitAttribution&) = delete;
    WaitAttribution& operator=(const WaitAttribution&) = delete;

   private:
    Context& ctx_;
    std::optional<CommOp> saved_;
  };

  /// Fault-injection hook, called on entry to every costed simpi operation.
  /// Counts the entry and throws RankFaultError when this rank is the
  /// world's FaultPlan victim and the trigger condition is met.
  void fault_point(FaultOp op);

  World& world_;
  int rank_;
  double comm_seconds_ = 0.0;
  CommStats stats_;  ///< per-op calls/bytes/wait, exposed via comm_stats()
  std::optional<CommOp> wait_override_;  ///< active WaitAttribution target
  std::array<int, kNumFaultOps> fault_entries_{};  ///< per-op entry counts
  util::ThreadCpuTimer cpu_clock_;  ///< virtual-time base for FaultPlan triggers
};

/// Outcome of one rank's execution under run().
struct RankResult {
  int rank = 0;
  double cpu_seconds = 0.0;   ///< thread CPU time consumed by the rank fn
  double comm_seconds = 0.0;  ///< modeled communication time
  CommStats comm;             ///< per-op calls/bytes/wait (comm_stats.hpp)
  /// Virtual execution time of this rank on the simulated cluster.
  [[nodiscard]] double virtual_seconds() const { return cpu_seconds + comm_seconds; }
};

/// max(virtual_seconds) / mean(virtual_seconds) over a world's ranks — the
/// load-imbalance ratio the run report and figure benches call "skew".
/// 1.0 for perfectly balanced or empty results.
[[nodiscard]] double skew_ratio(const std::vector<RankResult>& results);

/// The set of ranks plus the shared delivery fabric. Normally used through
/// run(); exposed for tests that need fine-grained control.
class World {
 public:
  explicit World(int nranks, CommCostModel model = {}, FaultPlan fault = {});

  [[nodiscard]] int size() const { return static_cast<int>(mailboxes_.size()); }
  [[nodiscard]] const CommCostModel& cost_model() const { return model_; }
  [[nodiscard]] const FaultPlan& fault_plan() const { return fault_; }
  [[nodiscard]] bool aborted() const { return aborted_.load(std::memory_order_acquire); }

  /// Marks the world aborted and wakes all blocked receivers/barriers.
  void abort();

 private:
  friend class Context;

  Mailbox& mailbox(int rank) { return *mailboxes_.at(static_cast<std::size_t>(rank)); }
  void barrier_wait();
  void check_abort() const {
    if (aborted()) throw AbortedError();
  }

  std::atomic<std::uint64_t>& counter(int id);

  CommCostModel model_;
  FaultPlan fault_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;

  std::mutex counters_mu_;
  std::map<int, std::unique_ptr<std::atomic<std::uint64_t>>> counters_;

  std::mutex barrier_mu_;
  std::condition_variable barrier_cv_;
  int barrier_arrived_ = 0;
  std::uint64_t barrier_generation_ = 0;

  std::atomic<bool> aborted_{false};
};

/// Runs `fn(ctx)` on `nranks` rank threads and returns per-rank results in
/// rank order. If any rank throws, the world is aborted (waking blocked
/// ranks with AbortedError) and the lowest-rank exception is rethrown after
/// all threads join. `fault`, when enabled, injects a rank failure (see
/// simpi/fault.hpp); the injected RankFaultError is rethrown as root cause.
std::vector<RankResult> run(int nranks, const std::function<void(Context&)>& fn,
                            CommCostModel model = {}, FaultPlan fault = {});

// --- template implementations ------------------------------------------------

namespace detail {
/// Collective message tags live in a reserved negative range so they can
/// never collide with user tags (which must be >= 0).
inline constexpr int kTagBcast = -2;
inline constexpr int kTagGather = -3;
inline constexpr int kTagReduce = -4;
inline constexpr int kTagAlltoallv = -40;
}  // namespace detail

template <typename T>
void Context::bcast(std::vector<T>& data, int root) {
  static_assert(std::is_trivially_copyable_v<T>);
  trace::SpanScope span("bcast", trace::kCatSimpi);
  if (span) {
    span.arg("bytes", static_cast<double>(data.size() * sizeof(T)));
    span.arg("root", root);
  }
  fault_point(FaultOp::kBcast);
  ++stats_.of(CommOp::kBcast).calls;
  if (rank_ == root) {
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      raw_send(r, detail::kTagBcast, std::as_bytes(std::span<const T>(data)));
    }
    stats_.of(CommOp::kBcast).bytes_sent +=
        data.size() * sizeof(T) * static_cast<std::size_t>(size() - 1);
  } else {
    detail::unpack_payload(waited_recv(root, detail::kTagBcast, CommOp::kBcast), data, "bcast");
  }
  comm_seconds_ += cost_model().collective_cost(size(), data.size() * sizeof(T));
}

template <typename T>
std::vector<std::vector<T>> Context::gatherv(const std::vector<T>& local, int root) {
  static_assert(std::is_trivially_copyable_v<T>);
  trace::SpanScope span("gatherv", trace::kCatSimpi);
  if (span) {
    span.arg("bytes", static_cast<double>(local.size() * sizeof(T)));
    span.arg("root", root);
  }
  fault_point(FaultOp::kGatherv);
  ++stats_.of(CommOp::kGatherv).calls;
  std::size_t total_bytes = local.size() * sizeof(T);
  std::vector<std::vector<T>> out;
  if (rank_ == root) {
    out.resize(static_cast<std::size_t>(size()));
    out[static_cast<std::size_t>(root)] = local;
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      const Message msg = waited_recv(r, detail::kTagGather, CommOp::kGatherv);
      detail::unpack_payload(msg, out[static_cast<std::size_t>(r)], "gatherv");
      total_bytes += msg.payload.size();
    }
  } else {
    raw_send(root, detail::kTagGather, std::as_bytes(std::span<const T>(local)));
    stats_.of(CommOp::kGatherv).bytes_sent += local.size() * sizeof(T);
  }
  comm_seconds_ += cost_model().collective_cost(size(), total_bytes);
  return out;
}

template <typename T>
std::vector<T> Context::allgatherv(const std::vector<T>& local,
                                   std::vector<std::size_t>* counts_out) {
  // Gather at rank 0, then broadcast the concatenation and the counts.
  // The modeled cost is charged inside gatherv/bcast; the kAllgatherv row
  // records the LOGICAL payload (contribution sent, pooled result
  // received), with transport counted by the inner ops. Blocked wall is
  // re-attributed to the allgatherv row (WaitAttribution), where
  // GraphFromFasta's pool_wait accounting reads it.
  trace::SpanScope span("allgatherv", trace::kCatSimpi);
  if (span) span.arg("bytes", static_cast<double>(local.size() * sizeof(T)));
  fault_point(FaultOp::kAllgatherv);
  ++stats_.of(CommOp::kAllgatherv).calls;
  stats_.of(CommOp::kAllgatherv).bytes_sent += local.size() * sizeof(T);
  const WaitAttribution wait_as_allgatherv(*this, CommOp::kAllgatherv);
  auto parts = gatherv(local, 0);
  std::vector<T> flat;
  std::vector<std::uint64_t> counts;
  if (rank_ == 0) {
    counts.reserve(parts.size());
    std::size_t total = 0;
    for (const auto& p : parts) total += p.size();
    flat.reserve(total);
    for (const auto& p : parts) {
      counts.push_back(p.size());
      flat.insert(flat.end(), p.begin(), p.end());
    }
  }
  bcast(flat, 0);
  bcast(counts, 0);
  stats_.of(CommOp::kAllgatherv).bytes_received += flat.size() * sizeof(T);
  if (counts_out) counts_out->assign(counts.begin(), counts.end());
  return flat;
}

template <typename T>
std::vector<T> Context::allgather(const T& v) {
  std::vector<T> local{v};
  return allgatherv(local);
}

template <typename T>
std::vector<std::vector<T>> Context::alltoallv(
    const std::vector<std::vector<T>>& send_parts) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (send_parts.size() != static_cast<std::size_t>(size())) {
    throw std::invalid_argument("simpi: alltoallv needs one part per destination rank");
  }
  std::size_t sent_bytes = 0;
  for (const auto& part : send_parts) sent_bytes += part.size() * sizeof(T);
  trace::SpanScope span("alltoallv", trace::kCatSimpi);
  if (span) span.arg("bytes", static_cast<double>(sent_bytes));
  fault_point(FaultOp::kAlltoallv);
  auto& row = stats_.of(CommOp::kAlltoallv);
  ++row.calls;
  row.bytes_sent += sent_bytes;
  // Sends are buffered, so posting the whole row before receiving cannot
  // deadlock; receives in rank order keep the matching deterministic.
  for (int r = 0; r < size(); ++r) {
    if (r == rank_) continue;
    const auto& part = send_parts[static_cast<std::size_t>(r)];
    raw_send(r, detail::kTagAlltoallv, std::as_bytes(std::span<const T>(part)));
  }
  std::vector<std::vector<T>> received(static_cast<std::size_t>(size()));
  received[static_cast<std::size_t>(rank_)] = send_parts[static_cast<std::size_t>(rank_)];
  std::size_t recv_bytes =
      received[static_cast<std::size_t>(rank_)].size() * sizeof(T);
  row.bytes_received += recv_bytes;  // own part; waited_recv adds the remote ones
  for (int r = 0; r < size(); ++r) {
    if (r == rank_) continue;
    const Message msg = waited_recv(r, detail::kTagAlltoallv, CommOp::kAlltoallv);
    detail::unpack_payload(msg, received[static_cast<std::size_t>(r)], "alltoallv");
    recv_bytes += msg.payload.size();
  }
  comm_seconds_ += cost_model().collective_cost(size(), sent_bytes + recv_bytes);
  return received;
}

namespace detail {
/// Logical-payload accounting shared by the allreduce family: one element
/// contributed, nranks elements observed (transport in the inner ops).
template <typename T>
void count_reduce(CommStats& stats, std::size_t nranks) {
  auto& rd = stats.of(CommOp::kReduce);
  ++rd.calls;
  rd.bytes_sent += sizeof(T);
  rd.bytes_received += nranks * sizeof(T);
}
}  // namespace detail

template <typename T>
T Context::allreduce_sum(T v) {
  trace::SpanScope span("allreduce_sum", trace::kCatSimpi);
  fault_point(FaultOp::kReduce);
  detail::count_reduce<T>(stats_, static_cast<std::size_t>(size()));
  const auto all = allgather(v);
  T acc{};
  for (const T& x : all) acc += x;
  return acc;
}

template <typename T>
T Context::allreduce_max(T v) {
  trace::SpanScope span("allreduce_max", trace::kCatSimpi);
  fault_point(FaultOp::kReduce);
  detail::count_reduce<T>(stats_, static_cast<std::size_t>(size()));
  const auto all = allgather(v);
  T best = all.front();
  for (const T& x : all) best = x > best ? x : best;
  return best;
}

template <typename T>
T Context::allreduce_min(T v) {
  trace::SpanScope span("allreduce_min", trace::kCatSimpi);
  fault_point(FaultOp::kReduce);
  detail::count_reduce<T>(stats_, static_cast<std::size_t>(size()));
  const auto all = allgather(v);
  T best = all.front();
  for (const T& x : all) best = x < best ? x : best;
  return best;
}

}  // namespace trinity::simpi
