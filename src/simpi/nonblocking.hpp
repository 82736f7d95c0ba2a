#pragma once
// Nonblocking point-to-point (the MPI_Isend / MPI_Irecv / MPI_Wait subset)
// and scatterv / alltoallv collectives.
//
// The paper's master/slave ReadsToTranscripts prototype is a textbook
// producer/consumer that real codes overlap with nonblocking sends; and
// the weld pooling after loop 1 is an alltoallv in disguise when ranks
// only need the welds matching their own contigs. These primitives round
// out the simpi substrate so such variants can be written and compared.
//
// Simpi sends are buffered (the payload is copied into the destination
// mailbox immediately), so an Isend completes at once; Irecv completion is
// the interesting case and is implemented by polling the mailbox.

#include <memory>
#include <optional>
#include <vector>

#include "simpi/context.hpp"

namespace trinity::simpi {

/// Handle for a pending nonblocking receive (sends complete immediately in
/// the buffered model, so only receives need a handle).
class RecvRequest {
 public:
  RecvRequest(Context& ctx, int source, int tag)
      : ctx_(&ctx), source_(source), tag_(tag) {}

  /// True when a matching message has arrived (does not consume it).
  [[nodiscard]] bool test() const;

  /// Blocks until the message arrives and returns it. May be called once.
  Message wait();

 private:
  Context* ctx_;
  int source_;
  int tag_;
  bool done_ = false;
};

/// Posts a nonblocking receive for (source, tag).
RecvRequest irecv(Context& ctx, int source, int tag);

/// Nonblocking alltoallv, the communication/computation-overlap primitive
/// of owner-computes GraphFromFasta: construction posts every destination
/// part immediately (buffered sends, never blocks) and the caller computes
/// while the owner-addressed parts are in flight; wait() assembles the
/// received parts indexed by source rank, exactly Context::alltoallv's
/// result. Accounting matches the blocking collective's kAlltoallv row (one
/// call, the full send matrix row as sent, the receive row as received,
/// residual blocked wall in wait_seconds with "alltoallv.wait" trace
/// spans); the raw transfers count under kExtension like every nonblocking
/// primitive. The modeled collective cost is charged at wait(), minus
/// `overlapped_seconds` (clamped at zero). Collective: every rank must
/// construct and wait in the same program order; concurrent in-flight
/// requests need distinct channels.
template <typename T>
class IAlltoallv {
 public:
  IAlltoallv(Context& ctx, std::vector<std::vector<T>> send_parts, int channel = 0);
  IAlltoallv(const IAlltoallv&) = delete;
  IAlltoallv& operator=(const IAlltoallv&) = delete;

  /// Blocks until every peer's part has arrived and returns the parts
  /// indexed by source rank. May be called once.
  std::vector<std::vector<T>> wait(double overlapped_seconds = 0.0);

 private:
  Context* ctx_;
  std::vector<T> own_part_;
  std::size_t sent_bytes_ = 0;
  int tag_;
  bool done_ = false;
};

/// Scatterv: the root sends parts[r] to each rank r and returns parts[root]
/// locally; every other rank returns its received part. `parts` is ignored
/// at non-roots.
template <typename T>
std::vector<T> scatterv(Context& ctx, const std::vector<std::vector<T>>& parts, int root);

/// Alltoallv: send_parts[r] goes to rank r; returns the size()-long vector
/// of parts received, indexed by source rank. This is the library-extension
/// variant (counted under kExtension, no fault point or dedicated trace
/// span); application code should prefer the first-class
/// Context::alltoallv, which has its own CommStats row, wait attribution,
/// and fault-injection hook.
template <typename T>
std::vector<std::vector<T>> alltoallv(Context& ctx,
                                      const std::vector<std::vector<T>>& send_parts);

// --- template implementations ---------------------------------------------------

namespace detail {
inline constexpr int kTagScatter = -5;
inline constexpr int kTagAlltoall = -6;
}  // namespace detail

template <typename T>
IAlltoallv<T>::IAlltoallv(Context& ctx, std::vector<std::vector<T>> send_parts, int channel)
    : ctx_(&ctx), tag_(detail::kTagIalltoallv - channel) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (channel < 0) throw std::invalid_argument("IAlltoallv: channel must be >= 0");
  if (send_parts.size() != static_cast<std::size_t>(ctx.size())) {
    throw std::invalid_argument("IAlltoallv: need one part per destination rank");
  }
  for (const auto& part : send_parts) sent_bytes_ += part.size() * sizeof(T);
  auto& row = ctx.extension_op_stats(CommOp::kAlltoallv);
  ++row.calls;
  row.bytes_sent += sent_bytes_;
  for (int r = 0; r < ctx.size(); ++r) {
    const auto& part = send_parts[static_cast<std::size_t>(r)];
    if (r == ctx.rank()) continue;
    ctx.internal_send(r, tag_, std::as_bytes(std::span<const T>(part)));
  }
  own_part_ = std::move(send_parts[static_cast<std::size_t>(ctx.rank())]);
}

template <typename T>
std::vector<std::vector<T>> IAlltoallv<T>::wait(double overlapped_seconds) {
  if (done_) throw std::logic_error("IAlltoallv: wait() called twice");
  done_ = true;
  Context& ctx = *ctx_;
  trace::SpanScope span("ialltoallv.wait", trace::kCatSimpi);
  if (span) span.arg("overlapped_s", overlapped_seconds);
  std::vector<std::vector<T>> received(static_cast<std::size_t>(ctx.size()));
  received[static_cast<std::size_t>(ctx.rank())] = std::move(own_part_);
  std::size_t recv_bytes =
      received[static_cast<std::size_t>(ctx.rank())].size() * sizeof(T);
  for (int r = 0; r < ctx.size(); ++r) {
    if (r == ctx.rank()) continue;
    const Message msg = ctx.internal_recv_as(CommOp::kAlltoallv, r, tag_);
    detail::unpack_payload(msg, received[static_cast<std::size_t>(r)], "ialltoallv");
    recv_bytes += msg.payload.size();
  }
  // Remote bytes were counted by internal_recv_as; add the own part so the
  // logical row matches the blocking collective exactly.
  ctx.extension_op_stats(CommOp::kAlltoallv).bytes_received +=
      received[static_cast<std::size_t>(ctx.rank())].size() * sizeof(T);
  const double modeled =
      ctx.cost_model().collective_cost(ctx.size(), sent_bytes_ + recv_bytes);
  ctx.charge(modeled > overlapped_seconds ? modeled - overlapped_seconds : 0.0);
  return received;
}

template <typename T>
std::vector<T> scatterv(Context& ctx, const std::vector<std::vector<T>>& parts, int root) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::vector<T> mine;
  std::size_t total_bytes = 0;
  if (ctx.rank() == root) {
    if (parts.size() != static_cast<std::size_t>(ctx.size())) {
      throw std::invalid_argument("scatterv: need one part per rank at the root");
    }
    for (int r = 0; r < ctx.size(); ++r) {
      const auto& part = parts[static_cast<std::size_t>(r)];
      total_bytes += part.size() * sizeof(T);
      if (r == root) {
        mine = part;
      } else {
        ctx.internal_send(r, detail::kTagScatter, std::as_bytes(std::span<const T>(part)));
      }
    }
  } else {
    const Message msg = ctx.internal_recv(root, detail::kTagScatter);
    detail::unpack_payload(msg, mine, "scatterv");
    total_bytes = msg.payload.size();
  }
  ctx.charge(ctx.cost_model().collective_cost(ctx.size(), total_bytes));
  return mine;
}

template <typename T>
std::vector<std::vector<T>> alltoallv(Context& ctx,
                                      const std::vector<std::vector<T>>& send_parts) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (send_parts.size() != static_cast<std::size_t>(ctx.size())) {
    throw std::invalid_argument("alltoallv: need one part per destination rank");
  }
  std::size_t sent_bytes = 0;
  for (int r = 0; r < ctx.size(); ++r) {
    const auto& part = send_parts[static_cast<std::size_t>(r)];
    sent_bytes += part.size() * sizeof(T);
    if (r == ctx.rank()) continue;
    ctx.internal_send(r, detail::kTagAlltoall, std::as_bytes(std::span<const T>(part)));
  }
  std::vector<std::vector<T>> received(static_cast<std::size_t>(ctx.size()));
  received[static_cast<std::size_t>(ctx.rank())] =
      send_parts[static_cast<std::size_t>(ctx.rank())];
  std::size_t recv_bytes = 0;
  for (int r = 0; r < ctx.size(); ++r) {
    if (r == ctx.rank()) continue;
    const Message msg = ctx.internal_recv(r, detail::kTagAlltoall);
    detail::unpack_payload(msg, received[static_cast<std::size_t>(r)], "alltoallv");
    recv_bytes += msg.payload.size();
  }
  ctx.charge(ctx.cost_model().collective_cost(ctx.size(), sent_bytes + recv_bytes));
  return received;
}

}  // namespace trinity::simpi
