#pragma once
// Nonblocking alltoallv (the MPI_Ialltoallv analogue).
//
// The weld pooling after GraphFromFasta's loop 1 is an alltoallv in
// disguise when ranks only need the welds matching their own contigs;
// owner-computes GraphFromFasta routes them with IAlltoallv so the weld
// exchange overlaps its remaining compute.
//
// Simpi sends are buffered (the payload is copied into the destination
// mailbox immediately), so the sends complete at construction and only
// the receives wait.

#include <stdexcept>
#include <vector>

#include "simpi/context.hpp"

namespace trinity::simpi {

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

// --- template implementations ---------------------------------------------------

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

}  // namespace trinity::simpi
