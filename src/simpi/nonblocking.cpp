#include "simpi/nonblocking.hpp"

#include <stdexcept>

namespace trinity::simpi {

bool RecvRequest::test() const {
  if (done_) return true;
  return ctx_->has_message(source_, tag_);
}

Message RecvRequest::wait() {
  if (done_) throw std::logic_error("RecvRequest: wait() called twice");
  done_ = true;
  return ctx_->recv_bytes(source_, tag_);
}

RecvRequest irecv(Context& ctx, int source, int tag) { return RecvRequest(ctx, source, tag); }

}  // namespace trinity::simpi
