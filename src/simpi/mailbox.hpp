#pragma once
// Per-rank message mailbox: the delivery fabric under simpi's point-to-point
// operations. Each rank owns one Mailbox; deliver() from any thread
// enqueues, receive() blocks until a message matching (source, tag) arrives.
// Messages from a given (source, tag) pair are delivered in send order,
// matching the MPI non-overtaking guarantee.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace trinity::simpi {

/// Wildcard source for receive(), mirroring MPI_ANY_SOURCE.
inline constexpr int kAnySource = -1;

/// A delivered message: its envelope plus the payload bytes.
struct Message {
  int source = 0;
  int tag = 0;
  std::vector<std::byte> payload;
};

/// Thrown out of a blocked receive() when the world is torn down.
class MailboxAborted : public std::runtime_error {
 public:
  MailboxAborted() : std::runtime_error("mailbox aborted") {}
};

/// Thread-safe FIFO mailbox with (source, tag) matching and cooperative
/// abort. `abort_flag` may be null (no abort support) or point at a flag
/// owned by the enclosing world; when it becomes true, wake_for_abort()
/// unblocks all waiting receivers with MailboxAborted.
class Mailbox {
 public:
  explicit Mailbox(const std::atomic<bool>* abort_flag = nullptr)
      : abort_flag_(abort_flag) {}

  /// Enqueues a message; wakes any matching receiver.
  void deliver(Message msg);

  /// Blocks until a message with matching source (or kAnySource) and tag is
  /// available, then removes and returns it. Among matching messages the
  /// earliest-delivered wins. Throws MailboxAborted when the abort flag is
  /// raised while waiting.
  Message receive(int source, int tag);

  /// Number of queued (undelivered) messages; used by shutdown sanity checks.
  [[nodiscard]] std::size_t pending();

  /// Wakes all blocked receivers so they can observe the abort flag.
  void wake_for_abort();

 private:
  bool matches(const Message& m, int source, int tag) const {
    return (source == kAnySource || m.source == source) && m.tag == tag;
  }
  bool aborted() const {
    return abort_flag_ != nullptr && abort_flag_->load(std::memory_order_acquire);
  }

  const std::atomic<bool>* abort_flag_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Message> queue_;
};

}  // namespace trinity::simpi
