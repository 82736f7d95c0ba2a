#include "simpi/mailbox.hpp"

#include <algorithm>

namespace trinity::simpi {

void Mailbox::deliver(Message msg) {
  {
    std::scoped_lock lock(mu_);
    queue_.push_back(std::move(msg));
  }
  cv_.notify_all();
}

Message Mailbox::receive(int source, int tag) {
  std::unique_lock lock(mu_);
  for (;;) {
    const auto it = std::find_if(queue_.begin(), queue_.end(),
                                 [&](const Message& m) { return matches(m, source, tag); });
    if (it != queue_.end()) {
      Message out = std::move(*it);
      queue_.erase(it);
      return out;
    }
    if (aborted()) throw MailboxAborted();
    cv_.wait(lock);
  }
}

std::size_t Mailbox::pending() {
  std::scoped_lock lock(mu_);
  return queue_.size();
}

void Mailbox::wake_for_abort() { cv_.notify_all(); }

}  // namespace trinity::simpi
