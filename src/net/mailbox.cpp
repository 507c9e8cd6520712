#include "net/mailbox.hpp"

#include <algorithm>

namespace das::net {

void Mailbox::deliver(Message msg) {
  {
    MutexLock g(mu_);
    messages_.push_back(std::move(msg));
  }
  cv_.notify_all();
}

std::deque<Message>::iterator Mailbox::find_locked(std::optional<int> src,
                                                   int tag) {
  return std::find_if(messages_.begin(), messages_.end(), [&](const Message& m) {
    return (!src || m.src == *src) && m.tag == tag;
  });
}

std::optional<Message> Mailbox::take_matching(
    std::optional<int> src, int tag, std::optional<Clock::time_point> deadline) {
  MutexLock g(mu_);
  for (;;) {
    const auto it = find_locked(src, tag);
    if (it != messages_.end()) {
      Message m = std::move(*it);
      messages_.erase(it);
      return m;
    }
    if (!deadline) {
      cv_.wait(g);
      continue;
    }
    const auto remaining = *deadline - Clock::now();
    if (remaining <= std::chrono::nanoseconds::zero()) return std::nullopt;
    cv_.wait_for(g, std::chrono::duration_cast<std::chrono::nanoseconds>(
                        remaining));
  }
}

Message Mailbox::take(int src, int tag) {
  return *take_matching(src, tag, std::nullopt);
}

Message Mailbox::take_any(int tag) {
  return *take_matching(std::nullopt, tag, std::nullopt);
}

std::optional<Message> Mailbox::take_for(int src, int tag,
                                         std::chrono::nanoseconds timeout) {
  return take_matching(src, tag, Clock::now() + timeout);
}

std::optional<Message> Mailbox::take_any_for(int tag,
                                             std::chrono::nanoseconds timeout) {
  return take_matching(std::nullopt, tag, Clock::now() + timeout);
}

bool Mailbox::try_take(int src, int tag, Message& out) {
  MutexLock g(mu_);
  auto it = find_locked(src, tag);
  if (it == messages_.end()) return false;
  out = std::move(*it);
  messages_.erase(it);
  return true;
}

std::size_t Mailbox::pending() const {
  MutexLock g(mu_);
  return messages_.size();
}

}  // namespace das::net
