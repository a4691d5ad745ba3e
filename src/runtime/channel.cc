#include "runtime/channel.h"

#include <algorithm>
#include <iterator>

namespace tpart {

bool operator==(const Message& a, const Message& b) {
  return a.type == b.type && a.key == b.key && a.version == b.version &&
         a.replaces == b.replaces && a.dst_txn == b.dst_txn &&
         a.value == b.value && a.invalidate == b.invalidate &&
         a.total_reads == b.total_reads && a.awaits == b.awaits &&
         a.sticky == b.sticky && a.epoch == b.epoch &&
         a.reply_to == b.reply_to && a.req_id == b.req_id &&
         a.txn == b.txn && a.kvs == b.kvs &&
         a.plan_bytes == b.plan_bytes && a.specs == b.specs &&
         a.trace_ctx == b.trace_ctx && a.term == b.term;
}

std::size_t ApproxMessageBytes(const Message& m) {
  std::size_t bytes = sizeof(Message);
  bytes += m.value.SizeBytes();
  for (const auto& [key, rec] : m.kvs) {
    (void)key;
    bytes += sizeof(ObjectKey) + rec.SizeBytes();
  }
  bytes += m.plan_bytes.size();
  for (const TxnSpec& spec : m.specs) {
    bytes += sizeof(TxnSpec) + spec.params.size() * sizeof(spec.params[0]);
  }
  return bytes;
}

void Channel::Send(Message msg) {
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_.push_back(std::move(msg));
    high_water_ = std::max(high_water_, pending_.size());
    wake = waiting_;
  }
  if (wake) cv_.notify_one();
}

void Channel::Append(std::vector<Message>& batch) {
  if (batch.empty()) return;
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_.empty()) {
      pending_.swap(batch);
    } else {
      pending_.insert(pending_.end(), std::make_move_iterator(batch.begin()),
                      std::make_move_iterator(batch.end()));
    }
    high_water_ = std::max(high_water_, pending_.size());
    wake = waiting_;
  }
  if (wake) cv_.notify_one();
  batch.clear();
}

bool Channel::TakeAll(std::vector<Message>& out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (pending_.empty()) return false;
  out.swap(pending_);
  return true;
}

bool Channel::WaitTakeAll(std::vector<Message>& out,
                          Clock::time_point deadline) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto ready = [&] { return !pending_.empty(); };
  waiting_ = true;
  if (deadline == Clock::time_point::max()) {
    cv_.wait(lock, ready);
  } else {
    (void)cv_.wait_until(lock, deadline, ready);
  }
  waiting_ = false;
  if (pending_.empty()) return false;
  out.swap(pending_);
  return true;
}

std::size_t Channel::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_.size();
}

std::size_t Channel::high_water() const {
  std::lock_guard<std::mutex> lock(mu_);
  return high_water_;
}

}  // namespace tpart
