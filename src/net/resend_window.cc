#include "net/resend_window.h"

namespace tpart {

void ResendWindow::Append(MachineId dst, Message slice) {
  std::lock_guard<std::mutex> lock(mu_);
  bytes_ += ApproxMessageBytes(slice);
  if (bytes_ > bytes_peak_) bytes_peak_ = bytes_;
  if (window_.empty() || window_.back().slice.epoch != slice.epoch) ++rounds_;
  if (slice.epoch > last_epoch_) last_epoch_ = slice.epoch;
  window_.push_back(Entry{dst, std::move(slice)});
}

std::size_t ResendWindow::PruneThrough(SinkEpoch through) {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t dropped = 0;
  while (!window_.empty() && window_.front().slice.epoch <= through) {
    const SinkEpoch epoch = window_.front().slice.epoch;
    bytes_ -= ApproxMessageBytes(window_.front().slice);
    window_.pop_front();
    if (window_.empty() || window_.front().slice.epoch != epoch) ++dropped;
  }
  rounds_ -= dropped;
  pruned_rounds_ += dropped;
  return dropped;
}

std::size_t ResendWindow::ForEachFrom(
    SinkEpoch resume, MachineId dst,
    const std::function<void(const Message&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t replayed = 0;
  for (const Entry& entry : window_) {
    if (entry.dst != dst || entry.slice.epoch < resume) continue;
    fn(entry.slice);
    ++replayed;
  }
  return replayed;
}

SinkEpoch ResendWindow::front_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return window_.empty() ? 0 : window_.front().slice.epoch;
}

SinkEpoch ResendWindow::last_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_epoch_;
}

bool ResendWindow::empty() const {
  std::lock_guard<std::mutex> lock(mu_);
  return window_.empty();
}

std::size_t ResendWindow::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rounds_;
}

std::size_t ResendWindow::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

std::size_t ResendWindow::bytes_peak() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_peak_;
}

std::uint64_t ResendWindow::pruned_rounds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pruned_rounds_;
}

}  // namespace tpart
