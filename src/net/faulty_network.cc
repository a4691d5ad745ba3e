#include "net/faulty_network.h"

#include <algorithm>

#include "common/logging.h"
#include "common/random.h"

namespace tpart {

FaultyPacketNetwork::FaultyPacketNetwork(
    std::unique_ptr<PacketNetwork> inner, FaultOptions options)
    : inner_(std::move(inner)), options_(options) {}

void FaultyPacketNetwork::Start(std::size_t num_machines,
                                HandlerFn handler) {
  TPART_CHECK(!started_) << "network started twice";
  started_ = true;
  n_ = num_machines;
  link_seq_.assign(n_ * n_, 0);
  inner_->Start(num_machines, std::move(handler));
  timer_ = std::thread([this] { TimerLoop(); });
}

void FaultyPacketNetwork::Send(MachineId from, MachineId to,
                               std::string packet) {
  TPART_CHECK(started_ && from < n_ && to < n_);
  std::uint64_t seq;
  {
    std::lock_guard<std::mutex> lock(mu_);
    seq = link_seq_[from * n_ + to]++;
  }
  // Link-schedule faults first: a severed or flapped-down link swallows
  // the packet before any per-packet randomness, so runs without a
  // schedule keep their exact historical drop/dup/delay pattern.
  const std::uint64_t epoch = fault_epoch_.load(std::memory_order_acquire);
  const PartitionSchedule& sched = options_.partition;
  if (sched.Severed(from, to, epoch, n_) ||
      sched.FlappedDown(from, to, epoch, seq)) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.faults_severed;
    return;
  }
  // One seeded generator per (link, send index): fault pattern is
  // independent of cross-link thread interleaving.
  Rng rng(options_.seed ^ (static_cast<std::uint64_t>(from) << 40) ^
          (static_cast<std::uint64_t>(to) << 20) ^ seq);
  if (rng.NextBool(options_.drop_prob)) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.faults_dropped;
    return;
  }
  const int copies = rng.NextBool(options_.duplicate_prob) ? 2 : 1;
  if (copies == 2) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.faults_duplicated;
  }
  for (int c = 0; c < copies; ++c) {
    std::string copy = (c + 1 < copies) ? packet : std::move(packet);
    std::uint64_t delay_us = 0;
    if (rng.NextBool(options_.delay_prob)) {
      delay_us = 1 + rng.NextBelow(static_cast<std::uint64_t>(
                         std::max(options_.max_delay_us, 1)));
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.faults_delayed;
    }
    // Gray failure: an active slow-link window inflates every packet on
    // the link by a seeded amount on top of any probabilistic delay.
    if (const int slow_us = sched.SlowDelayUs(from, to, epoch);
        slow_us > 0) {
      delay_us += 1 + rng.NextBelow(static_cast<std::uint64_t>(slow_us));
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.faults_slowed;
    }
    if (delay_us > 0) {
      const auto delay = std::chrono::microseconds(delay_us);
      {
        std::lock_guard<std::mutex> lock(mu_);
        delayed_.push(Delayed{std::chrono::steady_clock::now() + delay,
                              delay_order_++, from, to, std::move(copy)});
      }
      cv_.notify_all();
    } else {
      inner_->Send(from, to, std::move(copy));
    }
  }
}

void FaultyPacketNetwork::SetEpoch(std::uint64_t epoch) {
  // Monotonic max: recovery re-ships and racing stages may advance out
  // of order, and healing must never be rolled back.
  std::uint64_t cur = fault_epoch_.load(std::memory_order_relaxed);
  while (epoch > cur && !fault_epoch_.compare_exchange_weak(
                            cur, epoch, std::memory_order_release,
                            std::memory_order_relaxed)) {
  }
  inner_->SetEpoch(epoch);
}

void FaultyPacketNetwork::TimerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    if (timer_stop_) return;
    if (delayed_.empty()) {
      cv_.wait(lock, [&] { return timer_stop_ || !delayed_.empty(); });
      continue;
    }
    const auto next_release = delayed_.top().release;
    if (std::chrono::steady_clock::now() < next_release) {
      // cv_status dropped on purpose: timeout and notify both loop back
      // to re-derive the next release from the queue.
      (void)cv_.wait_until(lock, next_release);
      continue;
    }
    Delayed item = delayed_.top();
    delayed_.pop();
    releasing_ = true;
    lock.unlock();
    inner_->Send(item.from, item.to, std::move(item.packet));
    lock.lock();
    releasing_ = false;
    cv_.notify_all();  // wake Drain when the heap empties
  }
}

bool FaultyPacketNetwork::Drain(
    std::chrono::steady_clock::time_point deadline) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!cv_.wait_until(lock, deadline, [&] {
          return (delayed_.empty() && !releasing_) || timer_stop_;
        })) {
      return false;
    }
  }
  return inner_->Drain(deadline);
}

void FaultyPacketNetwork::Stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  {
    std::lock_guard<std::mutex> lock(mu_);
    timer_stop_ = true;
  }
  cv_.notify_all();
  if (timer_.joinable()) timer_.join();
  inner_->Stop();
}

TransportStats FaultyPacketNetwork::stats() const {
  TransportStats out = inner_->stats();
  std::lock_guard<std::mutex> lock(stats_mu_);
  out.MergeFrom(stats_);
  return out;
}

}  // namespace tpart
