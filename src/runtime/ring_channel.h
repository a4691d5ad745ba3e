#ifndef TPART_RUNTIME_RING_CHANNEL_H_
#define TPART_RUNTIME_RING_CHANNEL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "common/status.h"

namespace tpart {

/// Bounded multi-producer / single-consumer ring (Vyukov-style per-slot
/// sequence numbers). Producers CAS a ticket, then publish their slot
/// independently; the consumer observes slots in ticket order, so the
/// queue is FIFO per producer and linearizable overall.
template <typename T>
class MpscRing {
 public:
  explicit MpscRing(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    slots_ = std::make_unique<Slot[]>(cap);
    for (std::size_t i = 0; i < cap; ++i) {
      slots_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  /// False when full. Safe from any number of threads.
  bool TryPush(T&& v) {
    std::size_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& s = slots_[pos & mask_];
      const std::size_t seq = s.seq.load(std::memory_order_acquire);
      const std::intptr_t dif = static_cast<std::intptr_t>(seq) -
                                static_cast<std::intptr_t>(pos);
      if (dif == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          s.val = std::move(v);
          s.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
      } else if (dif < 0) {
        return false;  // full
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
  }

  /// False when empty (or when the next slot in ticket order is still
  /// being written — the consumer retries, preserving FIFO). Single
  /// consumer only.
  bool TryPop(T& out) {
    const std::size_t pos = tail_;
    Slot& s = slots_[pos & mask_];
    const std::size_t seq = s.seq.load(std::memory_order_acquire);
    if (static_cast<std::intptr_t>(seq) -
            static_cast<std::intptr_t>(pos + 1) < 0) {
      return false;
    }
    out = std::move(s.val);
    s.val = T();
    s.seq.store(pos + mask_ + 1, std::memory_order_release);
    tail_ = pos + 1;
    return true;
  }

  std::size_t capacity() const { return mask_ + 1; }
  /// Approximate (racy) occupancy.
  std::size_t size() const {
    const std::size_t h = head_.load(std::memory_order_acquire);
    return h - tail_;
  }

 private:
  struct Slot {
    std::atomic<std::size_t> seq{0};
    T val{};
  };
  std::unique_ptr<Slot[]> slots_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::size_t> head_{0};
  alignas(64) std::size_t tail_ = 0;  // consumer-owned, unshared
};

/// The machine-facing inbound queue: an MPSC ring on the fast path with
/// the BlockingQueue semantics preserved on top —
///  * unbounded: a full ring spills into a mutex-protected overflow
///    deque instead of blocking the producer (the direct transport
///    delivers synchronously from peer service threads, so a blocking
///    bounded queue could deadlock a cycle of full machines);
///  * blocking consumer: Receive parks on a condition variable exactly
///    like BlockingQueue, so stall diagnostics and ReceiveFor timeouts
///    behave identically;
///  * FIFO per producer: ring tickets are claimed in order, and once a
///    producer spills, every later send spills too until the consumer
///    has drained the overflow — a later message can never overtake an
///    earlier one from the same producer.
///
/// The fast path (ring push, awake consumer) takes no lock and performs
/// no allocation.
template <typename T>
class RingChannel {
 public:
  explicit RingChannel(std::size_t ring_capacity = 1024)
      : ring_(ring_capacity) {}

  /// Enqueues `msg`; never blocks. Returns true when the send spilled to
  /// the overflow deque (the bounded-queue "had to wait" analogue, kept
  /// for backpressure accounting).
  bool Send(T msg) {
    bool spilled = false;
    if (overflow_active_.load(std::memory_order_acquire) ||
        !ring_.TryPush(std::move(msg))) {
      std::lock_guard<std::mutex> lock(mu_);
      overflow_.push_back(std::move(msg));
      overflow_active_.store(true, std::memory_order_release);
      spills_.fetch_add(1, std::memory_order_relaxed);
      spilled = true;
    }
    count_.fetch_add(1, std::memory_order_acq_rel);
    NoteHighWater();
    // Dekker handshake with the consumer: order the enqueue above before
    // the sleep-flag read, as the consumer orders its sleep-flag write
    // before its final empty-check. At least one side then sees the
    // other: either we notify, or the consumer's predicate finds the
    // message and never blocks.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (sleeping_.load(std::memory_order_relaxed)) {
      // Synchronize on the mutex so the wakeup cannot slip between the
      // consumer's predicate check and its wait, then notify.
      { std::lock_guard<std::mutex> lock(mu_); }
      cv_.notify_one();
    }
    return spilled;
  }

  /// Blocks for the next message. Single consumer only.
  T Receive() {
    T out;
    if (TryPopFast(out)) return out;
    std::unique_lock<std::mutex> lock(mu_);
    MarkSleeping();
    cv_.wait(lock, [&] { return PopLocked(out); });
    sleeping_.store(false, std::memory_order_relaxed);
    return out;
  }

  /// Deadline-aware variant mirroring BlockingQueue::ReceiveFor: waits at
  /// most `timeout` against an absolute deadline, so spurious wakeups
  /// cannot stretch the total wait.
  [[nodiscard]] Result<T> ReceiveFor(std::chrono::microseconds timeout) {
    T out;
    if (TryPopFast(out)) return out;
    std::unique_lock<std::mutex> lock(mu_);
    MarkSleeping();
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    if (!cv_.wait_until(lock, deadline, [&] { return PopLocked(out); })) {
      sleeping_.store(false, std::memory_order_relaxed);
      return Status::Unavailable("channel receive timed out");
    }
    sleeping_.store(false, std::memory_order_relaxed);
    return out;
  }

  /// Non-blocking variant. Single consumer only.
  std::optional<T> TryReceive() {
    T out;
    if (TryPopFast(out)) return out;
    return std::nullopt;
  }

  std::size_t size() const {
    return count_.load(std::memory_order_acquire);
  }

  /// Largest queue depth ever observed (approximate under concurrency,
  /// like the count it samples).
  std::size_t high_water() const {
    return high_water_.load(std::memory_order_acquire);
  }

  /// Sends that overflowed the ring onto the locked spill deque. A
  /// nonzero value means the fixed ring was undersized for some burst —
  /// still correct, but each spilled message paid for a mutex.
  std::uint64_t overflow_spills() const {
    return spills_.load(std::memory_order_relaxed);
  }

 private:
  /// Consumer-side dequeue, lock NOT held: ring first (older messages —
  /// once the overflow activates the ring stops growing), then the
  /// overflow deque under the lock.
  bool TryPopFast(T& out) {
    if (PopRing(out)) return true;
    if (overflow_active_.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(mu_);
      return PopLockedTail(out);
    }
    return false;
  }

  /// Consumer-side dequeue with mu_ held (the cv wait predicate).
  bool PopLocked(T& out) {
    if (PopRing(out)) return true;
    return PopLockedTail(out);
  }

  /// Overflow half of the dequeue; requires mu_. Re-checks the ring
  /// first: a message published there just before a concurrent spill
  /// activated the overflow must still be consumed ahead of the spill.
  bool PopLockedTail(T& out) {
    if (PopRing(out)) return true;
    if (overflow_.empty()) return false;
    out = std::move(overflow_.front());
    overflow_.pop_front();
    if (overflow_.empty()) {
      overflow_active_.store(false, std::memory_order_release);
    }
    count_.fetch_sub(1, std::memory_order_acq_rel);
    return true;
  }

  bool PopRing(T& out) {
    if (!ring_.TryPop(out)) return false;
    count_.fetch_sub(1, std::memory_order_acq_rel);
    return true;
  }

  /// Consumer half of the Dekker handshake (see Send): publish the sleep
  /// flag before the predicate's final empty-check.
  void MarkSleeping() {
    sleeping_.store(true, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }

  void NoteHighWater() {
    const std::size_t n = count_.load(std::memory_order_acquire);
    std::size_t hw = high_water_.load(std::memory_order_relaxed);
    while (n > hw && !high_water_.compare_exchange_weak(
                         hw, n, std::memory_order_relaxed)) {
    }
  }

  MpscRing<T> ring_;
  std::atomic<std::size_t> count_{0};
  std::atomic<std::size_t> high_water_{0};
  std::atomic<std::uint64_t> spills_{0};
  std::atomic<bool> overflow_active_{false};
  std::atomic<bool> sleeping_{false};

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> overflow_;
};

}  // namespace tpart

#endif  // TPART_RUNTIME_RING_CHANNEL_H_
