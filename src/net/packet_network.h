#ifndef TPART_NET_PACKET_NETWORK_H_
#define TPART_NET_PACKET_NETWORK_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/types.h"
#include "metrics/run_stats.h"
#include "runtime/channel.h"

namespace tpart {

/// Unreliable unidirectional datagram layer between machines: the
/// substrate under SerializedTransport's reliability protocol. A packet
/// is an opaque byte string (envelope + payload); implementations may
/// drop, duplicate, delay, or reorder packets (the faulty decorator
/// does), but must never corrupt or truncate one that is delivered.
class PacketNetwork {
 public:
  /// Invoked from network threads with the destination machine and one
  /// delivered packet. Must be thread-safe; concurrent invocations for
  /// different packets are allowed.
  using HandlerFn = std::function<void(MachineId dst, std::string packet)>;

  virtual ~PacketNetwork() = default;

  virtual void Start(std::size_t num_machines, HandlerFn handler) = 0;

  /// Queues `packet` for delivery from `from` to `to` (from != to). May
  /// block when the outgoing queue is at capacity (backpressure).
  virtual void Send(MachineId from, MachineId to, std::string packet) = 0;

  /// Stops all network threads; idempotent. Undelivered packets are
  /// discarded.
  virtual void Stop() = 0;

  virtual TransportStats stats() const = 0;

  /// Advances the fault epoch that epoch-keyed link schedules (severed
  /// partitions, flapping links, slow links) are evaluated against.
  /// No-op for lossless networks; the faulty decorator overrides it.
  virtual void SetEpoch(std::uint64_t /*epoch*/) {}
};

/// Lossless in-process implementation: one bounded BlockingQueue of byte
/// packets per destination machine plus a pump thread that hands packets
/// to the handler. Proves the encode/frame/decode path without sockets.
class InProcessPacketNetwork : public PacketNetwork {
 public:
  explicit InProcessPacketNetwork(std::size_t queue_capacity = 4096)
      : queue_capacity_(queue_capacity) {}
  ~InProcessPacketNetwork() override { Stop(); }

  void Start(std::size_t num_machines, HandlerFn handler) override;
  void Send(MachineId from, MachineId to, std::string packet) override;
  void Stop() override;
  TransportStats stats() const override;

 private:
  struct Dest {
    explicit Dest(std::size_t capacity) : queue(capacity) {}
    BlockingQueue<std::string> queue;
    std::thread pump;
  };

  std::size_t queue_capacity_;
  HandlerFn handler_;
  std::vector<std::unique_ptr<Dest>> dests_;
  bool started_ = false;
  bool stopped_ = false;

  // Counted with relaxed atomics: stats() is a report, and nothing else
  // is published through them.
  std::atomic<std::uint64_t> packets_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> backpressure_waits_{0};
};

}  // namespace tpart

#endif  // TPART_NET_PACKET_NETWORK_H_
