#ifndef TPART_NET_PACKET_NETWORK_H_
#define TPART_NET_PACKET_NETWORK_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "common/types.h"
#include "metrics/run_stats.h"

namespace tpart {

/// Unreliable unidirectional datagram layer between machines: the
/// substrate under SerializedTransport's reliability protocol. A packet
/// is an opaque byte string (envelope + payload); implementations may
/// drop, duplicate, delay, or reorder packets (the faulty decorator
/// does), but must never corrupt or truncate one that is delivered.
class PacketNetwork {
 public:
  /// Invoked with the destination machine and one delivered packet: on
  /// the sending thread for the in-process network, on the receiving
  /// connection's reader thread for TCP, and on the fault injector's
  /// timer thread for a delayed packet. Must be thread-safe; concurrent
  /// invocations for different packets are allowed, and the handler may
  /// itself Send (the reliability layer acks from it).
  using HandlerFn = std::function<void(MachineId dst, std::string packet)>;

  virtual ~PacketNetwork() = default;

  virtual void Start(std::size_t num_machines, HandlerFn handler) = 0;

  /// Hands `packet` to the network for delivery from `from` to `to`
  /// (from != to). Never blocks: the in-process network delivers it
  /// before returning, and TCP appends it to the connection's unbounded
  /// writer queue. A send after Stop() is dropped.
  virtual void Send(MachineId from, MachineId to, std::string packet) = 0;

  /// Stops the network and joins its threads, if it has any;
  /// idempotent. Undelivered packets are discarded.
  virtual void Stop() = 0;

  virtual TransportStats stats() const = 0;

  /// Advances the fault epoch that epoch-keyed link schedules (severed
  /// partitions, flapping links, slow links) are evaluated against.
  /// No-op for lossless networks; the faulty decorator overrides it.
  virtual void SetEpoch(std::uint64_t /*epoch*/) {}
};

/// Lossless in-process implementation: Send hands the packet to the
/// handler on the sending thread, as DirectTransport does with message
/// structs, so the network owns no queue and no thread. Proves the
/// encode/frame/decode path without sockets.
class InProcessPacketNetwork : public PacketNetwork {
 public:
  void Start(std::size_t num_machines, HandlerFn handler) override;
  void Send(MachineId from, MachineId to, std::string packet) override;
  void Stop() override;
  TransportStats stats() const override;

 private:
  std::size_t n_ = 0;
  HandlerFn handler_;
  /// Read by every sending thread.
  std::atomic<bool> stopped_{false};

  // Counted with relaxed atomics: stats() is a report, and nothing else
  // is published through them.
  std::atomic<std::uint64_t> packets_{0};
  std::atomic<std::uint64_t> bytes_{0};
};

}  // namespace tpart

#endif  // TPART_NET_PACKET_NETWORK_H_
