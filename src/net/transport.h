#ifndef TPART_NET_TRANSPORT_H_
#define TPART_NET_TRANSPORT_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/stall_timeout.h"
#include "common/status.h"
#include "metrics/run_stats.h"
#include "net/faulty_network.h"
#include "net/packet_network.h"
#include "runtime/channel.h"

namespace tpart {

/// Which substrate carries inter-machine messages in a LocalCluster.
enum class TransportKind {
  /// Pass Message structs by value, no serialization (the seed behaviour;
  /// fastest, but exercises no wire code).
  kDirect,
  /// Serialize every message through the binary wire format and carry the
  /// bytes over in-process queues: the full encode/frame/decode path
  /// without sockets.
  kInProcess,
  /// Real loopback TCP sockets: listener + connection mesh per machine.
  kTcp,
};

struct TransportOptions {
  TransportKind kind = TransportKind::kDirect;
  /// Fault injection (drop/duplicate/delay). Requires a serialized
  /// substrate; when set with kDirect the transport upgrades to
  /// kInProcess, since faults act on wire packets.
  FaultOptions faults;
  /// Bound of each per-destination (in-process) or per-connection (TCP)
  /// packet queue; senders block — and are counted — beyond it.
  std::size_t queue_capacity = 4096;
  /// Reliability layer: unacked data packets are retransmitted after
  /// this long. Only meaningful under fault injection (nothing is lost
  /// otherwise, and sporadic spurious retries are harmless: receivers
  /// dedupe).
  int retry_timeout_us = 2000;
};

/// Message conduit between the machines of a LocalCluster. Thread-safe:
/// every machine's loop thread and the control plane send concurrently.
class Transport {
 public:
  using DeliverFn = std::function<void(Message)>;

  virtual ~Transport() = default;

  /// `deliver[m]` receives every message addressed to machine m; it may
  /// be invoked from transport threads and must be thread-safe.
  virtual void Start(std::vector<DeliverFn> deliver) = 0;

  virtual void Send(MachineId from, MachineId to, Message msg) = 0;

  /// Sends a burst of messages from one machine, preserving per-
  /// destination order. The base implementation forwards to Send one by
  /// one; serialized transports override it to coalesce each
  /// destination's share into a single batch frame (net/wire.h
  /// EncodeMessageBatch) carrying one link sequence number. The vector is
  /// borrowed scratch: the transport moves the messages out but leaves
  /// the (cleared-by-caller) vector's capacity with the caller.
  virtual void SendBatch(MachineId from,
                         std::vector<std::pair<MachineId, Message>>& msgs) {
    for (auto& [to, msg] : msgs) Send(from, to, std::move(msg));
  }

  /// Blocks until every message accepted before the call has been
  /// delivered to its destination — on a serialized transport, until
  /// every data packet sent before the call has been acknowledged; later
  /// sends are not waited for. Call after the machines drain, before
  /// reading final store state. kUnavailable, carrying LinkDiagnostic(),
  /// when that has not happened within `timeout` (a link that never
  /// heals).
  [[nodiscard]] virtual Status Flush(
      std::chrono::microseconds timeout = kStallTimeout) = 0;

  /// Stops transport threads; idempotent.
  virtual void Stop() = 0;

  virtual TransportStats stats() const = 0;

  /// Advances the fault epoch link-level schedules (partitions, slow
  /// links) key off. Called by the dissemination stage as each sinking
  /// round ships; UINT64_MAX heals everything (the cluster does this
  /// before its final Flush so severed-window losses can be repaired).
  /// No-op for transports without a fault-injecting substrate.
  virtual void AdvanceFaultEpoch(std::uint64_t /*epoch*/) {}

  /// Human-readable per-link reliability state (retry backlog depth and
  /// oldest unacked age) for stall diagnostics; empty when the
  /// transport has no reliability layer or nothing is pending.
  virtual std::string LinkDiagnostic() const { return std::string(); }
};

/// The seed's zero-copy path: Send() delivers the struct synchronously,
/// so every message sent is also delivered.
class DirectTransport : public Transport {
 public:
  void Start(std::vector<DeliverFn> deliver) override;
  void Send(MachineId from, MachineId to, Message msg) override;
  Status Flush(std::chrono::microseconds) override { return Status::Ok(); }
  void Stop() override {}
  TransportStats stats() const override;

 private:
  std::vector<DeliverFn> deliver_;
  std::atomic<std::uint64_t> messages_{0};
};

/// Serializes messages through net/wire.h and ships the bytes over a
/// PacketNetwork, with a reliability protocol that makes delivery
/// exactly-once even when the network drops, duplicates, or delays
/// packets: per-link sequence numbers, receiver-side dedupe, acks, and
/// timeout-driven retransmission. Self-sends round-trip through the
/// encoder (never the network) so the wire path is exercised uniformly.
class SerializedTransport : public Transport {
 public:
  SerializedTransport(std::unique_ptr<PacketNetwork> network,
                      int retry_timeout_us);
  ~SerializedTransport() override { Stop(); }

  void Start(std::vector<DeliverFn> deliver) override;
  void Send(MachineId from, MachineId to, Message msg) override;
  void SendBatch(MachineId from,
                 std::vector<std::pair<MachineId, Message>>& msgs) override;
  Status Flush(
      std::chrono::microseconds timeout = kStallTimeout) override;
  void Stop() override;
  TransportStats stats() const override;
  void AdvanceFaultEpoch(std::uint64_t epoch) override;
  std::string LinkDiagnostic() const override;

 private:
  /// State of one directed link: sender-side retransmission buffer and
  /// receiver-side dedupe window.
  struct Link {
    std::uint64_t next_seq = 1;
    struct Unacked {
      std::string packet;  // full envelope, ready to retransmit
      std::chrono::steady_clock::time_point first_sent;
      std::chrono::steady_clock::time_point sent;  // latest (re)send
    };
    std::map<std::uint64_t, Unacked> unacked;
    std::uint64_t dedupe_floor = 0;  // all seqs <= floor delivered
    std::set<std::uint64_t> delivered_above;
  };

  void OnPacket(MachineId dst, std::string packet);
  void RetryLoop();
  void AckLoop();

  std::unique_ptr<PacketNetwork> network_;
  const int retry_timeout_us_;
  std::vector<DeliverFn> deliver_;
  std::size_t n_ = 0;
  bool started_ = false;
  bool stopped_ = false;

  mutable std::mutex mu_;  // links_ (const diagnostics)
  std::condition_variable flush_cv_;
  std::vector<Link> links_;

  // Acks are flushed by a dedicated thread so packet-delivery threads
  // never block on a full outgoing queue (which could deadlock two
  // machines acking each other across full queues).
  BlockingQueue<std::tuple<MachineId, MachineId, std::string>> ack_queue_;
  std::thread ack_thread_;

  std::thread retry_thread_;
  std::atomic<bool> shutdown_{false};

  mutable std::mutex stats_mu_;
  TransportStats stats_;
};

/// Builds the transport selected by `options`.
std::unique_ptr<Transport> MakeTransport(const TransportOptions& options);

}  // namespace tpart

#endif  // TPART_NET_TRANSPORT_H_
