#ifndef TPART_NET_TRANSPORT_H_
#define TPART_NET_TRANSPORT_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
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
  /// Serialize every message through the binary wire format and hand the
  /// bytes to the receiver on the sending thread: the full
  /// encode/frame/decode path without sockets. A send returns with its
  /// packet delivered and acked unless a fault intervenes.
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
  /// Reliability layer: an unacked data packet is retransmitted after
  /// this long, or after its link's measured ack round trip (smoothed,
  /// plus four mean deviations) when that is longer. Only meaningful
  /// under fault injection (nothing is lost otherwise, and sporadic
  /// spurious retries are harmless: receivers dedupe).
  int retry_timeout_us = 2000;
};

/// Message conduit between the machines of a LocalCluster. Thread-safe:
/// every machine's loop thread and the control plane send concurrently.
class Transport {
 public:
  /// Receives one or more messages for its machine, in send order: one
  /// destination's share of one SendBatch (a batch frame on a serialized
  /// transport) or a single Send. It runs on the thread that hands them
  /// over: the sending thread for the direct and in-process transports
  /// (the retry thread for an in-process retransmission, the fault
  /// injector's timer thread for a delayed packet), the receiving
  /// connection's reader thread for TCP. The vector is borrowed: the sink
  /// may move its messages out or swap its buffer for an empty one, and
  /// the transport clears it afterwards. A sink must be thread-safe, must
  /// not block, and must not send: it may run inside the sender's
  /// SendBatch, whose per-thread scratch a nested send would overwrite.
  using DeliverFn = std::function<void(std::vector<Message>& msgs)>;

  virtual ~Transport() = default;

  /// `deliver[m]` receives every message addressed to machine m.
  virtual void Start(std::vector<DeliverFn> deliver) = 0;

  /// Never blocks on the network: a send returns once its message is
  /// delivered (direct, lossless in-process) or queued for a socket or a
  /// fault-injected delay.
  virtual void Send(MachineId from, MachineId to, Message msg) = 0;

  /// Sends a burst of messages from one machine, preserving per-
  /// destination order: a machine's loop sends everything of one turn
  /// (dispatched messages' replies, a plan's pushes and write-backs, a
  /// round's read requests) in one call. Each destination's share
  /// reaches its sink in one call: the direct transport hands it over as
  /// is, and a serialized transport carries it in one batch frame
  /// (net/wire.h EncodeMessageBatch) with one link sequence number, so it
  /// costs one packet and one ack. The vector is borrowed scratch: the
  /// transport moves the messages out but leaves the (cleared-by-caller)
  /// vector's capacity with the caller.
  virtual void SendBatch(MachineId from,
                         std::vector<std::pair<MachineId, Message>>& msgs) = 0;

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

/// The seed's zero-copy path: a send delivers the structs synchronously,
/// so every message sent is also delivered. A SendBatch hands each
/// destination's share to its sink in one call, counted in stats() as a
/// batch when it holds more than one message.
class DirectTransport : public Transport {
 public:
  void Start(std::vector<DeliverFn> deliver) override;
  void Send(MachineId from, MachineId to, Message msg) override;
  void SendBatch(MachineId from,
                 std::vector<std::pair<MachineId, Message>>& msgs) override;
  Status Flush(std::chrono::microseconds) override { return Status::Ok(); }
  void Stop() override {}
  TransportStats stats() const override;

 private:
  std::vector<DeliverFn> deliver_;
  std::atomic<std::uint64_t> messages_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> batched_messages_{0};
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
  /// ack round-trip estimate, receiver-side dedupe window.
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
    // Smoothed ack round trip and its mean deviation (RFC 6298), sampled
    // only from packets never resent (Karn's rule: the ack of a resent
    // packet may answer either copy). Zero until the first sample.
    std::chrono::microseconds srtt{0};
    std::chrono::microseconds rttvar{0};

    /// Folds one ack round trip into the estimate.
    void SampleRtt(std::chrono::microseconds rtt);
    /// How long an unacked packet waits before it is resent: `floor`, or
    /// the estimate's SRTT + 4 * RTTVAR when that is longer.
    std::chrono::microseconds RetryTimeout(
        std::chrono::microseconds floor) const {
      return std::max(floor, srtt + 4 * rttvar);
    }
  };

  /// Frames `payload` as a `kind` packet on link from->to: assigns the
  /// link's next sequence number, keeps the packet for retransmission
  /// until it is acked, and sends it.
  void SendPacket(MachineId from, MachineId to, std::uint8_t kind,
                  std::string_view payload);
  /// Receives one packet at `dst`; a data packet is delivered (unless a
  /// duplicate) and acked on the spot, from the thread that called it.
  void OnPacket(MachineId dst, std::string packet);
  void RetryLoop();

  std::unique_ptr<PacketNetwork> network_;
  const int retry_timeout_us_;
  std::vector<DeliverFn> deliver_;
  std::size_t n_ = 0;
  bool started_ = false;
  bool stopped_ = false;

  mutable std::mutex mu_;  // links_ (const diagnostics)
  std::condition_variable flush_cv_;
  std::vector<Link> links_;

  std::thread retry_thread_;
  std::atomic<bool> shutdown_{false};

  // Counted with relaxed atomics: stats() is a report, and nothing else
  // is published through them. The network counts packets and their
  // bytes; self-sends never reach it, so their bytes count here, once
  // out and once in.
  struct Counters {
    std::atomic<std::uint64_t> messages_sent{0};
    std::atomic<std::uint64_t> messages_delivered{0};
    std::atomic<std::uint64_t> batches_sent{0};
    std::atomic<std::uint64_t> batched_messages{0};
    std::atomic<std::uint64_t> self_bytes{0};
    std::atomic<std::uint64_t> acks_sent{0};
    std::atomic<std::uint64_t> retries{0};
    std::atomic<std::uint64_t> duplicates_dropped{0};
  };
  Counters counters_;
};

/// Builds the transport selected by `options`.
std::unique_ptr<Transport> MakeTransport(const TransportOptions& options);

}  // namespace tpart

#endif  // TPART_NET_TRANSPORT_H_
