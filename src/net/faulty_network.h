#ifndef TPART_NET_FAULTY_NETWORK_H_
#define TPART_NET_FAULTY_NETWORK_H_

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "net/packet_network.h"
#include "net/partition_schedule.h"

namespace tpart {

/// Fault-injection knobs. Fault decisions are a pure function of
/// (seed, from, to, per-link send index, fault epoch), so a given
/// traffic pattern meets the same drop/duplicate/delay/sever/slow
/// pattern on every run regardless of thread interleaving.
struct FaultOptions {
  std::uint64_t seed = 0x7ea57;
  /// Per-packet probabilities; applied to data AND ack packets.
  double drop_prob = 0.0;
  double duplicate_prob = 0.0;
  double delay_prob = 0.0;
  /// Delayed packets are released after a seeded uniform delay in
  /// [1, max_delay_us].
  int max_delay_us = 2000;
  /// Link-level schedule: partition windows, flapping links, and
  /// gray-failure slow links keyed to the fault epoch the cluster
  /// advances (PacketNetwork::SetEpoch).
  PartitionSchedule partition;

  bool Any() const {
    return drop_prob > 0 || duplicate_prob > 0 || delay_prob > 0 ||
           partition.Any();
  }
};

/// Decorator that makes any PacketNetwork unreliable: drops, duplicates,
/// and delays packets per FaultOptions. The reliability layer above
/// (SerializedTransport's seq/ack/retry protocol) must mask every fault
/// this class injects — the fault-injection tests assert exactly that.
class FaultyPacketNetwork : public PacketNetwork {
 public:
  FaultyPacketNetwork(std::unique_ptr<PacketNetwork> inner,
                      FaultOptions options);
  ~FaultyPacketNetwork() override { Stop(); }

  void Start(std::size_t num_machines, HandlerFn handler) override;
  void Send(MachineId from, MachineId to, std::string packet) override;
  [[nodiscard]] bool Drain(
      std::chrono::steady_clock::time_point deadline) override;
  void Stop() override;
  TransportStats stats() const override;

  /// Advances the fault epoch the link schedule is evaluated against.
  /// Monotonic (stale advances are ignored); UINT64_MAX heals every
  /// scheduled fault. Forwarded to the inner network for decorator
  /// stacking.
  void SetEpoch(std::uint64_t epoch) override;

 private:
  struct Delayed {
    std::chrono::steady_clock::time_point release;
    std::uint64_t order;  // tie-break so the heap is a stable queue
    MachineId from;
    MachineId to;
    std::string packet;
    bool operator>(const Delayed& other) const {
      return release != other.release ? release > other.release
                                      : order > other.order;
    }
  };

  void TimerLoop();

  std::unique_ptr<PacketNetwork> inner_;
  FaultOptions options_;
  bool started_ = false;
  bool stopped_ = false;
  /// Current fault epoch (sink epoch being disseminated). Atomic: read
  /// by every sending thread, advanced by the dissemination stage.
  std::atomic<std::uint64_t> fault_epoch_{0};

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::uint64_t> link_seq_;  // per ordered (from, to) pair
  std::size_t n_ = 0;
  std::priority_queue<Delayed, std::vector<Delayed>, std::greater<>>
      delayed_;
  std::uint64_t delay_order_ = 0;
  bool releasing_ = false;  // timer is mid-release (guards Drain)
  bool timer_stop_ = false;
  std::thread timer_;

  mutable std::mutex stats_mu_;
  TransportStats stats_;
};

}  // namespace tpart

#endif  // TPART_NET_FAULTY_NETWORK_H_
