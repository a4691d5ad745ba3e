#include "net/packet_network.h"

#include <algorithm>

#include "common/logging.h"

namespace tpart {

// An empty packet is the pump shutdown sentinel; real packets always
// carry at least an envelope byte (net/transport.cc).

void InProcessPacketNetwork::Start(std::size_t num_machines,
                                   HandlerFn handler) {
  TPART_CHECK(!started_) << "network started twice";
  started_ = true;
  handler_ = std::move(handler);
  dests_.reserve(num_machines);
  for (std::size_t m = 0; m < num_machines; ++m) {
    dests_.push_back(std::make_unique<Dest>(queue_capacity_));
  }
  for (std::size_t m = 0; m < num_machines; ++m) {
    Dest* dest = dests_[m].get();
    dests_[m]->pump = std::thread([this, dest, m] {
      while (true) {
        std::string packet = dest->queue.Receive();
        if (packet.empty()) return;
        handler_(static_cast<MachineId>(m), std::move(packet));
      }
    });
  }
}

void InProcessPacketNetwork::Send(MachineId from, MachineId to,
                                  std::string packet) {
  TPART_CHECK(started_ && to < dests_.size())
      << "send to unknown machine " << to;
  TPART_CHECK(!packet.empty()) << "empty packet";
  (void)from;
  const std::size_t bytes = packet.size();
  const bool waited = dests_[to]->queue.Send(std::move(packet));
  packets_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(bytes, std::memory_order_relaxed);
  if (waited) backpressure_waits_.fetch_add(1, std::memory_order_relaxed);
}

void InProcessPacketNetwork::Stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  for (auto& dest : dests_) {
    dest->queue.Send(std::string());  // shutdown sentinel
  }
  for (auto& dest : dests_) {
    if (dest->pump.joinable()) dest->pump.join();
  }
}

TransportStats InProcessPacketNetwork::stats() const {
  TransportStats out;
  // Lossless: every accepted packet is delivered.
  out.packets_out = packets_.load(std::memory_order_relaxed);
  out.packets_in = out.packets_out;
  out.bytes_out = bytes_.load(std::memory_order_relaxed);
  out.bytes_in = out.bytes_out;
  out.backpressure_waits = backpressure_waits_.load(std::memory_order_relaxed);
  // The queues outlive Stop(), so their high-water marks stay readable.
  for (const auto& dest : dests_) {
    out.queue_high_water = std::max<std::uint64_t>(out.queue_high_water,
                                                   dest->queue.high_water());
  }
  return out;
}

}  // namespace tpart
