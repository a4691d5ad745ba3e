#include "net/packet_network.h"

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
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.packets_out;
  ++stats_.packets_in;  // lossless: every accepted packet is delivered
  stats_.bytes_out += bytes;
  stats_.bytes_in += bytes;
  if (waited) ++stats_.backpressure_waits;
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
  std::lock_guard<std::mutex> lock(stats_mu_);
  for (const auto& dest : dests_) {
    stats_.queue_high_water =
        std::max<std::uint64_t>(stats_.queue_high_water,
                                dest->queue.high_water());
  }
}

TransportStats InProcessPacketNetwork::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  TransportStats out = stats_;
  if (!stopped_) {
    for (const auto& dest : dests_) {
      out.queue_high_water = std::max<std::uint64_t>(out.queue_high_water,
                                                     dest->queue.high_water());
    }
  }
  return out;
}

}  // namespace tpart
