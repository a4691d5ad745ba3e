#include "net/packet_network.h"

#include <utility>

#include "common/logging.h"

namespace tpart {

void InProcessPacketNetwork::Start(std::size_t num_machines,
                                   HandlerFn handler) {
  TPART_CHECK(!handler_) << "network started twice";
  n_ = num_machines;
  handler_ = std::move(handler);
}

void InProcessPacketNetwork::Send(MachineId from, MachineId to,
                                  std::string packet) {
  TPART_CHECK(from < n_ && to < n_) << "bad send " << from << "->" << to;
  if (stopped_.load()) return;
  packets_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(packet.size(), std::memory_order_relaxed);
  handler_(to, std::move(packet));
}

void InProcessPacketNetwork::Stop() {
  stopped_.store(true);
}

TransportStats InProcessPacketNetwork::stats() const {
  TransportStats out;
  // Lossless: every packet sent is delivered.
  out.packets_out = packets_.load(std::memory_order_relaxed);
  out.packets_in = out.packets_out;
  out.bytes_out = bytes_.load(std::memory_order_relaxed);
  out.bytes_in = out.bytes_out;
  return out;
}

}  // namespace tpart
