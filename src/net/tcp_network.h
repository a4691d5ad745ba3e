#ifndef TPART_NET_TCP_NETWORK_H_
#define TPART_NET_TCP_NETWORK_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/packet_network.h"
#include "runtime/channel.h"

namespace tpart {

/// Real-socket packet network over loopback TCP: every machine owns a
/// listener, and every ordered machine pair (i, j) gets a dedicated
/// connection created by i (identified by a 4-byte hello). Packets are
/// length-prefixed frames (net/wire.h) on the stream; writes go through
/// a per-connection unbounded queue drained by a writer thread doing
/// nonblocking sends, so Send never blocks, not even for an ack the
/// handler sends from a reader thread; a reader thread per inbound
/// connection reassembles frames and hands packets to the handler. The
/// epoch credits bound what the cluster keeps in flight, and with it
/// each queue's depth.
class TcpPacketNetwork : public PacketNetwork {
 public:
  ~TcpPacketNetwork() override { Stop(); }

  void Start(std::size_t num_machines, HandlerFn handler) override;
  void Send(MachineId from, MachineId to, std::string packet) override;
  void Stop() override;
  TransportStats stats() const override;

 private:
  struct Conn {
    int fd = -1;
    BlockingQueue<std::string> queue;  // framed packets awaiting write
    std::thread writer;
  };

  void WriterLoop(Conn* conn);
  void ReaderLoop(MachineId dst, int fd);

  std::size_t n_ = 0;
  HandlerFn handler_;
  bool started_ = false;
  bool stopped_ = false;

  std::vector<int> listen_fds_;
  /// Outbound connection for each ordered pair, indexed [from * n + to];
  /// null on the diagonal.
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<std::thread> acceptors_;
  std::mutex readers_mu_;
  std::vector<std::thread> readers_;
  std::vector<int> reader_fds_;

  mutable std::mutex stats_mu_;
  TransportStats stats_;
};

}  // namespace tpart

#endif  // TPART_NET_TCP_NETWORK_H_
