#include "net/tcp_network.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fcntl.h>

#include "common/logging.h"
#include "net/wire.h"

namespace tpart {

namespace {

int MakeListener(std::uint16_t* port_out) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  TPART_CHECK(fd >= 0) << "socket: " << std::strerror(errno);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = ::htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral
  TPART_CHECK(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) ==
              0)
      << "bind: " << std::strerror(errno);
  TPART_CHECK(::listen(fd, SOMAXCONN) == 0)
      << "listen: " << std::strerror(errno);
  socklen_t len = sizeof addr;
  TPART_CHECK(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) ==
              0)
      << "getsockname: " << std::strerror(errno);
  *port_out = ::ntohs(addr.sin_port);
  return fd;
}

void SetNoDelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

bool ReadExactly(int fd, char* buf, std::size_t len) {
  std::size_t got = 0;
  while (got < len) {
    const ssize_t nr = ::recv(fd, buf + got, len - got, 0);
    if (nr > 0) {
      got += static_cast<std::size_t>(nr);
    } else if (nr < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  return true;
}

bool WriteExactly(int fd, const char* buf, std::size_t len) {
  std::size_t sent = 0;
  while (sent < len) {
    const ssize_t nw = ::send(fd, buf + sent, len - sent, MSG_NOSIGNAL);
    if (nw > 0) {
      sent += static_cast<std::size_t>(nw);
    } else if (nw < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

void TcpPacketNetwork::Start(std::size_t num_machines, HandlerFn handler) {
  TPART_CHECK(!started_) << "network started twice";
  started_ = true;
  n_ = num_machines;
  handler_ = std::move(handler);
  if (n_ <= 1) return;

  std::vector<std::uint16_t> ports(n_);
  listen_fds_.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    listen_fds_[i] = MakeListener(&ports[i]);
  }

  // Acceptors: machine i expects one inbound connection from every peer,
  // identified by a 4-byte little-endian hello.
  for (std::size_t i = 0; i < n_; ++i) {
    acceptors_.emplace_back([this, i] {
      for (std::size_t k = 0; k + 1 < n_; ++k) {
        const int cfd = ::accept(listen_fds_[i], nullptr, nullptr);
        if (cfd < 0) return;  // listener closed during shutdown
        char hello[4];
        if (!ReadExactly(cfd, hello, sizeof hello)) {
          ::close(cfd);
          return;
        }
        SetNoDelay(cfd);
        std::lock_guard<std::mutex> lock(readers_mu_);
        reader_fds_.push_back(cfd);
        readers_.emplace_back([this, i, cfd] {
          ReaderLoop(static_cast<MachineId>(i), cfd);
        });
      }
    });
  }

  // Connect the full mesh; the listeners' backlog absorbs ordering.
  conns_.resize(n_ * n_);
  for (std::size_t from = 0; from < n_; ++from) {
    for (std::size_t to = 0; to < n_; ++to) {
      if (from == to) continue;
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      TPART_CHECK(fd >= 0) << "socket: " << std::strerror(errno);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = ::htonl(INADDR_LOOPBACK);
      addr.sin_port = ::htons(ports[to]);
      TPART_CHECK(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                            sizeof addr) == 0)
          << "connect to machine " << to << ": " << std::strerror(errno);
      char hello[4];
      for (int b = 0; b < 4; ++b) {
        hello[b] = static_cast<char>((from >> (8 * b)) & 0xFF);
      }
      TPART_CHECK(WriteExactly(fd, hello, sizeof hello)) << "hello failed";
      SetNoDelay(fd);
      // Writers use nonblocking sends + poll; see WriterLoop.
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
      auto conn = std::make_unique<Conn>();
      conn->fd = fd;
      conn->writer = std::thread([this, c = conn.get()] { WriterLoop(c); });
      conns_[from * n_ + to] = std::move(conn);
    }
  }

  // Start returns only with the mesh fully established.
  for (auto& a : acceptors_) a.join();
  acceptors_.clear();
}

void TcpPacketNetwork::Send(MachineId from, MachineId to,
                            std::string packet) {
  TPART_CHECK(started_ && from < n_ && to < n_ && from != to)
      << "bad tcp send " << from << "->" << to;
  std::string frame;
  frame.reserve(packet.size() + kFrameHeaderBytes);
  AppendFrame(packet, &frame);
  conns_[from * n_ + to]->queue.Send(std::move(frame));
}

void TcpPacketNetwork::WriterLoop(Conn* conn) {
  while (true) {
    std::string frame = conn->queue.Receive();
    if (frame.empty()) return;  // shutdown sentinel
    std::size_t off = 0;
    while (off < frame.size()) {
      const ssize_t nw = ::send(conn->fd, frame.data() + off,
                                frame.size() - off, MSG_NOSIGNAL);
      if (nw > 0) {
        off += static_cast<std::size_t>(nw);
      } else if (nw < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        pollfd pfd{conn->fd, POLLOUT, 0};
        ::poll(&pfd, 1, 50);
      } else if (nw < 0 && errno == EINTR) {
        continue;
      } else {
        return;  // peer closed during shutdown
      }
    }
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.packets_out;
    stats_.bytes_out += frame.size();
  }
}

void TcpPacketNetwork::ReaderLoop(MachineId dst, int fd) {
  FrameBuffer frames;
  char buf[64 * 1024];
  while (true) {
    const ssize_t nr = ::recv(fd, buf, sizeof buf, 0);
    if (nr == 0) return;  // closed
    if (nr < 0) {
      if (errno == EINTR) continue;
      return;
    }
    frames.Append(std::string_view(buf, static_cast<std::size_t>(nr)));
    while (true) {
      auto next = frames.Next();
      TPART_CHECK(next.ok())
          << "corrupt frame stream to machine " << dst << ": "
          << next.status().ToString();
      if (!next->has_value()) break;
      std::string packet = std::move(**next);
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.packets_in;
        stats_.bytes_in += packet.size() + kFrameHeaderBytes;
      }
      handler_(dst, std::move(packet));
    }
  }
}

void TcpPacketNetwork::Stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  for (const int fd : listen_fds_) {
    if (fd >= 0) ::close(fd);
  }
  // Writers first: they flush queued frames up to the sentinel, so
  // nothing already accepted is cut off mid-stream.
  for (auto& conn : conns_) {
    if (conn) conn->queue.Send(std::string());
  }
  for (auto& conn : conns_) {
    if (conn && conn->writer.joinable()) conn->writer.join();
  }
  for (auto& conn : conns_) {
    if (conn && conn->fd >= 0) {
      ::shutdown(conn->fd, SHUT_RDWR);
      ::close(conn->fd);
    }
  }
  {
    std::lock_guard<std::mutex> lock(readers_mu_);
    for (const int fd : reader_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  for (auto& r : readers_) {
    if (r.joinable()) r.join();
  }
  for (const int fd : reader_fds_) ::close(fd);
  std::lock_guard<std::mutex> lock(stats_mu_);
  for (const auto& conn : conns_) {
    if (!conn) continue;
    stats_.queue_high_water = std::max<std::uint64_t>(
        stats_.queue_high_water, conn->queue.high_water());
  }
}

TransportStats TcpPacketNetwork::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  TransportStats out = stats_;
  if (!stopped_) {
    for (const auto& conn : conns_) {
      if (!conn) continue;
      out.queue_high_water = std::max<std::uint64_t>(out.queue_high_water,
                                                     conn->queue.high_water());
    }
  }
  return out;
}

}  // namespace tpart
