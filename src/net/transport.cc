#include "net/transport.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/logging.h"
#include "net/tcp_network.h"
#include "net/wire.h"
#include "obs/trace.h"

namespace tpart {

namespace {

constexpr std::uint8_t kDataPacket = 0;
constexpr std::uint8_t kAckPacket = 1;
/// Batched round frame: same envelope as kDataPacket (from + one seq for
/// the whole batch) but the payload is an EncodeMessageBatch blob. The
/// reliability layer treats the batch as one unit: one ack, one resend.
constexpr std::uint8_t kBatchPacket = 2;
constexpr std::uint8_t kMaxPacketKind = kBatchPacket;

std::string MakeAckPacket(MachineId acker, std::uint64_t seq) {
  std::string out;
  WireWriter w(&out);
  w.PutU8(kAckPacket);
  w.PutVarint(acker);
  w.PutVarint(seq);
  return out;
}

}  // namespace

// ---------------------------------------------------------------------
// DirectTransport
// ---------------------------------------------------------------------

void DirectTransport::Start(std::vector<DeliverFn> deliver) {
  deliver_ = std::move(deliver);
}

void DirectTransport::Send(MachineId from, MachineId to, Message msg) {
  (void)from;
  TPART_CHECK(to < deliver_.size()) << "send to unknown machine " << to;
  messages_.fetch_add(1, std::memory_order_relaxed);
  deliver_[to](std::move(msg));
}

TransportStats DirectTransport::stats() const {
  TransportStats out;
  out.messages_sent = messages_.load(std::memory_order_relaxed);
  out.messages_delivered = out.messages_sent;
  return out;
}

// ---------------------------------------------------------------------
// SerializedTransport
// ---------------------------------------------------------------------

SerializedTransport::SerializedTransport(
    std::unique_ptr<PacketNetwork> network, int retry_timeout_us)
    : network_(std::move(network)),
      retry_timeout_us_(std::max(retry_timeout_us, 100)) {}

void SerializedTransport::Start(std::vector<DeliverFn> deliver) {
  TPART_CHECK(!started_) << "transport started twice";
  started_ = true;
  deliver_ = std::move(deliver);
  n_ = deliver_.size();
  links_.resize(n_ * n_);
  network_->Start(n_, [this](MachineId dst, std::string packet) {
    OnPacket(dst, std::move(packet));
  });
  ack_thread_ = std::thread([this] { AckLoop(); });
  retry_thread_ = std::thread([this] { RetryLoop(); });
}

void SerializedTransport::Send(MachineId from, MachineId to, Message msg) {
  TPART_CHECK(started_ && from < n_ && to < n_)
      << "bad send " << from << "->" << to;
  std::string payload = EncodeMessage(msg);
  TPART_TRACE_SPAN("net_send", "net",
                   {{"from", from}, {"to", to}, {"bytes", payload.size()}});
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.messages_sent;
  }
  if (from == to) {
    // Self-sends skip the network (and the reliability protocol) but
    // still round-trip the encoder, keeping the wire path uniform.
    Result<Message> decoded = DecodeMessage(payload);
    TPART_CHECK(decoded.ok())
        << "self-send decode failed: " << decoded.status().ToString();
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.messages_delivered;
      stats_.bytes_out += payload.size();
      stats_.bytes_in += payload.size();
    }
    deliver_[to](std::move(*decoded));
    return;
  }
  std::string packet;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Link& link = links_[from * n_ + to];
    const std::uint64_t seq = link.next_seq++;
    WireWriter w(&packet);
    w.PutU8(kDataPacket);
    w.PutVarint(from);
    w.PutVarint(seq);
    packet.append(payload);
    const auto now = std::chrono::steady_clock::now();
    link.unacked[seq] = Link::Unacked{packet, now, now};
  }
  network_->Send(from, to, std::move(packet));
}

void SerializedTransport::SendBatch(
    MachineId from, std::vector<std::pair<MachineId, Message>>& msgs) {
  TPART_CHECK(started_ && from < n_) << "bad batch send from " << from;
  // Group per destination, preserving the caller's per-destination order.
  // Per-thread scratch: group vectors keep their capacity across bursts.
  thread_local std::vector<std::vector<Message>> by_dest;
  if (by_dest.size() < n_) by_dest.resize(n_);
  for (auto& g : by_dest) g.clear();
  for (auto& [to, msg] : msgs) {
    TPART_CHECK(to < n_) << "bad batch send " << from << "->" << to;
    by_dest[to].push_back(std::move(msg));
  }
  for (std::size_t to = 0; to < n_; ++to) {
    std::vector<Message>& group = by_dest[to];
    if (group.empty()) continue;
    if (group.size() == 1) {
      // A singleton batch would only add envelope overhead; use the
      // plain path so the wire traffic matches message-level framing.
      Send(from, static_cast<MachineId>(to), std::move(group.front()));
      continue;
    }
    std::string payload = EncodeMessageBatch(group);
    TPART_TRACE_SPAN("net_send_batch", "net",
                     {{"from", from},
                      {"to", to},
                      {"msgs", group.size()},
                      {"bytes", payload.size()}});
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.messages_sent += group.size();
      ++stats_.batches_sent;
      stats_.batched_messages += group.size();
    }
    if (from == to) {
      // Self-sends skip the network but round-trip the batch codec, so
      // the batched wire path is exercised uniformly too.
      Result<std::vector<Message>> decoded = DecodeMessageBatch(payload);
      TPART_CHECK(decoded.ok())
          << "self-send batch decode failed: " << decoded.status().ToString();
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        stats_.messages_delivered += decoded->size();
        stats_.bytes_out += payload.size();
        stats_.bytes_in += payload.size();
      }
      for (Message& m : *decoded) deliver_[to](std::move(m));
      continue;
    }
    // One link sequence number covers the whole batch: the reliability
    // layer acks, dedupes, and retransmits it as a single unit, so the
    // resend-window granularity becomes the round-batch.
    std::string packet;
    {
      std::lock_guard<std::mutex> lock(mu_);
      Link& link = links_[from * n_ + to];
      const std::uint64_t seq = link.next_seq++;
      WireWriter w(&packet);
      w.PutU8(kBatchPacket);
      w.PutVarint(from);
      w.PutVarint(seq);
      packet.append(payload);
      const auto now = std::chrono::steady_clock::now();
      link.unacked[seq] = Link::Unacked{packet, now, now};
    }
    network_->Send(from, static_cast<MachineId>(to), std::move(packet));
  }
}

void SerializedTransport::OnPacket(MachineId dst, std::string packet) {
  WireReader r(packet);
  std::uint8_t kind = 0;
  std::uint64_t src64 = 0;
  std::uint64_t seq = 0;
  TPART_CHECK(r.GetU8(&kind) && kind <= kMaxPacketKind &&
              r.GetVarint(&src64) && r.GetVarint(&seq) && src64 < n_)
      << "malformed packet envelope";
  const auto src = static_cast<MachineId>(src64);

  if (kind == kAckPacket) {
    // `src` is the acker = the data receiver; `dst` is the data sender.
    std::lock_guard<std::mutex> lock(mu_);
    auto& unacked = links_[dst * n_ + src].unacked;
    auto it = unacked.find(seq);
    if (it == unacked.end()) return;
    // Flush() waits on each link's oldest unacked packet.
    const bool oldest = it == unacked.begin();
    unacked.erase(it);
    if (oldest) flush_cv_.notify_all();
    return;
  }

  const std::string_view payload(packet.data() + (packet.size() -
                                                  r.remaining()),
                                 r.remaining());
  Link& link = links_[src * n_ + dst];
  bool duplicate;
  {
    std::lock_guard<std::mutex> lock(mu_);
    duplicate = seq <= link.dedupe_floor ||
                link.delivered_above.count(seq) > 0;
    if (!duplicate) {
      link.delivered_above.insert(seq);
      while (link.delivered_above.count(link.dedupe_floor + 1) > 0) {
        link.delivered_above.erase(++link.dedupe_floor);
      }
    }
  }
  if (duplicate) {
    TPART_TRACE(Instant("dup_dropped", "net",
                        {{"src", src}, {"dst", dst}, {"seq", seq}}));
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.duplicates_dropped;
  } else if (kind == kBatchPacket) {
    TPART_TRACE_SPAN("net_recv_batch", "net",
                     {{"src", src}, {"dst", dst}, {"bytes", payload.size()}});
    Result<std::vector<Message>> msgs = DecodeMessageBatch(payload);
    TPART_CHECK(msgs.ok()) << "batch decode failed for packet " << src << "->"
                           << dst << " seq " << seq << ": "
                           << msgs.status().ToString();
    const std::size_t count = msgs->size();
    for (Message& m : *msgs) deliver_[dst](std::move(m));
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.messages_delivered += count;
  } else {
    TPART_TRACE_SPAN("net_recv", "net",
                     {{"src", src}, {"dst", dst}, {"bytes", payload.size()}});
    Result<Message> msg = DecodeMessage(payload);
    TPART_CHECK(msg.ok()) << "wire decode failed for packet " << src << "->"
                          << dst << " seq " << seq << ": "
                          << msg.status().ToString();
    deliver_[dst](std::move(*msg));
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.messages_delivered;
  }
  // Ack even duplicates: the first ack may itself have been dropped.
  ack_queue_.Send({dst, src, MakeAckPacket(dst, seq)});
}

void SerializedTransport::AckLoop() {
  while (true) {
    auto [from, to, packet] = ack_queue_.Receive();
    if (packet.empty()) return;  // shutdown sentinel
    network_->Send(from, to, std::move(packet));
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.acks_sent;
  }
}

void SerializedTransport::RetryLoop() {
  const auto timeout = std::chrono::microseconds(retry_timeout_us_);
  while (!shutdown_.load()) {
    std::this_thread::sleep_for(timeout / 2);
    std::vector<std::tuple<MachineId, MachineId, std::string>> resend;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto now = std::chrono::steady_clock::now();
      for (std::size_t from = 0; from < n_; ++from) {
        for (std::size_t to = 0; to < n_; ++to) {
          for (auto& [seq, unacked] : links_[from * n_ + to].unacked) {
            if (now - unacked.sent >= timeout) {
              unacked.sent = now;
              resend.emplace_back(static_cast<MachineId>(from),
                                  static_cast<MachineId>(to),
                                  unacked.packet);
            }
          }
        }
      }
    }
    for (auto& [from, to, packet] : resend) {
      if (shutdown_.load()) return;
      TPART_TRACE(Instant("retry", "net", {{"from", from}, {"to", to}}));
      network_->Send(from, to, std::move(packet));
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.retries;
    }
  }
}

Status SerializedTransport::Flush(std::chrono::microseconds timeout) {
  if (!started_) return Status::Ok();
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  bool acked = false;
  {
    // A packet is delivered before it is acked, so the flush is done once
    // every packet already sent on each link is acked. Packets sent after
    // the call, such as a live sender's heartbeats, are not waited for.
    std::unique_lock<std::mutex> lock(mu_);
    std::vector<std::uint64_t> sent_through(links_.size());
    for (std::size_t i = 0; i < links_.size(); ++i) {
      sent_through[i] = links_[i].next_seq - 1;
    }
    acked = flush_cv_.wait_until(lock, deadline, [&] {
      for (std::size_t i = 0; i < links_.size(); ++i) {
        const auto& unacked = links_[i].unacked;
        if (!unacked.empty() && unacked.begin()->first <= sent_through[i]) {
          return false;
        }
      }
      return true;
    });
  }
  if (acked) return Status::Ok();
  return Status::Unavailable("transport flush timed out: " +
                             LinkDiagnostic());
}

void SerializedTransport::Stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  shutdown_.store(true);
  if (retry_thread_.joinable()) retry_thread_.join();
  ack_queue_.Send({0, 0, std::string()});
  if (ack_thread_.joinable()) ack_thread_.join();
  network_->Stop();
}

TransportStats SerializedTransport::stats() const {
  TransportStats out = network_->stats();
  std::lock_guard<std::mutex> lock(stats_mu_);
  out.MergeFrom(stats_);
  return out;
}

void SerializedTransport::AdvanceFaultEpoch(std::uint64_t epoch) {
  network_->SetEpoch(epoch);
}

std::string SerializedTransport::LinkDiagnostic() const {
  std::ostringstream out;
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t unacked_total = 0;
  for (const Link& link : links_) unacked_total += link.unacked.size();
  out << "unacked_total=" << unacked_total;
  for (std::size_t from = 0; from < n_; ++from) {
    for (std::size_t to = 0; to < n_; ++to) {
      const Link& link = links_[from * n_ + to];
      if (link.unacked.empty()) continue;
      // Retries refresh `sent`; the first send dates how long the
      // oldest packet has gone unacked.
      const auto oldest_us =
          std::chrono::duration_cast<std::chrono::microseconds>(
              now - link.unacked.begin()->second.first_sent)
              .count();
      out << " link[" << from << "->" << to
          << "]: backlog=" << link.unacked.size()
          << " oldest_unacked_us=" << oldest_us;
    }
  }
  return out.str();
}

// ---------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------

std::unique_ptr<Transport> MakeTransport(const TransportOptions& options) {
  TransportKind kind = options.kind;
  if (kind == TransportKind::kDirect && options.faults.Any()) {
    kind = TransportKind::kInProcess;  // faults act on wire packets
  }
  if (kind == TransportKind::kDirect) {
    return std::make_unique<DirectTransport>();
  }
  std::unique_ptr<PacketNetwork> network;
  if (kind == TransportKind::kTcp) {
    network = std::make_unique<TcpPacketNetwork>(options.queue_capacity);
  } else {
    network = std::make_unique<InProcessPacketNetwork>(options.queue_capacity);
  }
  if (options.faults.Any()) {
    network = std::make_unique<FaultyPacketNetwork>(std::move(network),
                                                    options.faults);
  }
  return std::make_unique<SerializedTransport>(std::move(network),
                                               options.retry_timeout_us);
}

}  // namespace tpart
