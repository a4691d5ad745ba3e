#include "net/transport.h"

#include <algorithm>
#include <sstream>
#include <tuple>
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

/// Hands `msg` to `deliver` as a one-message batch. The vector is per-
/// thread scratch, so a single send allocates nothing once warm; a sink
/// never sends, so no call nests inside another on the same thread.
void DeliverOne(const Transport::DeliverFn& deliver, Message msg) {
  thread_local std::vector<Message> one;
  one.push_back(std::move(msg));
  deliver(one);
  one.clear();
}

/// Groups a SendBatch burst by destination, keeping each destination's
/// messages in send order, and calls `ship(to, group)` once per
/// destination that has any, in machine order. The groups are per-thread
/// scratch that keep their capacity across bursts; `ship` may move the
/// messages out or swap the group's buffer, and the group is cleared
/// after it returns.
template <typename Ship>
void ForEachDestination(std::size_t n, MachineId from,
                        std::vector<std::pair<MachineId, Message>>& msgs,
                        Ship&& ship) {
  thread_local std::vector<std::vector<Message>> by_dest;
  if (by_dest.size() < n) by_dest.resize(n);
  for (auto& [to, msg] : msgs) {
    TPART_CHECK(to < n) << "bad batch send " << from << "->" << to;
    by_dest[to].push_back(std::move(msg));
  }
  for (std::size_t to = 0; to < n; ++to) {
    std::vector<Message>& group = by_dest[to];
    if (group.empty()) continue;
    ship(static_cast<MachineId>(to), group);
    group.clear();
  }
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
  DeliverOne(deliver_[to], std::move(msg));
}

void DirectTransport::SendBatch(
    MachineId from, std::vector<std::pair<MachineId, Message>>& msgs) {
  ForEachDestination(
      deliver_.size(), from, msgs,
      [this](MachineId to, std::vector<Message>& group) {
        messages_.fetch_add(group.size(), std::memory_order_relaxed);
        if (group.size() > 1) {
          batches_.fetch_add(1, std::memory_order_relaxed);
          batched_messages_.fetch_add(group.size(),
                                      std::memory_order_relaxed);
        }
        deliver_[to](group);
      });
}

TransportStats DirectTransport::stats() const {
  TransportStats out;
  out.messages_sent = messages_.load(std::memory_order_relaxed);
  out.messages_delivered = out.messages_sent;
  out.batches_sent = batches_.load(std::memory_order_relaxed);
  out.batched_messages = batched_messages_.load(std::memory_order_relaxed);
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
  retry_thread_ = std::thread([this] { RetryLoop(); });
}

void SerializedTransport::Send(MachineId from, MachineId to, Message msg) {
  TPART_CHECK(started_ && from < n_ && to < n_)
      << "bad send " << from << "->" << to;
  std::string payload = EncodeMessage(msg);
  TPART_TRACE_SPAN("net_send", "net",
                   {{"from", from}, {"to", to}, {"bytes", payload.size()}});
  counters_.messages_sent.fetch_add(1, std::memory_order_relaxed);
  if (from == to) {
    // Self-sends skip the network (and the reliability protocol) but
    // still round-trip the encoder, keeping the wire path uniform.
    Result<Message> decoded = DecodeMessage(payload);
    TPART_CHECK(decoded.ok())
        << "self-send decode failed: " << decoded.status().ToString();
    counters_.messages_delivered.fetch_add(1, std::memory_order_relaxed);
    counters_.self_bytes.fetch_add(payload.size(), std::memory_order_relaxed);
    DeliverOne(deliver_[to], std::move(*decoded));
    return;
  }
  SendPacket(from, to, kDataPacket, payload);
}

void SerializedTransport::SendBatch(
    MachineId from, std::vector<std::pair<MachineId, Message>>& msgs) {
  TPART_CHECK(started_ && from < n_) << "bad batch send from " << from;
  ForEachDestination(n_, from, msgs, [&](MachineId to,
                                         std::vector<Message>& group) {
    if (group.size() == 1) {
      // A singleton batch would only add envelope overhead; use the
      // plain path so the wire traffic matches message-level framing.
      Send(from, to, std::move(group.front()));
      return;
    }
    std::string payload = EncodeMessageBatch(group);
    TPART_TRACE_SPAN("net_send_batch", "net",
                     {{"from", from},
                      {"to", to},
                      {"msgs", group.size()},
                      {"bytes", payload.size()}});
    counters_.messages_sent.fetch_add(group.size(),
                                      std::memory_order_relaxed);
    counters_.batches_sent.fetch_add(1, std::memory_order_relaxed);
    counters_.batched_messages.fetch_add(group.size(),
                                         std::memory_order_relaxed);
    if (from == to) {
      // Self-sends skip the network but round-trip the batch codec, so
      // the batched wire path is exercised uniformly too.
      Result<std::vector<Message>> decoded = DecodeMessageBatch(payload);
      TPART_CHECK(decoded.ok())
          << "self-send batch decode failed: " << decoded.status().ToString();
      counters_.messages_delivered.fetch_add(decoded->size(),
                                             std::memory_order_relaxed);
      counters_.self_bytes.fetch_add(payload.size(),
                                     std::memory_order_relaxed);
      deliver_[to](*decoded);
      return;
    }
    // One link sequence number covers the whole batch: the reliability
    // layer acks, dedupes, and retransmits it as a single unit, so the
    // resend-window granularity becomes the round-batch.
    SendPacket(from, to, kBatchPacket, payload);
  });
}

void SerializedTransport::SendPacket(MachineId from, MachineId to,
                                     std::uint8_t kind,
                                     std::string_view payload) {
  std::string packet;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Link& link = links_[from * n_ + to];
    const std::uint64_t seq = link.next_seq++;
    WireWriter w(&packet);
    w.PutU8(kind);
    w.PutVarint(from);
    w.PutVarint(seq);
    packet.append(payload);
    const auto now = std::chrono::steady_clock::now();
    link.unacked[seq] = Link::Unacked{packet, now, now};
  }
  network_->Send(from, to, std::move(packet));
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
    Link& link = links_[dst * n_ + src];
    auto it = link.unacked.find(seq);
    if (it == link.unacked.end()) return;
    const Link::Unacked& packet = it->second;
    if (packet.sent == packet.first_sent) {
      link.SampleRtt(std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - packet.first_sent));
    }
    // Flush() waits on each link's oldest unacked packet.
    const bool oldest = it == link.unacked.begin();
    link.unacked.erase(it);
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
    counters_.duplicates_dropped.fetch_add(1, std::memory_order_relaxed);
  } else if (kind == kBatchPacket) {
    TPART_TRACE_SPAN("net_recv_batch", "net",
                     {{"src", src}, {"dst", dst}, {"bytes", payload.size()}});
    Result<std::vector<Message>> msgs = DecodeMessageBatch(payload);
    TPART_CHECK(msgs.ok()) << "batch decode failed for packet " << src << "->"
                           << dst << " seq " << seq << ": "
                           << msgs.status().ToString();
    const std::size_t count = msgs->size();
    deliver_[dst](*msgs);
    counters_.messages_delivered.fetch_add(count, std::memory_order_relaxed);
  } else {
    TPART_TRACE_SPAN("net_recv", "net",
                     {{"src", src}, {"dst", dst}, {"bytes", payload.size()}});
    Result<Message> msg = DecodeMessage(payload);
    TPART_CHECK(msg.ok()) << "wire decode failed for packet " << src << "->"
                          << dst << " seq " << seq << ": "
                          << msg.status().ToString();
    DeliverOne(deliver_[dst], std::move(*msg));
    counters_.messages_delivered.fetch_add(1, std::memory_order_relaxed);
  }
  // Ack even duplicates: the first ack may itself have been dropped. No
  // network send blocks, so acking from here cannot deadlock two
  // machines acking each other.
  network_->Send(dst, src, MakeAckPacket(dst, seq));
  counters_.acks_sent.fetch_add(1, std::memory_order_relaxed);
}

void SerializedTransport::Link::SampleRtt(std::chrono::microseconds rtt) {
  if (srtt.count() == 0) {
    srtt = rtt;
    rttvar = rtt / 2;
    return;
  }
  const std::chrono::microseconds err = srtt > rtt ? srtt - rtt : rtt - srtt;
  rttvar = (3 * rttvar + err) / 4;
  srtt = (7 * srtt + rtt) / 8;
}

void SerializedTransport::RetryLoop() {
  const auto floor = std::chrono::microseconds(retry_timeout_us_);
  while (!shutdown_.load()) {
    std::this_thread::sleep_for(floor / 2);
    std::vector<std::tuple<MachineId, MachineId, std::string>> resend;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto now = std::chrono::steady_clock::now();
      for (std::size_t from = 0; from < n_; ++from) {
        for (std::size_t to = 0; to < n_; ++to) {
          Link& link = links_[from * n_ + to];
          const auto timeout = link.RetryTimeout(floor);
          for (auto& [seq, unacked] : link.unacked) {
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
      counters_.retries.fetch_add(1, std::memory_order_relaxed);
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
  network_->Stop();
}

TransportStats SerializedTransport::stats() const {
  TransportStats own;
  const auto get = [](const std::atomic<std::uint64_t>& c) {
    return c.load(std::memory_order_relaxed);
  };
  own.messages_sent = get(counters_.messages_sent);
  own.messages_delivered = get(counters_.messages_delivered);
  own.batches_sent = get(counters_.batches_sent);
  own.batched_messages = get(counters_.batched_messages);
  own.bytes_out = get(counters_.self_bytes);
  own.bytes_in = own.bytes_out;
  own.acks_sent = get(counters_.acks_sent);
  own.retries = get(counters_.retries);
  own.duplicates_dropped = get(counters_.duplicates_dropped);
  TransportStats out = network_->stats();
  out.MergeFrom(own);
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
    network = std::make_unique<TcpPacketNetwork>();
  } else {
    network = std::make_unique<InProcessPacketNetwork>();
  }
  if (options.faults.Any()) {
    network = std::make_unique<FaultyPacketNetwork>(std::move(network),
                                                    options.faults);
  }
  return std::make_unique<SerializedTransport>(std::move(network),
                                               options.retry_timeout_us);
}

}  // namespace tpart
