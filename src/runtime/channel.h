#ifndef TPART_RUNTIME_CHANNEL_H_
#define TPART_RUNTIME_CHANNEL_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

#include <string>

#include "common/status.h"
#include "common/types.h"
#include "storage/record.h"
#include "txn/txn.h"

namespace tpart {

/// Inter-machine message. One variant struct keeps the wire format
/// explicit and cheap to log for recovery (§5.4); net/wire.h defines the
/// binary serialization used by the real transports.
struct Message {
  enum class Type {
    /// Forward-push of a version entry <key, version, dst_txn> (§3.4).
    kPushVersion,
    /// Remote cache pull request for epoch entry <key, version>.
    kCacheReadReq,
    kCacheReadResp,
    /// Remote storage read of the version tagged `version`.
    kStorageReadReq,
    kStorageReadResp,
    /// Apply a write-back at the record's home (§5.4: the home network-
    /// logs it, so a recovery replays it on top of the checkpoint).
    kWriteBackApply,
    /// Calvin peer-push of local read results for one transaction (§2.1).
    kPeerReads,
    /// Streaming dissemination (§3.3/§5.2): one machine's slice of a
    /// sinking round — its push plans (`plan_bytes` = EncodeSinkPlan
    /// output) plus their specs. Every machine receives a slice of every
    /// round, empty when it runs none of the round's transactions.
    kSinkPlan,
    /// Streaming dissemination: no more plans will arrive; `epoch` carries
    /// the last emitted sinking round (0 when the stream was empty).
    kPlanStreamEnd,
    /// Failure-detector probe: the watchdog stamps a monotonically
    /// increasing sequence number in `req_id`; a live machine's service
    /// thread records it (Machine::heartbeat_seen). A crashed machine
    /// drops probes, so its recorded sequence stalls — that stall, held
    /// past the deadline, is the failure signal.
    kHeartbeat,
    /// Elastic membership (src/elastic): control plane -> source machine,
    /// at a quiesced sink-epoch barrier. `plan_bytes` lists the moved
    /// keys, `dst_txn` the target machine, `req_id` the migration stream
    /// id, `epoch` the cut epoch. The source captures the keys' partition
    /// image, ships it to the target, and drops the keys locally.
    kMigrateBegin,
    /// One chunk of an encoded PartitionImage: `plan_bytes` the chunk,
    /// `epoch` the chunk index, `txn` the total chunk count, `req_id` the
    /// stream id. The target dedupes by (stream, chunk index), so
    /// transport-level duplicates deliver exactly once.
    kPartitionImage,
    /// End of a migration stream: `key` carries the FNV checksum of the
    /// whole encoded image, `txn` the chunk count, `version` the number of
    /// key entries. The target verifies and installs atomically.
    kMigrateCommit,
    /// Local-only service fence (Machine::FenceService): posted directly
    /// into a machine's inbound queue; when dispatched, every message
    /// delivered before it has been applied. A non-zero `epoch` is a
    /// capture epoch: posted at the migration cut's quiescent epoch
    /// boundary, the machine's loop captures its checkpoint on dispatch.
    /// `req_id` 0 fences nobody: it only wakes the loop (a failed run's
    /// drain, a Recover() request). Never crosses the wire.
    kServiceFence,
    /// Coordinator replication (§2.1 Zab, DESIGN §4i): leader -> standby
    /// replication of one sequenced batch. `req_id` is the log index,
    /// `txn` the batch id, `epoch` the leader's term, `specs` the batch's
    /// transactions (ids already assigned by the sequencer).
    kLogAppend,
    /// Coordinator replication ack, multiplexed by `key`:
    ///   0 = append ack (standby -> leader; `req_id` echoes the log index),
    ///   1 = claim ack  (replica -> new leader; `req_id` = replica log len),
    ///   2 = watermark  (machine -> leader; `epoch` = highest contiguous
    ///       sink round enqueued by that machine, `req_id` echoes probe).
    kLogAck,
    /// Leadership claim / watermark probe. Replica -> replica: `txn` is the
    /// claimant replica index, `req_id` its committed-log length, `epoch`
    /// the new term. Never refused: each receiver ships the suffix the
    /// claimant lacks and acks with its own log length.
    /// Leader -> machine (`reply_to` set): a watermark probe; the machine
    /// answers with a kLogAck(key=2) to `reply_to`.
    kLeaderClaim,
    /// Stop the service loop. Must stay the last enumerator: the wire
    /// decoder rejects any type byte beyond it (net/wire.cc).
    kShutdown,
  };

  Type type = Type::kShutdown;
  ObjectKey key = 0;
  TxnId version = kInvalidTxnId;
  /// kWriteBackApply: storage version the write-back replaces.
  TxnId replaces = kInvalidTxnId;
  TxnId dst_txn = kInvalidTxnId;
  Record value;
  bool invalidate = false;
  std::uint32_t total_reads = 0;
  std::uint32_t awaits = 0;
  bool sticky = false;
  SinkEpoch epoch = 0;
  MachineId reply_to = kInvalidMachine;
  std::uint64_t req_id = 0;
  TxnId txn = kInvalidTxnId;
  std::vector<std::pair<ObjectKey, Record>> kvs;
  /// kSinkPlan: the destination's slice of the round, already wire-encoded
  /// (EncodeSinkPlan) so each plan is serialized once.
  std::string plan_bytes;
  /// kSinkPlan: specs of the slice's transactions, in plan order.
  std::vector<TxnSpec> specs;
  /// Per-transaction causal-timeline context (obs/trace_context.h packs
  /// it): sampled-txn flag + origin machine + coordinator term, riding
  /// every frame so the receiving side can stitch cross-machine async
  /// spans without global state. 0 = no context (1 varint byte on the
  /// wire).
  std::uint64_t trace_ctx = 0;
  /// Coordinator-term fence: the term of the leader that issued this
  /// plan/round/migration control message. Machines and standbys track
  /// the highest term seen and reject control traffic from lower terms
  /// — a revived "zombie" ex-leader cannot corrupt the stream with its
  /// stale in-flight plans. 0 = unfenced (data-plane traffic and legacy
  /// frames; 1 varint byte on the wire).
  std::uint64_t term = 0;
  /// Recovery re-delivery marker: set on messages re-injected from the
  /// network log or a checkpoint image during Machine::Recover(), so they
  /// are not logged a second time. Local-only (never wire-encoded, not
  /// part of equality).
  bool redelivery = false;
};

/// Field-wise equality (wire round-trip tests, transport verification).
bool operator==(const Message& a, const Message& b);

/// Rough in-memory footprint of a message, for log/window byte
/// accounting (not the wire size).
std::size_t ApproxMessageBytes(const Message& m);

/// MPSC blocking queue: the byte-packet conveyors of the serialized
/// transports (net/packet_network.h, net/tcp_network.h), their ack queue,
/// and the pipeline's stage queues. A capacity of 0 means unbounded; a
/// bounded queue blocks senders when full, which is how the transports
/// exert backpressure.
template <typename T>
class BlockingQueue {
 public:
  explicit BlockingQueue(std::size_t capacity = 0) : capacity_(capacity) {}

  /// Enqueues `msg`; blocks while a bounded queue is at capacity.
  /// Returns true when the send had to wait (a backpressure event).
  bool Send(T msg) {
    bool waited = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (capacity_ > 0 && queue_.size() >= capacity_) {
        waited = true;
        space_cv_.wait(lock, [&] { return queue_.size() < capacity_; });
      }
      queue_.push_back(std::move(msg));
      if (queue_.size() > high_water_) high_water_ = queue_.size();
    }
    cv_.notify_one();
    return waited;
  }

  /// Blocks for the next message.
  T Receive() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return !queue_.empty(); });
    T msg = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    space_cv_.notify_one();
    return msg;
  }

  /// Deadline-aware variant: waits at most `timeout` for a message and
  /// returns kUnavailable on expiry, so a dead producer surfaces as a
  /// reported error instead of a hang. The deadline is computed once up
  /// front and every re-wait targets the *remaining* time — a stream of
  /// spurious wakeups (or stolen wakeups under heavy fan-in) cannot
  /// stretch the total wait past the requested timeout.
  [[nodiscard]] Result<T> ReceiveFor(std::chrono::microseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    if (!cv_.wait_until(lock, deadline, [&] { return !queue_.empty(); })) {
      return Status::Unavailable("channel receive timed out");
    }
    T msg = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    space_cv_.notify_one();
    return msg;
  }

  /// Largest queue depth ever observed.
  std::size_t high_water() const {
    std::lock_guard<std::mutex> lock(mu_);
    return high_water_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable space_cv_;
  std::deque<T> queue_;
  std::size_t capacity_;
  std::size_t high_water_ = 0;
};

/// The inbox of a machine or a coordinator replica: many producers (peer
/// loops under the direct transport, network receivers, the control
/// plane, the owner's own self-sends) and one consumer loop that takes
/// everything pending at once. Producers append under one mutex and
/// notify only a consumer that waits; the consumer swaps the pending
/// vector for its emptied batch, so it locks once per batch, and the two
/// vectors trade buffers instead of allocating. (BlockingQueue's deque
/// would put each Message in a heap node and lock once per message.)
/// Unbounded: the direct transport delivers synchronously from peer
/// loops, so an inbox that blocked its producers could deadlock a cycle
/// of full machines. FIFO in delivery order.
class Channel {
 public:
  using Clock = std::chrono::steady_clock;

  /// Appends `msg`; never blocks.
  void Send(Message msg);
  /// Moves every pending message, oldest first, into the empty `out`;
  /// false when nothing was pending.
  bool TakeAll(std::vector<Message>& out);
  /// TakeAll that first waits for a message until `deadline` (max():
  /// no deadline); false when the deadline passed with nothing pending.
  bool WaitTakeAll(std::vector<Message>& out,
                   Clock::time_point deadline = Clock::time_point::max());
  /// Messages delivered but not yet taken.
  std::size_t size() const;
  /// Most messages ever delivered but not yet taken.
  std::size_t high_water() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Message> pending_;
  bool waiting_ = false;
  std::size_t high_water_ = 0;
};

}  // namespace tpart

#endif  // TPART_RUNTIME_CHANNEL_H_
