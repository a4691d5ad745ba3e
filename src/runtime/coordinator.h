#ifndef TPART_RUNTIME_COORDINATOR_H_
#define TPART_RUNTIME_COORDINATOR_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/stall_timeout.h"
#include "common/status.h"
#include "common/types.h"
#include "runtime/channel.h"
#include "sequencer/batch.h"

namespace tpart {

/// Configuration of the replicated coordinator (DESIGN §4i).
struct CoordinatorOptions {
  /// Standby replicas behind the leader. 0 disables replication entirely
  /// (the coordinator stays a single point of failure, as before).
  std::size_t standbys = 0;
  /// Leader -> standby liveness heartbeat period.
  std::uint64_t heartbeat_interval_us = 1000;
  /// Silence from the leader before a standby's election timer fires.
  std::uint64_t election_timeout_us = 20000;
  /// Randomized pre-claim backoff unit: standby r waits
  /// backoff_base_us * r + jitter(< backoff_base_us) before claiming, so
  /// concurrent timeouts (e.g. under stragglers) rarely duel.
  std::uint64_t backoff_base_us = 2000;
  /// Seed for the per-replica backoff jitter.
  std::uint64_t seed = 1;
};

/// The coordinator replica ensemble: the leader plus `standbys` standby
/// replicas, running as extra transport endpoints [M, M+R) beside the M
/// worker machines. The live streaming coordinator (admission + scheduler
/// + dissemination in cluster.cc) acts through the current leader:
///
///  * every sequenced batch is appended to the replicated request log via
///    LeaderAppend(), which blocks until a majority of the ensemble holds
///    it (kLogAppend / kLogAck(key=0) on the real wire; the link layer
///    delivers exactly once but retries can reorder under faults, so
///    replicas park out-of-order entries until the gap fills);
///  * standbys detect leader death by heartbeat silence past the election
///    timeout, back off by rank + seeded jitter to avoid dueling claims,
///    then broadcast kLeaderClaim carrying their log length. A claim is
///    never refused: every receiver, even a candidate with a longer log,
///    stands down, ships any suffix the claimant is missing and acks with
///    its own log length, and SyncNewLeader() holds the new leader until
///    it has adopted the longest acked log — so the longest committed
///    history wins, as in Zab;
///  * the new leader rebuilds all coordinator state by deterministic
///    replay of the committed log (done by cluster.cc, which also probes
///    per-machine dissemination watermarks through ProbeWatermarks()).
///
/// Modeling note, stated honestly: commits require a true majority, so no
/// committed entry can ever be lost; elections, however, assume the
/// in-process crash-stop fault model (no partitions, no byzantine
/// replicas), so a single standby may claim leadership without assembling
/// an election majority. DESIGN §4i discusses the gap.
class CoordinatorReplicaSet {
 public:
  /// Sends one message from transport endpoint `from` to endpoint `to`.
  using SendFn = std::function<void(MachineId from, MachineId to, Message)>;

  CoordinatorReplicaSet(CoordinatorOptions options, std::size_t num_machines,
                        SendFn send);
  ~CoordinatorReplicaSet();

  std::size_t num_replicas() const { return replicas_.size(); }
  /// Transport endpoint of replica `r`.
  MachineId endpoint(std::size_t r) const {
    return static_cast<MachineId>(num_machines_ + r);
  }

  /// Starts the per-replica pump threads and the heartbeat sender.
  void Start();
  /// Stops every thread. Idempotent; call before tearing the transport
  /// down (pumps and the heartbeat sender send through it).
  void Shutdown();

  /// Delivery sink for replica `r` (wired into the transport's sink
  /// vector by LocalCluster::Reset): one transport delivery's messages,
  /// in send order, appended under one lock. Leaves `msgs` empty.
  void Deliver(std::size_t r, std::vector<Message>& msgs);
  /// One message (tests).
  void Deliver(std::size_t r, Message msg);

  /// Leader-side append of one sequenced batch. Blocks until a majority
  /// of the ensemble (leader included) holds the entry. Returns false if
  /// the leader crash-stopped before the quorum formed — the caller must
  /// treat the batch as never admitted (the next term's replay decides
  /// its fate from the surviving logs). kUnavailable when no quorum forms
  /// within `timeout`; the message names the log index, the term, the
  /// acks received and needed, and the replicas that are down.
  [[nodiscard]] Result<bool> LeaderAppend(
      const TxnBatch& batch,
      std::chrono::microseconds timeout = kStallTimeout);

  /// Crash-stops the current leader: it stops heartbeating, acking, and
  /// pumping. Standbys will detect and elect.
  void CrashLeader();

  /// Blocks until a standby has won an election; returns its index.
  [[nodiscard]] Result<std::size_t> WaitElected(
      std::chrono::microseconds timeout);

  /// Waits until every live replica has acked the new leader's claim and
  /// the leader's log has grown to the longest acked length (so later
  /// appends cannot race the adoption). kUnavailable on timeout.
  [[nodiscard]] Status SyncNewLeader(std::chrono::microseconds timeout);

  /// Rejoins a crashed replica as a standby under the current leader:
  /// truncates any uncommitted divergent tail and ships the committed
  /// suffix it missed while down (over the wire, in log order).
  void RestartReplica(std::size_t r);

  /// Leader-side probe of every worker machine's dissemination watermark
  /// (highest contiguous sink round enqueued). Re-probes periodically —
  /// a machine that is itself mid-recovery answers once rebuilt. Returns
  /// one epoch per machine.
  [[nodiscard]] Result<std::vector<SinkEpoch>> ProbeWatermarks(
      std::chrono::microseconds timeout);

  /// Copy of the current leader's committed log, in order.
  std::vector<TxnBatch> CommittedLog() const;

  /// Zombie-leader revival (DESIGN §4j): replays replica `zombie`'s last
  /// log entry onto the wire as a kLogAppend stamped with `stale_term` —
  /// the message a paused-then-revived deposed leader would send. Every
  /// live replica must reject it by term fencing (fenced_appends()).
  void InjectStaleAppend(std::uint64_t stale_term, std::size_t zombie);

  std::size_t leader() const;
  /// Current election term (starts at 1; each won election increments).
  std::uint64_t term() const;
  /// Stale-term appends / claims rejected by replica-side term fencing.
  std::uint64_t fenced_appends() const;
  std::uint64_t log_appends() const;
  std::uint64_t log_acks() const;
  std::uint64_t committed_batches() const;
  std::uint64_t dueling_claims() const;
  /// Leader crash-stop until the first standby election timer fired.
  std::uint64_t last_detection_us() const;
  /// Election timer firing until the winning claim was broadcast.
  std::uint64_t last_election_us() const;

 private:
  struct Replica {
    Channel inbound;
    std::vector<TxnBatch> log;
    /// Out-of-order appends parked until the log grows to meet them: the
    /// link layer is reliable exactly-once but a dropped packet's retry
    /// can land after its successors. index -> (ack destination, batch).
    std::map<std::uint64_t, std::pair<MachineId, TxnBatch>> pending;
    std::chrono::steady_clock::time_point last_hb;
    bool down = false;
    /// Candidate state: nonzero deadline means an armed pre-claim backoff.
    std::chrono::steady_clock::time_point claim_deadline{};
    bool candidate = false;
    std::thread pump;
  };

  void PumpLoop(std::size_t r);
  void HeartbeatLoop();
  void HandleAppend(std::size_t r, Message msg);
  void HandleAck(std::size_t r, Message msg);
  void HandleClaim(std::size_t r, Message msg);
  void MaybeElect(std::size_t r);
  /// Ships log entries [from, to) of `src`'s log to endpoint `dst_ep`.
  /// Caller must NOT hold mu_ (sends can block on transport
  /// backpressure); entries are copied out under the lock first.
  void ShipLogRange(std::size_t src, MachineId dst_ep, std::size_t from,
                    std::size_t to);

  CoordinatorOptions options_;
  std::size_t num_machines_;
  SendFn send_;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::size_t leader_ = 0;
  std::uint64_t term_ = 1;
  bool shutdown_ = false;

  /// Quorum bookkeeping for in-flight appends: index -> acks received
  /// (leader's own copy counts implicitly).
  std::map<std::uint64_t, std::size_t> append_acks_;
  std::condition_variable commit_cv_;

  /// Election rendezvous with the run loop.
  bool elected_ = false;
  std::size_t elected_leader_ = 0;
  std::condition_variable elected_cv_;
  std::size_t claim_acks_ = 0;
  /// Longest log any claim ack reported; the new leader adopts up to it.
  std::uint64_t claim_ack_len_ = 0;
  std::condition_variable sync_cv_;

  /// Watermark probe rendezvous.
  std::uint64_t probe_round_ = 0;
  std::map<MachineId, SinkEpoch> watermarks_;
  std::condition_variable wm_cv_;

  /// Failover timing (steady clock, recorded at the three protocol
  /// events; accessors return the differences).
  std::chrono::steady_clock::time_point t_crash_{};
  std::chrono::steady_clock::time_point t_timeout_{};
  std::chrono::steady_clock::time_point t_claimed_{};
  bool timeout_recorded_ = false;

  std::uint64_t log_appends_ = 0;
  std::uint64_t log_acks_ = 0;
  std::uint64_t committed_batches_ = 0;
  std::uint64_t dueling_claims_ = 0;
  std::uint64_t fenced_appends_ = 0;
  std::uint64_t hb_seq_ = 0;

  std::thread heartbeat_thread_;
  bool started_ = false;
};

}  // namespace tpart

#endif  // TPART_RUNTIME_COORDINATOR_H_
