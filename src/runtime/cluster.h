#ifndef TPART_RUNTIME_CLUSTER_H_
#define TPART_RUNTIME_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "elastic/elastic_map.h"
#include "metrics/run_stats.h"
#include "net/transport.h"
#include "runtime/coordinator.h"
#include "runtime/machine.h"
#include "runtime/machine_checkpoint.h"
#include "scheduler/tpart_scheduler.h"
#include "sequencer/sequencer.h"
#include "storage/partitioned_store.h"
#include "workload/workload.h"

namespace tpart {

namespace obs {
class LiveSampler;
}  // namespace obs

/// Stage bounds for the RunTPart pipeline: admission → scheduler →
/// dissemination → execution run as concurrent stages connected by
/// bounded queues, so a full stage backpressures its upstream instead of
/// buffering without limit.
struct PipelineOptions {
  /// Admission-stage batching (batch size, dummy padding §3.3).
  Sequencer::Options sequencer;
  /// Ordered batches buffered between admission and the scheduler.
  std::size_t batch_queue_capacity = 4;
  /// Sunk plans buffered between the scheduler and dissemination.
  std::size_t plan_queue_capacity = 4;
  /// Sinking rounds in flight per machine: disseminated but not fully
  /// executed; at least 1. Dissemination blocks past this, which is how
  /// slow machines throttle the scheduler.
  std::size_t epoch_queue_capacity = 4;
};

/// Options for a threaded in-process cluster run.
struct LocalClusterOptions {
  TPartScheduler::Options scheduler;
  /// Which wire substrate carries inter-machine messages: the direct
  /// in-memory path (default), serialized in-process queues, or loopback
  /// TCP — optionally with seeded fault injection (net/transport.h).
  /// Results must be identical over every transport; the transport tests
  /// assert exactly this.
  TransportOptions transport;
  /// Ignored: RunTPart always streams. Kept only so existing callers that
  /// assign it still compile; it will be removed.
  bool streaming = true;
  PipelineOptions pipeline;

  /// One deterministic crash-stop: which machine dies and when. A
  /// schedule may carry several of these (the chaos matrix); each fires
  /// after the previous victim has recovered, so at most one machine is
  /// down at a time.
  struct CrashEvent {
    MachineId machine = kInvalidMachine;
    /// Crash once sinking round `at_epoch` fully executes at `machine`
    /// (the first round it drains at or past this number).
    SinkEpoch at_epoch = 0;
    /// Alternative trigger: crash after this many executed plans,
    /// possibly mid-round. At most one trigger per event.
    std::uint64_t after_txns = 0;
    /// Third trigger: crash before the machine runs anything at all
    /// (the epoch-0 edge — no sinking round has drained yet).
    bool at_start = false;
    bool operator==(const CrashEvent&) const = default;
  };

  /// Deterministic crash injection: each scheduled machine crash-stops —
  /// no goodbyes, in-flight traffic dropped — at its chosen point, and
  /// the run either recovers it in place (§5.4 local replay from
  /// checkpoint + request/network logs) or merely detects the failure
  /// and reports it. Same seed + same schedule reproduces the same
  /// crashes, replays, and final state.
  struct CrashSchedule {
    /// Worker crashes in firing order. The same machine may appear again
    /// — a repeat crash after its own recovery.
    std::vector<CrashEvent> events;
    /// Coordinator (leader) crash-stops, one per entry, fired after the
    /// first shipped round with epoch >= the entry (in order). Requires
    /// coordinator.standbys >= 1; composes freely with the worker events
    /// above. enabled() stays worker-only — a coordinator-only schedule
    /// does not arm worker crash machinery.
    std::vector<SinkEpoch> coordinator_at;
    /// Zombie-leader revival, paired index-wise with coordinator_at:
    /// entry i > 0 means the leader crashed by coordinator_at[i] was
    /// only *paused* and comes back once the new term's stream reaches
    /// epoch >= the entry: its stale in-flight round, a stale
    /// plan-stream-end, and a stale log append are replayed onto the
    /// wire, all carrying the old term. End-to-end term fencing must
    /// reject every one of them (FailoverStats::fenced_*) and the run
    /// must stay byte-identical to fault-free. 0 (or a missing entry) =
    /// plain crash-stop, the pre-revival behaviour. CLI syntax:
    /// --crash seq@E+revive@E'.
    std::vector<SinkEpoch> coordinator_revive_at;
    /// Recover in-run when true; detect-and-report only when false.
    /// Applies to every event in the schedule.
    bool recover = true;
    bool enabled() const { return !events.empty(); }
  };
  CrashSchedule crash;

  /// Deterministic slowness injection: the chosen machine delays its
  /// heartbeat handling by `delay_us` once per `period_us`. A straggler
  /// is slow, not dead — the failure detector must NOT declare it failed
  /// (the delay stays under the deadline).
  struct StragglerSchedule {
    MachineId machine = kInvalidMachine;
    std::uint64_t delay_us = 0;
    std::uint64_t period_us = 0;
    bool enabled() const { return machine != kInvalidMachine && delay_us > 0; }
  };
  StragglerSchedule straggler;

  /// Periodic incremental checkpointing: every machine captures a
  /// MachineCheckpoint at the first drained epoch boundary at or past
  /// each multiple of this, then truncates its §5.4 logs; the cluster
  /// prunes the resend window up to the minimum checkpointed epoch
  /// across machines. Recovery then replays only the
  /// suffix since the victim's last checkpoint, and log memory plateaus
  /// instead of growing with run length. 0 = load-time checkpoint only
  /// (the seed behaviour).
  SinkEpoch checkpoint_every = 0;

  /// One elastic-membership change: after sinking round `at_epoch` fully
  /// executes everywhere, the active machine set grows (delta > 0) or
  /// shrinks (delta < 0) by |delta| machines and the keys whose home
  /// changes migrate over the wire before round at_epoch + 1 ships.
  struct ResizeEvent {
    SinkEpoch at_epoch = 0;
    int delta = 0;
  };

  /// Elastic membership: machine slots for the maximum membership are
  /// allocated up front; each event only changes where keys are homed
  /// and ships the moved partition state at a quiesced sink-epoch
  /// barrier (the barrier quiesces via epoch credits). Results stay
  /// byte-identical to a fixed-membership run of the same workload.
  struct ResizeSchedule {
    /// Events in firing order; cut epochs strictly increasing, >= 1.
    std::vector<ResizeEvent> events;
    /// How moved keys are chosen (rehash, or Lion-style hot-key pinning
    /// from scheduler-observed access frequencies).
    MigrationPolicy policy = MigrationPolicy::kRehash;
    /// Hot keys pinned per step (kHotKey only).
    std::size_t hot_keys = 64;
    bool enabled() const { return !events.empty(); }
  };
  ResizeSchedule resize;

  /// Transport-level heartbeat failure detection. Enabled implicitly by
  /// an armed crash schedule; enable explicitly to watchdog healthy runs.
  struct FailureDetectorOptions {
    bool enabled = false;
    /// Probe period; the watchdog stamps each kHeartbeat with a rising
    /// sequence number.
    std::uint64_t heartbeat_interval_us = 1000;
    /// Deadline floor: a machine is declared failed once its recorded
    /// heartbeat sequence stalls longer than this AND its phi-accrual
    /// suspicion level crosses the threshold (DESIGN §4j;
    /// PhiAccrualDetector's default options). Suspicion is learned from
    /// each machine's observed heartbeat inter-arrivals, so stragglers
    /// and gray-failure slow links — slow but alive — never trigger a
    /// false-positive recovery, while a true crash-stop's unbounded
    /// silence crosses any threshold.
    std::uint64_t deadline_us = 100000;
  };
  FailureDetectorOptions detector;

  /// Coordinator replication (DESIGN §4i): with standbys >= 1 the
  /// coordinator runs as a leader replica whose sequenced
  /// batches are quorum-committed to standby replicas before entering
  /// the pipeline, and a scheduled coordinator crash fails over to a
  /// standby that rebuilds all scheduler state by deterministic replay.
  CoordinatorOptions coordinator;

  /// Record the §5.4 per-machine request/network logs (required for
  /// crash recovery; disable to keep long runs' memory strictly bounded).
  bool record_recovery_logs = true;

  /// Record the per-round dissemination timeline in the outcome (one
  /// entry per sinking round — implied by an armed resize schedule; the
  /// elasticity bench derives throughput-dip depth and reconvergence
  /// from the inter-round gaps).
  bool record_epoch_timeline = false;

  /// Live observability plane (DESIGN §4f). When `live_sampler` is set,
  /// the run installs a source over the pipeline's hot-path
  /// counters — admitted/planned/committed, T-graph size, distributed-txn
  /// ratio, per-machine inbound and in-flight depths, the coordinator
  /// term, and the scheduler's hottest key — and drives the sampler every
  /// `sample_every_us` of wall time for the duration of the run. The
  /// caller owns the sampler and reads or streams its snapshots
  /// (obs/live_sampler.h); sampling reads relaxed counters only and never
  /// blocks the pipeline.
  obs::LiveSampler* live_sampler = nullptr;
  std::uint64_t sample_every_us = 10'000;

  /// Causal-timeline sampling stride (--txn-sample=1/N): transactions
  /// with id % N == 0 emit async trace events at admission, round
  /// receipt, execution, and commit, stitched into one end-to-end span
  /// per transaction across machines and coordinator terms. Sink-plan
  /// messages carry a packed trace context (obs/trace_context.h) on the
  /// wire so receive-side markers know the origin term. 0 = off.
  std::uint64_t txn_sample = 0;

  LocalClusterOptions() {
    // Procedures in the runtime can abort, so transactions must read the
    // objects they write (§5.3).
    scheduler.graph.read_own_writes = true;
  }
};

/// Outcome of a cluster run: per-transaction results in total order, plus
/// commit/abort counts and the transport's traffic counters.
struct ClusterRunOutcome {
  std::vector<TxnResult> results;
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  TransportStats transport;
  /// Pipeline stage counters (zero for RunCalvin).
  PipelineStats pipeline;
  /// Non-OK when the failure detector declared a machine dead with no
  /// recovery configured, or a dissemination wait timed out after
  /// kStallTimeout; the run still drains (results are then meaningless).
  Status fault;
  /// Crash-injection counters (crashes_injected stays 0 otherwise).
  /// With a multi-crash schedule the count fields accumulate across
  /// crashes; machine/epoch/detection reflect the last one handled.
  RecoveryStats recovery;
  /// Coordinator replication/failover counters (all zero unless
  /// coordinator.standbys > 0).
  FailoverStats failover;
  /// Periodic-checkpointing counters (checkpoints_taken stays 0 unless
  /// checkpoint_every was set).
  CheckpointStats checkpoint;
  /// Elastic-membership counters (membership_steps stays 0 unless a
  /// resize schedule was armed).
  MigrationStats migration;
  /// Dissemination timeline (resize runs or record_epoch_timeline):
  /// microseconds since the stream started at which each sinking round
  /// finished shipping. A migration barrier shows up as a widened gap
  /// around its cut epoch.
  struct EpochTick {
    SinkEpoch epoch = 0;
    std::uint64_t us_since_start = 0;
  };
  std::vector<EpochTick> timeline;
};

/// Fills `options` with a seeded chaos schedule over `num_machines`
/// machines and roughly `span_epochs` sinking rounds: two sequential
/// crashes of distinct machines, a repeat crash of the first victim
/// after its own recovery, and (with >= 3 machines) a straggler that
/// delays heartbeat handling without ever breaching the detector
/// deadline. All crashes recover in place. With `extended` the schedule
/// additionally draws (after every base draw, so base schedules stay
/// seed-stable) a symmetric link-partition window, a gray-failure slow
/// link, and — when a coordinator crash is armed — converts it into a
/// zombie pause+revive. Returns a human-readable description of the
/// schedule; the same seed always produces the same schedule.
std::string ApplySeededChaos(std::uint64_t seed, std::size_t num_machines,
                             SinkEpoch span_epochs,
                             LocalClusterOptions& options,
                             bool extended = false);

/// A multi-machine deterministic database in one process: N Machines
/// (each one partition-owning loop thread) wired by in-memory
/// channels. Supports both execution engines over the same workload:
///  * RunCalvin() — the §2.1 baseline (peer-pushing, every participant
///    executes);
///  * RunTPart() — the paper's engine (one executor per transaction,
///    T-graph-partitioned, forward-pushing).
/// Both must produce identical results and identical final database state
/// as the serial reference — the integration tests assert exactly this.
class LocalCluster {
 public:
  LocalCluster(const Workload* workload, LocalClusterOptions options);
  ~LocalCluster();

  /// Rebuilds stores (reloading initial data) and machines.
  void Reset();

  /// Runs the paper's §3.1 layering as a stream: requests are admitted
  /// incrementally through a Sequencer, scheduled on a dedicated thread,
  /// and each sunk round ships the moment it exists, as one kSinkPlan
  /// slice per machine holding only that machine's plans. Memory stays
  /// bounded by the `pipeline` caps; each machine runs one loop thread.
  ClusterRunOutcome RunTPart();
  ClusterRunOutcome RunCalvin();

  PartitionedStore& store() { return *store_; }
  Machine& machine(MachineId m) { return *machines_.at(m); }
  std::size_t num_machines() const { return machines_.size(); }

  /// The epoch-versioned key -> machine map of a resize run, or nullptr
  /// when no resize schedule is armed. For tests inspecting placement.
  const ElasticPartitionMap* elastic_map() const { return elastic_.get(); }

  /// Machine m's checkpoint image (records + volatile state + logs
  /// truncation point), or nullptr when the run keeps none (no crash
  /// schedule and no checkpoint_every). For recovery inspection and the
  /// offline checkpoint-suffix replay tests.
  MachineCheckpoint* checkpoint(MachineId m) {
    return static_cast<std::size_t>(m) < checkpoints_.size()
               ? checkpoints_[m].get()
               : nullptr;
  }

 private:
  void StopAll();
  ClusterRunOutcome CollectResults(bool dedup_participants);

  const Workload* workload_;
  LocalClusterOptions options_;
  bool used_ = false;
  /// Set when options_.resize is armed: the versioned map every layer
  /// (store routing, scheduler, machines) shares for the run.
  std::shared_ptr<ElasticPartitionMap> elastic_;
  std::unique_ptr<PartitionedStore> store_;
  std::unique_ptr<Transport> transport_;
  std::vector<std::unique_ptr<Machine>> machines_;
  /// Coordinator replica ensemble (coordinator.standbys > 0 only); its
  /// replicas occupy transport endpoints [num_machines, num_machines+R).
  std::unique_ptr<CoordinatorReplicaSet> coordinator_;
  /// Per-machine checkpoints (crash and/or checkpoint_every runs only).
  /// Seeded with the loaded partition state; with checkpoint_every set,
  /// each machine folds its dirty keys and volatile state in at every
  /// cadence boundary. The recovery baseline a crashed partition is
  /// rebuilt from (runtime/recovery.h).
  std::vector<std::unique_ptr<MachineCheckpoint>> checkpoints_;
};

}  // namespace tpart

#endif  // TPART_RUNTIME_CLUSTER_H_
