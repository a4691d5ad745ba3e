#ifndef TPART_METRICS_RUN_STATS_H_
#define TPART_METRICS_RUN_STATS_H_

#include <cstdint>
#include <string>

#include "common/stats.h"
#include "common/types.h"
#include "metrics/breakdown.h"

namespace tpart {

namespace obs {
class MetricsRegistry;
}  // namespace obs

/// Counters for the wire transport subsystem (src/net): all inter-machine
/// traffic of a threaded-runtime run, including the reliability layer's
/// retransmissions and the fault injector's activity. Produced by
/// Transport::stats(); zero/absent for simulator runs and for the direct
/// (unserialized) transport's byte counters.
struct TransportStats {
  /// Message-level sends/deliveries (one Message each).
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  /// Batched round frames: multi-message wire packets carrying one link
  /// sequence number each (the coalesced publish-phase fan-out), and the
  /// total messages that travelled inside them.
  std::uint64_t batches_sent = 0;
  std::uint64_t batched_messages = 0;
  /// Serialized bytes entering / leaving the network (frame overhead
  /// included for stream transports).
  std::uint64_t bytes_out = 0;
  std::uint64_t bytes_in = 0;
  /// Packet-level traffic (data + acks, including retransmissions).
  std::uint64_t packets_out = 0;
  std::uint64_t packets_in = 0;
  std::uint64_t acks_sent = 0;
  /// Reliability layer: retransmitted data packets and receiver-side
  /// duplicate suppressions.
  std::uint64_t retries = 0;
  std::uint64_t duplicates_dropped = 0;
  /// Fault injector activity (FaultyPacketNetwork only).
  std::uint64_t faults_dropped = 0;
  std::uint64_t faults_duplicated = 0;
  std::uint64_t faults_delayed = 0;
  /// Link-schedule faults: packets swallowed by a severed (partitioned or
  /// flapping-down) link, and packets slowed by a gray-failure slow link.
  std::uint64_t faults_severed = 0;
  std::uint64_t faults_slowed = 0;
  /// Sender-side flow control: sends that blocked on a full queue, and
  /// the deepest any outgoing/delivery queue ever got.
  std::uint64_t backpressure_waits = 0;
  std::uint64_t queue_high_water = 0;

  /// Accumulates `other` (sums counters, maxes high-water marks).
  void MergeFrom(const TransportStats& other);

  std::string Summary() const;

  /// Publishes as tpart_transport_* counters/gauges.
  void PublishTo(obs::MetricsRegistry& registry) const;
};

/// Counters for the T-Part execution pipeline (admission → scheduler →
/// dissemination → execution as concurrent bounded stages). Zero/absent
/// for Calvin and simulator runs.
struct PipelineStats {
  /// Real client requests admitted (dummy padding counted separately).
  std::uint64_t admitted = 0;
  std::uint64_t dummies = 0;
  /// Sequencer batches forwarded to the scheduler stage.
  std::uint64_t batches = 0;
  /// Sink plans emitted/disseminated.
  std::uint64_t plans = 0;
  /// Sends that blocked on a full stage queue or exhausted epoch credits.
  std::uint64_t backpressure_waits = 0;
  /// Deepest each bounded stage queue ever got — a streaming run never
  /// exceeds the configured capacities (the memory-bound claim).
  std::uint64_t batch_queue_high_water = 0;
  std::uint64_t plan_queue_high_water = 0;
  std::uint64_t epoch_queue_high_water = 0;
  /// Most messages any machine's inbox ever held delivered but not yet
  /// taken by its loop (the per-machine stage of the pipeline; unbounded,
  /// so growth here is the first sign of a loop falling behind).
  std::uint64_t machine_inbound_high_water = 0;
  /// Always 0: the inbox has no fixed ring to overflow. Kept only because
  /// perfbench reports it as `runtime.inbound_spills`.
  std::uint64_t machine_inbound_spills = 0;
  /// Wall-clock seconds the admission stage spent end to end.
  double admission_seconds = 0.0;
  /// Admitted transactions per wall-clock second.
  double AdmissionRate() const {
    return admission_seconds <= 0.0
               ? 0.0
               : static_cast<double>(admitted) / admission_seconds;
  }
  /// Wall-clock latency from admission to commit, microseconds.
  Histogram admit_to_commit_us;

  std::string Summary() const;

  /// Publishes as tpart_pipeline_* metrics (admit_to_commit as a
  /// histogram).
  void PublishTo(obs::MetricsRegistry& registry) const;
};

/// Counters for the crash-fault-tolerance subsystem (heartbeat failure
/// detection + §5.4 local replay). Zero/absent unless a crash was
/// injected (LocalClusterOptions::crash) or the failure detector fired.
/// With a multi-crash chaos schedule, count fields accumulate across
/// crashes while machine/epoch/detection reflect the last one handled.
struct RecoveryStats {
  /// Machines crash-stopped during the run.
  std::uint64_t crashes_injected = 0;
  MachineId crashed_machine = kInvalidMachine;
  /// Last sinking round the crashed machine fully executed before dying.
  SinkEpoch crash_epoch = 0;
  /// Crash-stop to watchdog declaring the machine failed (heartbeat
  /// sequence stalled past the deadline floor and the phi-accrual
  /// suspicion threshold).
  std::uint64_t detection_latency_us = 0;
  /// Phi-accrual detector activity: deadline expiries the phi
  /// gate suppressed (gray failure / straggler, not a crash), and the
  /// highest suspicion level any machine that stayed live ever reached.
  /// A false-positive recovery requires peak healthy phi to cross the
  /// threshold; the partition tests assert it never does.
  std::uint64_t suspicions_suppressed = 0;
  double peak_healthy_phi = 0.0;
  /// Request-log entries re-executed by the §5.4 local replay.
  std::uint64_t replayed_txns = 0;
  /// Records restored from the checkpoint image of the crashed
  /// partition.
  std::uint64_t checkpoint_records = 0;
  /// Crash-stop until the rebuilt machine finished re-executing its
  /// request log and rejoined the stream (detection + restore + replay).
  std::uint64_t downtime_us = 0;

  std::string Summary() const;

  /// Publishes as tpart_recovery_* metrics.
  void PublishTo(obs::MetricsRegistry& registry) const;
};

/// Counters for coordinator replication + failover (DESIGN §4i): the
/// leader/standby request-log replication that removes the streaming
/// coordinator as a single point of failure. Zero/absent unless
/// LocalClusterOptions::coordinator.standbys > 0.
struct FailoverStats {
  /// Coordinator (leader) crash-stops injected during the run.
  std::uint64_t coordinator_crashes = 0;
  /// Elections won by a standby (== successful failovers).
  std::uint64_t elections_won = 0;
  /// Log entries replicated leader -> standbys, and acks received.
  std::uint64_t log_appends = 0;
  std::uint64_t log_acks = 0;
  /// Batches quorum-committed into the replicated request log.
  std::uint64_t committed_batches = 0;
  /// Committed-log batches the new leader re-ran through a fresh
  /// scheduler to rebuild the T-graph (deterministic replay, §5.4).
  std::uint64_t replayed_batches = 0;
  /// Regenerated rounds at or below the old leader's shipped frontier,
  /// and the per-machine sends among them that were actually re-shipped
  /// (the rest were filtered by dissemination watermarks).
  std::uint64_t catchup_rounds = 0;
  std::uint64_t reshipped_rounds = 0;
  /// Simultaneous leadership claims observed (randomized election
  /// backoff should keep this at zero even under stragglers).
  std::uint64_t dueling_claims = 0;
  /// Term fencing: stale-term plan/round/migration messages worker
  /// machines rejected, stale-term log appends / leadership claims the
  /// coordinator replicas rejected, and zombie-leader revivals injected
  /// (a paused ex-leader coming back and replaying its in-flight
  /// traffic, all of which must land in the fenced counters).
  std::uint64_t fenced_messages = 0;
  std::uint64_t fenced_appends = 0;
  std::uint64_t zombie_revivals = 0;
  /// Leader crash-stop until a standby's election timer fired.
  std::uint64_t detection_latency_us = 0;
  /// Election timer firing until the claim was broadcast (backoff incl.).
  std::uint64_t election_us = 0;
  /// New leader's term start until its first fresh round shipped
  /// (replica sync + log replay + catch-up filtering).
  std::uint64_t replan_us = 0;
  /// Leader crash until the plan stream resumed with a fresh round — the
  /// end-to-end gap machines observed.
  std::uint64_t plan_stream_gap_us = 0;
  /// Replica index leading when the run finished.
  std::uint32_t leader = 0;
  /// Per-failover phase distributions: one observation per handled
  /// failover, so repeated coordinator crashes in a single run aggregate
  /// into p50/p99 instead of overwriting a last-value gauge. The scalar
  /// *_us fields above keep reporting the most recent failover.
  Histogram phase_detection_us;
  Histogram phase_election_us;
  Histogram phase_replan_us;
  Histogram phase_plan_stream_gap_us;

  std::string Summary() const;

  /// Publishes as tpart_failover_* metrics.
  void PublishTo(obs::MetricsRegistry& registry) const;
};

/// Counters for the periodic checkpointing / log-truncation subsystem.
/// Zero/absent unless LocalClusterOptions::checkpoint_every is set.
/// Aggregated across machines; byte peaks are maxima over machines.
struct CheckpointStats {
  /// Captures completed (across all machines).
  std::uint64_t checkpoints_taken = 0;
  /// Highest epoch any machine has checkpointed.
  SinkEpoch last_epoch = 0;
  /// Records folded into checkpoint images (incremental dirty passes).
  std::uint64_t records_captured = 0;
  /// Storage version-discipline entries folded into checkpoint images:
  /// only keys whose state changed since the previous capture.
  std::uint64_t state_keys_captured = 0;
  /// Log entries freed by truncation.
  std::uint64_t truncated_request_entries = 0;
  std::uint64_t truncated_network_messages = 0;
  /// Total wall-clock microseconds spent inside captures.
  std::uint64_t capture_us = 0;
  /// Log-growth visibility: the high-water byte footprint of the §5.4
  /// logs. With checkpointing on, these plateau instead of growing with
  /// run length.
  std::uint64_t request_log_bytes_peak = 0;
  std::uint64_t network_log_bytes_peak = 0;
  /// Always 0: there is no resend window any more. Kept only because
  /// perfbench adds it into `checkpoint.log_bytes_peak_mb`.
  std::uint64_t resend_window_bytes_peak = 0;

  std::string Summary() const;

  /// Publishes as tpart_checkpoint_* counters plus the
  /// tpart_*_bytes_peak log-size gauges.
  void PublishTo(obs::MetricsRegistry& registry) const;
};

/// Counters for the elastic-membership subsystem (src/elastic): live
/// partition migration at sink-epoch cuts. Zero/absent unless
/// LocalClusterOptions::resize is armed.
struct MigrationStats {
  /// Membership steps executed (grow or shrink events).
  std::uint64_t membership_steps = 0;
  /// Source -> target key shipments across all steps.
  std::uint64_t routes = 0;
  /// Keys whose home changed (records + version-discipline state).
  std::uint64_t keys_moved = 0;
  /// Moved keys that carried a live record.
  std::uint64_t records_moved = 0;
  /// Encoded partition-image bytes shipped over the transport.
  std::uint64_t bytes_shipped = 0;
  std::uint64_t chunks_shipped = 0;
  /// Target-side app-level duplicate suppressions (exactly-once install).
  std::uint64_t duplicate_chunks_dropped = 0;
  /// Post-migration forced checkpoints (log truncation at the cut).
  std::uint64_t forced_checkpoints = 0;
  /// Total wall-clock microseconds the stream was paused at barriers.
  std::uint64_t barrier_us = 0;
  /// Per-step barrier pause distribution: one observation per membership
  /// step, so multi-step resize schedules aggregate into p50/p99.
  Histogram phase_barrier_us;
  /// Cut epoch of the last executed step.
  SinkEpoch last_cut_epoch = 0;

  std::string Summary() const;

  /// Publishes as tpart_migration_* metrics.
  void PublishTo(obs::MetricsRegistry& registry) const;
};

/// Aggregate outcome of one simulated engine run. Produced by CalvinSim /
/// TPartSim; consumed by every benchmark. The threaded runtime reports
/// through ClusterRunOutcome, whose nested stats structs publish
/// themselves.
struct RunStats {
  std::uint64_t txns = 0;
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;

  /// Simulated wall-clock span from first dispatch to last commit (ns).
  SimTime makespan = 0;

  /// Committed transactions per simulated second.
  double Throughput() const {
    return makespan <= 0 ? 0.0
                         : static_cast<double>(committed) * 1e9 /
                               static_cast<double>(makespan);
  }

  /// Latency from dispatch to commit, ns.
  RunningStat latency;
  /// Latency distribution in microseconds (for p50/p99 reporting).
  Histogram latency_us;

  /// Network-stall accounting (§6.3.3): a transaction is network-stalled
  /// when it "needs to wait for remote records"; wait is the stall span.
  std::uint64_t network_stalled_txns = 0;
  RunningStat stall_wait;  // over stalled transactions only, ns

  double NetworkStalledFraction() const {
    return txns == 0 ? 0.0
                     : static_cast<double>(network_stalled_txns) /
                           static_cast<double>(txns);
  }

  /// Transactions that touched data on more than one machine.
  std::uint64_t distributed_txns = 0;

  BreakdownAccumulator breakdown;

  /// Scheduler-side statistics (T-Part runs only).
  double scheduling_seconds = 0.0;
  std::uint64_t pushes_eliminated = 0;
  std::size_t max_tgraph_size = 0;
  std::uint64_t sticky_hits = 0;

  std::string Summary() const;

  /// Publishes the run's counters and latency histogram as tpart_*
  /// metrics.
  void PublishTo(obs::MetricsRegistry& registry) const;
};

}  // namespace tpart

#endif  // TPART_METRICS_RUN_STATS_H_
