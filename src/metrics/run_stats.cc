#include "metrics/run_stats.h"

#include <algorithm>
#include <sstream>

#include "obs/metrics.h"

namespace tpart {

void TransportStats::MergeFrom(const TransportStats& other) {
  messages_sent += other.messages_sent;
  messages_delivered += other.messages_delivered;
  batches_sent += other.batches_sent;
  batched_messages += other.batched_messages;
  bytes_out += other.bytes_out;
  bytes_in += other.bytes_in;
  packets_out += other.packets_out;
  packets_in += other.packets_in;
  acks_sent += other.acks_sent;
  retries += other.retries;
  duplicates_dropped += other.duplicates_dropped;
  faults_dropped += other.faults_dropped;
  faults_duplicated += other.faults_duplicated;
  faults_delayed += other.faults_delayed;
  faults_severed += other.faults_severed;
  faults_slowed += other.faults_slowed;
  queue_high_water = std::max(queue_high_water, other.queue_high_water);
}

std::string TransportStats::Summary() const {
  std::ostringstream out;
  out << "msgs=" << messages_sent << "/" << messages_delivered;
  if (batches_sent > 0) {
    out << " batches=" << batches_sent << " batched_msgs=" << batched_messages;
  }
  out << " bytes=" << bytes_out << "/" << bytes_in
      << " packets=" << packets_out << "/" << packets_in
      << " acks=" << acks_sent << " retries=" << retries
      << " dups_dropped=" << duplicates_dropped;
  if (faults_dropped + faults_duplicated + faults_delayed > 0) {
    out << " faults(drop/dup/delay)=" << faults_dropped << "/"
        << faults_duplicated << "/" << faults_delayed;
  }
  if (faults_severed + faults_slowed > 0) {
    out << " links(severed/slowed)=" << faults_severed << "/"
        << faults_slowed;
  }
  out << " queue_hw=" << queue_high_water;
  return out.str();
}

std::string PipelineStats::Summary() const {
  std::ostringstream out;
  out << "admitted=" << admitted << " dummies=" << dummies
      << " batches=" << batches << " plans=" << plans
      << " admission_rate=" << AdmissionRate()
      << " backpressure=" << backpressure_waits
      << " queue_hw(batch/plan/epoch/inbound)=" << batch_queue_high_water
      << "/" << plan_queue_high_water << "/" << epoch_queue_high_water << "/"
      << machine_inbound_high_water;
  if (admit_to_commit_us.count() > 0) {
    out << " admit_to_commit_us(p50/p99)=" << admit_to_commit_us.Quantile(0.5)
        << "/" << admit_to_commit_us.Quantile(0.99);
  }
  return out.str();
}

std::string RecoveryStats::Summary() const {
  std::ostringstream out;
  out << "crashes=" << crashes_injected;
  if (crashes_injected > 0) {
    out << " machine=" << crashed_machine << " crash_epoch=" << crash_epoch
        << " detection_us=" << detection_latency_us
        << " replayed=" << replayed_txns
        << " checkpoint_records=" << checkpoint_records
        << " downtime_us=" << downtime_us;
  }
  if (suspicions_suppressed > 0 || peak_healthy_phi > 0.0) {
    out << " suspicions_suppressed=" << suspicions_suppressed
        << " peak_healthy_phi=" << peak_healthy_phi;
  }
  return out.str();
}

std::string CheckpointStats::Summary() const {
  std::ostringstream out;
  out << "checkpoints=" << checkpoints_taken << " last_epoch=" << last_epoch
      << " records=" << records_captured
      << " state_keys=" << state_keys_captured
      << " truncated(req/net)=" << truncated_request_entries << "/"
      << truncated_network_messages << " capture_us=" << capture_us
      << " bytes_peak(req/net)=" << request_log_bytes_peak << "/"
      << network_log_bytes_peak;
  return out.str();
}

void CheckpointStats::PublishTo(obs::MetricsRegistry& registry) const {
  registry.SetCounter("tpart_checkpoint_captures_total",
                      static_cast<double>(checkpoints_taken),
                      "Periodic checkpoint captures completed");
  registry.SetGauge("tpart_checkpoint_last_epoch",
                    static_cast<double>(last_epoch),
                    "Highest epoch any machine has checkpointed");
  registry.SetCounter("tpart_checkpoint_records_captured_total",
                      static_cast<double>(records_captured),
                      "Records folded into checkpoint images");
  registry.SetCounter("tpart_checkpoint_state_keys_captured_total",
                      static_cast<double>(state_keys_captured),
                      "Storage version-state entries folded into checkpoint "
                      "images");
  registry.SetCounter("tpart_checkpoint_truncated_request_entries_total",
                      static_cast<double>(truncated_request_entries),
                      "Request-log entries freed by truncation");
  registry.SetCounter("tpart_checkpoint_truncated_network_messages_total",
                      static_cast<double>(truncated_network_messages),
                      "Network-log messages freed by truncation");
  registry.SetGauge("tpart_checkpoint_capture_us",
                    static_cast<double>(capture_us),
                    "Wall-clock microseconds spent inside captures");
  registry.SetGauge("tpart_checkpoint_request_log_peak_bytes",
                    static_cast<double>(request_log_bytes_peak),
                    "High-water byte footprint of any request log");
  registry.SetGauge("tpart_checkpoint_network_log_peak_bytes",
                    static_cast<double>(network_log_bytes_peak),
                    "High-water byte footprint of any network log");
}

void TransportStats::PublishTo(obs::MetricsRegistry& registry) const {
  const auto c = [&](const char* name, std::uint64_t v, const char* help) {
    registry.SetCounter(std::string("tpart_transport_") + name,
                        static_cast<double>(v), help);
  };
  c("messages_sent_total", messages_sent, "Messages handed to the transport");
  c("messages_delivered_total", messages_delivered,
    "Messages delivered to their destination machine");
  c("batches_sent_total", batches_sent,
    "Multi-message deliveries (a batch frame with one link seq each on "
    "a serialized transport)");
  c("batched_messages_total", batched_messages,
    "Messages that travelled inside multi-message deliveries");
  c("bytes_out_total", bytes_out, "Serialized bytes entering the network");
  c("bytes_in_total", bytes_in, "Serialized bytes leaving the network");
  c("packets_out_total", packets_out, "Packets sent (data + acks + retries)");
  c("packets_in_total", packets_in, "Packets received");
  c("acks_sent_total", acks_sent, "Reliability-layer acknowledgements");
  c("retries_total", retries, "Retransmitted data packets");
  c("duplicates_dropped_total", duplicates_dropped,
    "Receiver-side duplicate suppressions");
  c("faults_dropped_total", faults_dropped, "Injected packet drops");
  c("faults_duplicated_total", faults_duplicated, "Injected duplications");
  c("faults_delayed_total", faults_delayed, "Injected delays");
  c("faults_severed_total", faults_severed,
    "Packets swallowed by severed (partitioned or flapping) links");
  c("faults_slowed_total", faults_slowed,
    "Packets slowed by gray-failure slow links");
  registry.SetGauge("tpart_transport_queue_peak_depth",
                    static_cast<double>(queue_high_water),
                    "Deepest any TCP writer queue ever got");
}

void PipelineStats::PublishTo(obs::MetricsRegistry& registry) const {
  const auto c = [&](const char* name, double v, const char* help) {
    registry.SetCounter(std::string("tpart_pipeline_") + name, v, help);
  };
  c("admitted_total", static_cast<double>(admitted),
    "Real client requests admitted");
  c("dummies_total", static_cast<double>(dummies),
    "Dummy padding requests issued (section 3.3)");
  c("batches_total", static_cast<double>(batches),
    "Sequencer batches forwarded to the scheduler stage");
  c("plans_total", static_cast<double>(plans),
    "Sink plans disseminated");
  c("backpressure_waits_total", static_cast<double>(backpressure_waits),
    "Stage sends that blocked on a full queue or exhausted credits");
  registry.SetGauge("tpart_pipeline_batch_queue_peak_depth",
                    static_cast<double>(batch_queue_high_water),
                    "Deepest the admission->scheduler queue ever got");
  registry.SetGauge("tpart_pipeline_plan_queue_peak_depth",
                    static_cast<double>(plan_queue_high_water),
                    "Deepest the scheduler->dissemination queue ever got");
  registry.SetGauge("tpart_pipeline_epoch_queue_peak_depth",
                    static_cast<double>(epoch_queue_high_water),
                    "Most sinking rounds in flight at any machine");
  registry.SetGauge("tpart_pipeline_machine_inbound_peak_depth",
                    static_cast<double>(machine_inbound_high_water),
                    "Most messages a machine's inbox ever held untaken");
  registry.SetGauge("tpart_pipeline_admission_seconds", admission_seconds,
                    "Wall-clock span of the admission stage");
  registry.SetGauge("tpart_pipeline_admission_rate_tps", AdmissionRate(),
                    "Admitted transactions per wall-clock second");
  registry.ObserveHistogram("tpart_pipeline_admit_to_commit_us",
                            admit_to_commit_us,
                            "Admission-to-commit latency, microseconds");
}

void RecoveryStats::PublishTo(obs::MetricsRegistry& registry) const {
  registry.SetCounter("tpart_recovery_crashes_injected_total",
                      static_cast<double>(crashes_injected),
                      "Machines crash-stopped during the run");
  registry.SetCounter("tpart_fd_suspicions_suppressed_total",
                      static_cast<double>(suspicions_suppressed),
                      "Deadline expiries the phi-accrual gate suppressed");
  registry.SetGauge("tpart_fd_peak_healthy_phi_ratio", peak_healthy_phi,
                    "Highest phi any machine that stayed live reached");
  if (crashes_injected == 0) return;
  registry.SetGauge("tpart_recovery_detection_latency_us",
                    static_cast<double>(detection_latency_us),
                    "Crash-stop to failure declaration");
  registry.SetCounter("tpart_recovery_replayed_txns_total",
                      static_cast<double>(replayed_txns),
                      "Request-log entries re-executed (section 5.4)");
  registry.SetCounter("tpart_recovery_checkpoint_records_total",
                      static_cast<double>(checkpoint_records),
                      "Records restored from the checkpoint image");
  registry.SetGauge("tpart_recovery_downtime_us",
                    static_cast<double>(downtime_us),
                    "Crash-stop until the machine rejoined the stream");
}

std::string FailoverStats::Summary() const {
  std::ostringstream out;
  out << "replicas_committed_batches=" << committed_batches
      << " appends=" << log_appends << " acks=" << log_acks
      << " coordinator_crashes=" << coordinator_crashes;
  if (coordinator_crashes > 0) {
    out << " elections=" << elections_won << " leader=" << leader
        << " replayed_batches=" << replayed_batches
        << " catchup_rounds=" << catchup_rounds
        << " reshipped_rounds=" << reshipped_rounds
        << " dueling_claims=" << dueling_claims
        << " fenced(msgs/appends)=" << fenced_messages << "/"
        << fenced_appends << " zombies=" << zombie_revivals
        << " detection_us=" << detection_latency_us
        << " election_us=" << election_us << " replan_us=" << replan_us
        << " gap_us=" << plan_stream_gap_us;
  }
  return out.str();
}

void FailoverStats::PublishTo(obs::MetricsRegistry& registry) const {
  registry.SetCounter("tpart_failover_committed_batches_total",
                      static_cast<double>(committed_batches),
                      "Batches quorum-committed into the replicated log");
  registry.SetCounter("tpart_failover_log_appends_total",
                      static_cast<double>(log_appends),
                      "Log entries replicated leader -> standbys");
  registry.SetCounter("tpart_failover_log_acks_total",
                      static_cast<double>(log_acks),
                      "Replication acks received by leaders");
  registry.SetCounter("tpart_failover_coordinator_crashes_total",
                      static_cast<double>(coordinator_crashes),
                      "Coordinator crash-stops injected");
  if (coordinator_crashes == 0) return;
  registry.SetCounter("tpart_failover_elections_won_total",
                      static_cast<double>(elections_won),
                      "Elections won by a standby");
  registry.SetCounter("tpart_failover_replayed_batches_total",
                      static_cast<double>(replayed_batches),
                      "Committed-log batches replayed by a new leader");
  registry.SetCounter("tpart_failover_catchup_rounds_total",
                      static_cast<double>(catchup_rounds),
                      "Regenerated rounds at or below the shipped frontier");
  registry.SetCounter("tpart_failover_reshipped_rounds_total",
                      static_cast<double>(reshipped_rounds),
                      "Per-machine catch-up sends past the watermarks");
  registry.SetCounter("tpart_failover_dueling_claims_total",
                      static_cast<double>(dueling_claims),
                      "Simultaneous leadership claims observed");
  registry.SetCounter("tpart_failover_fenced_messages_total",
                      static_cast<double>(fenced_messages),
                      "Stale-term plan/round/migration messages rejected");
  registry.SetCounter("tpart_failover_fenced_appends_total",
                      static_cast<double>(fenced_appends),
                      "Stale-term appends/claims replicas rejected");
  registry.SetCounter("tpart_failover_zombie_revivals_total",
                      static_cast<double>(zombie_revivals),
                      "Paused ex-leaders revived to replay stale traffic");
  registry.SetGauge("tpart_failover_detection_latency_us",
                    static_cast<double>(detection_latency_us),
                    "Leader crash until a standby's election timer fired");
  registry.SetGauge("tpart_failover_election_us",
                    static_cast<double>(election_us),
                    "Election timer firing until the claim broadcast");
  registry.SetGauge("tpart_failover_replan_us",
                    static_cast<double>(replan_us),
                    "New term start until its first fresh round shipped");
  registry.SetGauge("tpart_failover_plan_stream_gap_us",
                    static_cast<double>(plan_stream_gap_us),
                    "Leader crash until the plan stream resumed");
  registry.SetGauge("tpart_failover_leader_index", static_cast<double>(leader),
                    "Replica index leading when the run finished");
  registry.ObserveHistogram("tpart_failover_phase_detection_us",
                            phase_detection_us,
                            "Per-failover detection phase, microseconds");
  registry.ObserveHistogram("tpart_failover_phase_election_us",
                            phase_election_us,
                            "Per-failover election phase, microseconds");
  registry.ObserveHistogram("tpart_failover_phase_replan_us", phase_replan_us,
                            "Per-failover replan phase, microseconds");
  registry.ObserveHistogram("tpart_failover_phase_plan_stream_gap_us",
                            phase_plan_stream_gap_us,
                            "Per-failover plan-stream outage, microseconds");
}

std::string MigrationStats::Summary() const {
  std::ostringstream out;
  out << "steps=" << membership_steps << " routes=" << routes
      << " keys=" << keys_moved << " records=" << records_moved
      << " bytes=" << bytes_shipped << " chunks=" << chunks_shipped
      << " dup_chunks=" << duplicate_chunks_dropped
      << " forced_checkpoints=" << forced_checkpoints
      << " barrier_us=" << barrier_us << " last_cut=" << last_cut_epoch;
  return out.str();
}

void MigrationStats::PublishTo(obs::MetricsRegistry& registry) const {
  registry.SetCounter("tpart_migration_steps_total",
                      static_cast<double>(membership_steps),
                      "Membership steps executed (grow or shrink)");
  registry.SetCounter("tpart_migration_routes_total",
                      static_cast<double>(routes),
                      "Source->target key shipments");
  registry.SetCounter("tpart_migration_keys_moved_total",
                      static_cast<double>(keys_moved),
                      "Keys whose home machine changed");
  registry.SetCounter("tpart_migration_records_moved_total",
                      static_cast<double>(records_moved),
                      "Moved keys carrying a live record");
  registry.SetCounter("tpart_migration_bytes_shipped_total",
                      static_cast<double>(bytes_shipped),
                      "Encoded partition-image bytes shipped");
  registry.SetCounter("tpart_migration_chunks_shipped_total",
                      static_cast<double>(chunks_shipped),
                      "Partition-image chunks shipped");
  registry.SetCounter("tpart_migration_duplicate_chunks_dropped_total",
                      static_cast<double>(duplicate_chunks_dropped),
                      "Target-side app-level duplicate suppressions");
  registry.SetCounter("tpart_migration_forced_checkpoints_total",
                      static_cast<double>(forced_checkpoints),
                      "Post-migration forced checkpoint captures");
  registry.SetGauge("tpart_migration_barrier_us",
                    static_cast<double>(barrier_us),
                    "Wall-clock microseconds the stream paused at barriers");
  registry.ObserveHistogram("tpart_migration_phase_barrier_us",
                            phase_barrier_us,
                            "Per-step barrier pause, microseconds");
  registry.SetGauge("tpart_migration_last_cut_epoch",
                    static_cast<double>(last_cut_epoch),
                    "Cut epoch of the last executed membership step");
}

void RunStats::PublishTo(obs::MetricsRegistry& registry) const {
  registry.SetCounter("tpart_txns_total", static_cast<double>(txns),
                      "Transactions executed");
  registry.SetCounter("tpart_committed_total", static_cast<double>(committed),
                      "Transactions committed");
  registry.SetCounter("tpart_aborted_total", static_cast<double>(aborted),
                      "Transactions aborted");
  registry.SetGauge("tpart_throughput_tps", Throughput(),
                    "Committed transactions per (simulated) second");
  registry.ObserveHistogram("tpart_latency_us", latency_us,
                            "Dispatch-to-commit latency, microseconds");
  registry.SetCounter("tpart_network_stalled_txns_total",
                      static_cast<double>(network_stalled_txns),
                      "Transactions that waited for remote records");
  registry.SetGauge("tpart_network_stalled_ratio",
                    NetworkStalledFraction(),
                    "Fraction of transactions network-stalled");
  registry.SetCounter("tpart_distributed_txns_total",
                      static_cast<double>(distributed_txns),
                      "Transactions touching more than one machine");
  registry.SetGauge("tpart_scheduling_seconds", scheduling_seconds,
                    "Wall-clock seconds spent partitioning + sinking");
  registry.SetCounter("tpart_pushes_eliminated_total",
                      static_cast<double>(pushes_eliminated),
                      "Forward-pushes removed by the section 4.3 optimizer");
  registry.SetGauge("tpart_tgraph_peak_size",
                    static_cast<double>(max_tgraph_size),
                    "Peak unsunk T-graph size (Fig. 4c)");
  registry.SetCounter("tpart_sticky_hits_total",
                      static_cast<double>(sticky_hits),
                      "Storage reads served from sticky cache entries");
}

std::string RunStats::Summary() const {
  std::ostringstream out;
  out << "txns=" << txns << " committed=" << committed
      << " aborted=" << aborted << " tps=" << Throughput()
      << " avg_latency_us=" << latency.mean() / 1000.0
      << " p50_us=" << latency_us.Quantile(0.5)
      << " p99_us=" << latency_us.Quantile(0.99)
      << " stalled=" << NetworkStalledFraction() * 100.0 << "%"
      << " avg_stall_us=" << stall_wait.mean() / 1000.0
      << " distributed=" << distributed_txns;
  return out.str();
}

}  // namespace tpart
