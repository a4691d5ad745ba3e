// Recovery benchmark (§5.4): what crash-fault tolerance costs.
//
// Row set 1 — logging overhead: the same streaming run with recovery
// logs (request log + network log) on and off. The logs are what make
// §5.4 local replay possible; their cost is the steady-state tax.
//
// Row set 2 — downtime vs replay length: crash one machine at
// successively later sink epochs and report the detector latency,
// replayed-transaction count, and total downtime reported by
// RecoveryStats. Later crashes replay longer suffixes of the request
// log, so downtime should grow roughly linearly with the crash epoch.
//
// Row set 3 — recovery vs run length: crash near the end of runs 1x,
// 2x and 4x long, with and without periodic checkpointing. Without it,
// replay work tracks the whole run; with --checkpoint-every, recovery
// replays only the suffix since the last capture, so replayed counts
// and the log byte peaks stay flat as the run grows. So does the cost of
// one capture (capture_us, state_keys per capture): it folds only what
// changed since the previous capture.

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench/bench_util.h"
#include "runtime/cluster.h"

namespace tpart::bench {
namespace {

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

LocalClusterOptions StreamingOpts() {
  LocalClusterOptions opts;
  opts.scheduler.sink_size = 50;
  return opts;
}

bool g_json = false;

void BenchLoggingOverhead(std::size_t machines, std::size_t txns) {
  Header("Recovery-log overhead: streaming Microbenchmark, logs on/off");
  const Workload w = MakeMicroWorkload(DefaultMicro(machines, txns));
  std::printf("%12s %12s %12s\n", "logs", "tps", "committed");
  for (const bool logs : {false, true}) {
    LocalClusterOptions opts = StreamingOpts();
    opts.record_recovery_logs = logs;
    LocalCluster cluster(&w, opts);
    const auto start = std::chrono::steady_clock::now();
    const ClusterRunOutcome out = cluster.RunTPart();
    const double secs = Seconds(std::chrono::steady_clock::now() - start);
    std::printf("%12s %12.0f %12llu\n", logs ? "on" : "off",
                static_cast<double>(txns) / secs,
                static_cast<unsigned long long>(out.committed));
    if (g_json) {
      JsonRow("recovery_log_overhead")
          .Add("logs", std::string(logs ? "on" : "off"))
          .Add("tps", static_cast<double>(txns) / secs)
          .Add("committed", out.committed)
          .Print();
    }
  }
}

void BenchDowntimeVsCrashEpoch(std::size_t machines, std::size_t txns) {
  Header("Downtime vs replay length: crash machine 1 at epoch E");
  const Workload w = MakeMicroWorkload(DefaultMicro(machines, txns));
  std::printf("%8s %14s %10s %14s %12s %12s\n", "epoch", "detect_us",
              "replayed", "resent_rounds", "downtime_us", "committed");
  for (const SinkEpoch epoch : {2, 4, 8, 16, 32}) {
    LocalClusterOptions opts = StreamingOpts();
    opts.crash.events.push_back({1, epoch});
    opts.detector.enabled = true;
    LocalCluster cluster(&w, opts);
    const ClusterRunOutcome out = cluster.RunTPart();
    if (!out.fault.ok()) {
      std::printf("%8llu  run failed: %s\n",
                  static_cast<unsigned long long>(epoch),
                  out.fault.ToString().c_str());
      continue;
    }
    const RecoveryStats& r = out.recovery;
    std::printf("%8llu %14llu %10llu %14llu %12llu %12llu\n",
                static_cast<unsigned long long>(epoch),
                static_cast<unsigned long long>(r.detection_latency_us),
                static_cast<unsigned long long>(r.replayed_txns),
                static_cast<unsigned long long>(r.resent_rounds),
                static_cast<unsigned long long>(r.downtime_us),
                static_cast<unsigned long long>(out.committed));
    if (g_json) {
      JsonRow("recovery_downtime")
          .Add("crash_epoch", epoch)
          .Add("detection_us", r.detection_latency_us)
          .Add("replayed", r.replayed_txns)
          .Add("resent_rounds", r.resent_rounds)
          .Add("downtime_us", r.downtime_us)
          .Add("committed", out.committed)
          .Print();
    }
  }
  std::printf("(replayed/downtime grow with the crash epoch: without a "
              "mid-run capture, §5.4 replays the machine's whole request "
              "log since its last checkpoint — here the load-time one)\n");
}

void BenchRecoveryVsRunLength(std::size_t machines, std::size_t txns) {
  Header("Recovery vs run length: crash near the end, checkpointing "
         "off/on");
  std::printf("%8s %12s %10s %12s %12s %14s %12s %12s\n", "factor",
              "ckpt_every", "replayed", "downtime_us", "captures",
              "log_peak_bytes", "capture_us", "state_keys");
  for (const std::size_t factor : {1u, 2u, 4u}) {
    const std::size_t run_txns = txns * factor;
    const Workload w = MakeMicroWorkload(DefaultMicro(machines, run_txns));
    // ~50 txns per sink round; crash when ~90% of the rounds drained so
    // the unchekpointed replay covers nearly the whole run.
    const SinkEpoch crash_epoch =
        static_cast<SinkEpoch>(run_txns * 9 / (50 * 10));
    for (const SinkEpoch every : {SinkEpoch{0}, SinkEpoch{8}}) {
      LocalClusterOptions opts = StreamingOpts();
      opts.crash.events.push_back({1, crash_epoch});
      opts.detector.enabled = true;
      opts.checkpoint_every = every;
      LocalCluster cluster(&w, opts);
      const ClusterRunOutcome out = cluster.RunTPart();
      if (!out.fault.ok()) {
        std::printf("%8zu  run failed: %s\n", factor,
                    out.fault.ToString().c_str());
        continue;
      }
      const std::uint64_t log_peak =
          out.checkpoint.request_log_bytes_peak +
          out.checkpoint.network_log_bytes_peak;
      // Per-capture cost; 0 when the run took no capture.
      const double captures = static_cast<double>(
          std::max<std::uint64_t>(1, out.checkpoint.checkpoints_taken));
      const double capture_us =
          static_cast<double>(out.checkpoint.capture_us) / captures;
      const double state_keys =
          static_cast<double>(out.checkpoint.state_keys_captured) / captures;
      std::printf("%8zu %12llu %10llu %12llu %12llu %14llu %12.0f %12.0f\n",
                  factor, static_cast<unsigned long long>(every),
                  static_cast<unsigned long long>(out.recovery.replayed_txns),
                  static_cast<unsigned long long>(out.recovery.downtime_us),
                  static_cast<unsigned long long>(
                      out.checkpoint.checkpoints_taken),
                  static_cast<unsigned long long>(log_peak), capture_us,
                  state_keys);
      if (g_json) {
        JsonRow("recovery_vs_run_length")
            .Add("factor", factor)
            .Add("checkpoint_every", every)
            .Add("crash_epoch", crash_epoch)
            .Add("replayed", out.recovery.replayed_txns)
            .Add("downtime_us", out.recovery.downtime_us)
            .Add("checkpoints_taken", out.checkpoint.checkpoints_taken)
            .Add("log_peak_bytes", log_peak)
            .Add("capture_us", capture_us)
            .Add("state_keys_captured", state_keys)
            .Add("committed", out.committed)
            .Print();
      }
    }
  }
  std::printf("(with checkpoint_every set, replayed txns, the log byte "
              "peak and the per-capture cost stay flat as the run grows "
              "4x: recovery is O(epochs since the last capture), not "
              "O(run length))\n");
}

void BenchCoordinatorFailover(std::size_t machines, std::size_t txns) {
  Header("Coordinator failover: replication tax and leader-crash latency");
  const Workload w = MakeMicroWorkload(DefaultMicro(machines, txns));
  std::printf("%10s %8s %12s %14s %12s %12s %10s %12s\n", "standbys",
              "crash", "tps", "detect_us", "election_us", "replan_us",
              "gap_us", "committed");
  struct Case {
    std::size_t standbys;
    bool crash;
  };
  const Case cases[] = {{0, false}, {1, false}, {2, false}, {1, true},
                        {2, true}};
  for (const Case& c : cases) {
    LocalClusterOptions opts = StreamingOpts();
    opts.coordinator.standbys = c.standbys;
    if (c.crash) {
      // Kill the leader mid-stream: roughly half the rounds shipped.
      opts.crash.coordinator_at.push_back(
          static_cast<SinkEpoch>(txns / (50 * 2)));
    }
    LocalCluster cluster(&w, opts);
    const auto start = std::chrono::steady_clock::now();
    const ClusterRunOutcome out = cluster.RunTPart();
    const double secs = Seconds(std::chrono::steady_clock::now() - start);
    if (!out.fault.ok()) {
      std::printf("%10zu  run failed: %s\n", c.standbys,
                  out.fault.ToString().c_str());
      continue;
    }
    const FailoverStats& f = out.failover;
    std::printf("%10zu %8s %12.0f %14llu %12llu %12llu %10llu %12llu\n",
                c.standbys, c.crash ? "yes" : "no",
                static_cast<double>(txns) / secs,
                static_cast<unsigned long long>(f.detection_latency_us),
                static_cast<unsigned long long>(f.election_us),
                static_cast<unsigned long long>(f.replan_us),
                static_cast<unsigned long long>(f.plan_stream_gap_us),
                static_cast<unsigned long long>(out.committed));
    if (g_json) {
      JsonRow("coordinator_failover")
          .Add("standbys", c.standbys)
          .Add("leader_crash", c.crash ? 1 : 0)
          .Add("tps", static_cast<double>(txns) / secs)
          .Add("committed_batches", f.committed_batches)
          .Add("log_appends", f.log_appends)
          .Add("detection_us", f.detection_latency_us)
          .Add("election_us", f.election_us)
          .Add("replan_us", f.replan_us)
          .Add("plan_stream_gap_us", f.plan_stream_gap_us)
          .Add("replayed_batches", f.replayed_batches)
          .Add("catchup_rounds", f.catchup_rounds)
          .Add("reshipped_rounds", f.reshipped_rounds)
          .Add("committed", out.committed)
          .Print();
    }
  }
  std::printf("(standbys without a crash price the quorum-commit tax; with "
              "a crash, gap_us is end-to-end plan-stream outage: detection "
              "+ election + committed-log replay + watermark catch-up)\n");
}

void BenchPartitionGrayFailure(std::size_t machines, std::size_t txns) {
  Header("Partition / gray failure: sever windows, slow links, and "
         "zombie-leader fencing (DESIGN 4j)");
  const Workload w = MakeMicroWorkload(DefaultMicro(machines, txns));
  // Fault-free baseline for the throughput tax.
  double base_tps = 0;
  {
    LocalClusterOptions opts = StreamingOpts();
    LocalCluster cluster(&w, opts);
    const auto start = std::chrono::steady_clock::now();
    const ClusterRunOutcome out = cluster.RunTPart();
    base_tps = static_cast<double>(out.committed) /
               Seconds(std::chrono::steady_clock::now() - start);
  }
  std::printf("%14s %10s %8s %8s %8s %10s %10s %10s\n", "scenario", "tps",
              "severed", "slowed", "retries", "fenced", "zombies",
              "committed");
  struct Case {
    const char* name;
    bool partition;
    bool slow;
    bool zombie;
  };
  const Case cases[] = {{"partition", true, false, false},
                        {"slow_link", false, true, false},
                        {"part+zombie", true, false, true}};
  const SinkEpoch mid = static_cast<SinkEpoch>(txns / (50 * 2));
  for (const Case& c : cases) {
    LocalClusterOptions opts = StreamingOpts();
    opts.transport.retry_timeout_us = 1000;
    if (c.partition) {
      // Isolate the last machine for a two-epoch window mid-run; the
      // retry layer redelivers everything the window swallowed after
      // the heal, so the tps delta vs the baseline is the heal cost.
      PartitionEvent ev;
      ev.group_a = {static_cast<MachineId>(machines - 1)};
      ev.from_epoch = mid;
      ev.heal_epoch = mid + 2;
      opts.transport.faults.partition.partitions.push_back(ev);
    }
    if (c.slow) {
      SlowLinkEvent slow;
      slow.from = 0;
      slow.to = static_cast<MachineId>(machines - 1);
      slow.from_epoch = 1;
      slow.heal_epoch = mid + 8;
      slow.extra_delay_us = 1200;
      opts.transport.faults.partition.slow_links.push_back(slow);
    }
    if (c.zombie) {
      opts.coordinator.standbys = 1;
      opts.crash.coordinator_at.push_back(mid + 1);
      opts.crash.coordinator_revive_at.push_back(mid + 5);
    }
    LocalCluster cluster(&w, opts);
    const auto start = std::chrono::steady_clock::now();
    const ClusterRunOutcome out = cluster.RunTPart();
    const double secs = Seconds(std::chrono::steady_clock::now() - start);
    if (!out.fault.ok()) {
      std::printf("%14s  run failed: %s\n", c.name,
                  out.fault.ToString().c_str());
      continue;
    }
    std::printf("%14s %10.0f %8llu %8llu %8llu %10llu %10llu %10llu\n",
                c.name, static_cast<double>(out.committed) / secs,
                static_cast<unsigned long long>(out.transport.faults_severed),
                static_cast<unsigned long long>(out.transport.faults_slowed),
                static_cast<unsigned long long>(out.transport.retries),
                static_cast<unsigned long long>(out.failover.fenced_messages),
                static_cast<unsigned long long>(out.failover.zombie_revivals),
                static_cast<unsigned long long>(out.committed));
    if (g_json) {
      JsonRow("partition_gray_failure")
          .Add("scenario", std::string(c.name))
          .Add("tps", static_cast<double>(out.committed) / secs)
          .Add("baseline_tps", base_tps)
          .Add("severed", out.transport.faults_severed)
          .Add("slowed", out.transport.faults_slowed)
          .Add("retries", out.transport.retries)
          .Add("fenced_messages", out.failover.fenced_messages)
          .Add("fenced_appends", out.failover.fenced_appends)
          .Add("zombie_revivals", out.failover.zombie_revivals)
          .Add("plan_stream_gap_us", out.failover.plan_stream_gap_us)
          .Add("committed", out.committed)
          .Print();
    }
  }
  std::printf("(results stay byte-identical to the fault-free run in every "
              "scenario; the tps delta vs baseline prices the heal — retry "
              "redelivery of the severed window — and the fencing of the "
              "revived zombie leader's stale plan stream)\n");
}

void Run(int argc, char** argv) {
  const auto txns =
      static_cast<std::size_t>(IntFlag(argc, argv, "txns", 4000));
  const auto machines =
      static_cast<std::size_t>(IntFlag(argc, argv, "machines", 3));
  g_json = BoolFlag(argc, argv, "json");
  BenchLoggingOverhead(machines, txns);
  BenchDowntimeVsCrashEpoch(machines, txns);
  BenchRecoveryVsRunLength(machines, txns);
  BenchCoordinatorFailover(machines, txns);
  BenchPartitionGrayFailure(machines, txns);
}

}  // namespace
}  // namespace tpart::bench

int main(int argc, char** argv) { tpart::bench::Run(argc, argv); }
