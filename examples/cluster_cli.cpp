// Command-line driver: run any bundled workload on any engine, on the
// simulated cluster or the threaded runtime, and print the statistics.
//
// Two example command lines, each wrapped onto a second line here:
//   ./build/examples/cluster_cli --workload=tpce --engine=both
//       --machines=8 --txns=5000 --sink=100
//   ./build/examples/cluster_cli --workload=tpcc --engine=tpart
//       --runtime --machines=4 --txns=2000
//
// Flags (an unknown value of an enumerated flag exits with status 2):
//   --workload=micro|tpcc|tpce      (default micro)
//   --engine=calvin|tpart|both      (default both)
//   --machines=N                    (default 4)
//   --txns=N                        (default 5000)
//   --sink=N                        sink size (default 100)
//   --runtime                       threaded runtime instead of simulator;
//                                   runtime T-Part always runs the streaming
//                                   pipeline (admit -> schedule -> disseminate
//                                   -> execute as concurrent bounded stages)
//                                   and prints stage stats and p50/p99
//                                   admission-to-commit latency
//   --gstore                        G-Store emulation (sink 1, write-back)
//   --transport=direct|inproc|tcp   runtime wire substrate (default direct)
//   --drop=P --dup=P --delay=P      runtime fault injection probabilities
//   --crash=M@E[,M@E|seq@E...]      comma list of crash-stops in firing order.
//                                   M@E crash-stops worker machine M at sink
//                                   epoch E, detects it via heartbeats, and
//                                   recovers it in-run. seq@E crash-stops the
//                                   coordinator (leader sequencer/scheduler)
//                                   at epoch E and fails over to a standby —
//                                   requires --standbys>=1. seq@E+revive@E'
//                                   pauses the leader instead: at epoch E' the
//                                   zombie wakes and replays its in-flight
//                                   traffic, which the successor's term fence
//                                   must drop. Worker and seq events compose
//                                   freely; prints the recovery and failover
//                                   statistics
//   --partition=SPEC[;SPEC...]      seeded link partitions, ';'-separated
//                                   (group lists use commas). "0,1|2@3..5"
//                                   severs both directions between {0,1} and
//                                   {2} for sink epochs 3..4; "0>1@3..5"
//                                   severs only 0's packets to 1; "1|@3"
//                                   isolates machine 1 from everyone until the
//                                   final flush. The retry layer redelivers
//                                   everything a window swallowed once it
//                                   heals — results stay byte-identical
//   --slow-link=SPEC[,SPEC...]      gray-failure slow links: "0->1@2..7:900"
//                                   delays every packet 0 sends to 1 by a
//                                   seeded amount up to 900us while epochs
//                                   2..6 disseminate (delay defaults to
//                                   1500us). The adaptive detector must not
//                                   declare the slow destination dead
//   --detector                      arm the phi-accrual failure detector even
//                                   without --crash: stragglers and slow links
//                                   are excused while true crash-stops are
//                                   caught
//   --no-recover                    with --crash: detect only, surface the
//                                   failure as a fault status (worker events
//                                   only)
//   --standbys=N                    run the coordinator replicated: N standby
//                                   replicas receive a quorum-committed
//                                   request log and one takes over by election
//                                   if the leader crash-stops
//   --checkpoint-every=N            capture a per-machine incremental
//                                   checkpoint every N sink epochs and
//                                   truncate the recovery logs and resend
//                                   window; prints the checkpoint statistics
//   --resize=+K@E[,±K@E...]         grow (+K) or shrink (-K) the machine set
//                                   by K machines at sink epoch E: quiesce at
//                                   the epoch barrier, migrate the re-homed
//                                   partitions over the wire, and resume;
//                                   results stay byte-identical to a
//                                   fixed-membership run. Repeatable as a
//                                   comma list with increasing epochs.
//   --resize-policy=rehash|hotkey   route selection for --resize: rehash
//                                   moves the minimal consistent-hash
//                                   slice; hotkey additionally pins the
//                                   hottest keys onto the new machines
//                                   (default rehash)
//   --chaos=SEED                    seeded chaos matrix: two sequential
//                                   crashes of distinct machines, a
//                                   repeat crash of the first victim,
//                                   and a straggler — all
//                                   recovered in-run; with --standbys>=1
//                                   it also schedules one coordinator
//                                   leader crash (seq@E in the printed
//                                   schedule); incompatible with --crash
//   --chaos-extended                widen --chaos with link-level faults
//                                   derived from the same seed: one
//                                   partition window, one gray-failure
//                                   slow link, one flapping link, and
//                                   (with --standbys>=1) the leader
//                                   crash becomes a pause-and-revive
//                                   zombie whose stale traffic must be
//                                   term-fenced
//   --trace=out.json                record a Chrome trace-event JSON of
//                                   the run (open in Perfetto or
//                                   chrome://tracing). Simulator traces
//                                   use virtual time and are byte-
//                                   identical across same-seed runs.
//   --metrics=out.prom              write the run's metrics snapshot:
//                                   Prometheus text exposition format,
//                                   or one JSON object if the path ends
//                                   in .json
//   --metrics-stream=out.jsonl      stream in-flight metrics samples as
//                                   JSONL, one timestamped object per
//                                   sample. Runtime runs sample on wall
//                                   time (--sample-every); simulator runs
//                                   sample at sink-epoch boundaries and
//                                   are byte-identical across same-seed
//                                   runs
//   --sample-every=USEC             wall-clock sampling interval for
//                                   --metrics-stream on the runtime
//                                   (default 10000)
//   --serve-metrics=PORT            serve the newest sample (plus
//                                   /healthz) over HTTP on
//                                   127.0.0.1:PORT for the duration of
//                                   the run; 0 picks an ephemeral port
//   --txn-sample=1/N (or N)         causal timelines: transactions with
//                                   id % N == 0 get end-to-end async
//                                   spans (admit -> round_received ->
//                                   executed -> commit) stitched across
//                                   machines and coordinator terms in the
//                                   --trace output
//   --flight-recorder=out.json      black-box post-mortem destination:
//                                   the always-on flight recorder dumps
//                                   its bounded event rings there as
//                                   Chrome-trace JSON when a watchdog /
//                                   stall / failover / migration fault
//                                   fires (the runtime keeps recording
//                                   either way; without this flag dumps
//                                   stay in memory)

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <sstream>
#include <string>

#include "baselines/gstore.h"
#include "net/partition_schedule.h"
#include "obs/flight_recorder.h"
#include "obs/live_sampler.h"
#include "obs/metrics.h"
#include "obs/metrics_http.h"
#include "obs/trace.h"
#include "runtime/cluster.h"
#include "sim/calvin_sim.h"
#include "sim/tpart_sim.h"
#include "workload/micro.h"
#include "workload/tpcc.h"
#include "workload/tpce.h"

using namespace tpart;

namespace {

std::string StrFlag(int argc, char** argv, const char* name,
                    const std::string& def) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return def;
}

std::int64_t IntFlag(int argc, char** argv, const char* name,
                     std::int64_t def) {
  const std::string s =
      StrFlag(argc, argv, name, std::to_string(def));
  return std::atoll(s.c_str());
}

bool BoolFlag(int argc, char** argv, const char* name) {
  const std::string flag = std::string("--") + name;
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

/// True when `value` is one of `accepted`; otherwise names the accepted
/// values of --`name` on stderr.
bool CheckChoice(const char* name, const std::string& value,
                 std::initializer_list<const char*> accepted) {
  std::string list;
  for (const char* choice : accepted) {
    if (value == choice) return true;
    list += list.empty() ? "" : "|";
    list += choice;
  }
  std::fprintf(stderr, "--%s must be %s (got '%s')\n", name, list.c_str(),
               value.c_str());
  return false;
}

Workload MakeWorkload(const std::string& name, std::size_t machines,
                      std::size_t txns) {
  if (name == "tpcc") {
    TpccOptions o;
    o.num_machines = machines;
    o.num_txns = txns;
    return MakeTpccWorkload(o);
  }
  if (name == "tpce") {
    TpceOptions o;
    o.num_machines = machines;
    o.num_txns = txns;
    return MakeTpceWorkload(o);
  }
  MicroOptions o;
  o.num_machines = machines;
  o.records_per_machine = 20'000;
  o.hot_set_size = 200;
  o.num_txns = txns;
  return MakeMicroWorkload(o);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string workload_name = StrFlag(argc, argv, "workload", "micro");
  const std::string engine = StrFlag(argc, argv, "engine", "both");
  const auto machines =
      static_cast<std::size_t>(IntFlag(argc, argv, "machines", 4));
  const auto txns = static_cast<std::size_t>(IntFlag(argc, argv, "txns", 5000));
  const auto sink = static_cast<std::size_t>(IntFlag(argc, argv, "sink", 100));
  const bool use_runtime = BoolFlag(argc, argv, "runtime");
  const bool gstore = BoolFlag(argc, argv, "gstore");
  const std::string transport_name =
      StrFlag(argc, argv, "transport", "direct");
  const double drop = std::atof(StrFlag(argc, argv, "drop", "0").c_str());
  const double dup = std::atof(StrFlag(argc, argv, "dup", "0").c_str());
  const double delay = std::atof(StrFlag(argc, argv, "delay", "0").c_str());
  const std::string crash = StrFlag(argc, argv, "crash", "");
  const bool no_recover = BoolFlag(argc, argv, "no-recover");
  const auto standbys =
      static_cast<std::size_t>(IntFlag(argc, argv, "standbys", 0));
  const auto checkpoint_every = static_cast<SinkEpoch>(
      IntFlag(argc, argv, "checkpoint-every", 0));
  const std::string chaos = StrFlag(argc, argv, "chaos", "");
  const bool chaos_extended = BoolFlag(argc, argv, "chaos-extended");
  const std::string partition_specs = StrFlag(argc, argv, "partition", "");
  const std::string slow_link_specs = StrFlag(argc, argv, "slow-link", "");
  const bool force_detector = BoolFlag(argc, argv, "detector");
  const std::string resize = StrFlag(argc, argv, "resize", "");
  const std::string resize_policy =
      StrFlag(argc, argv, "resize-policy", "rehash");
  const std::string trace_path = StrFlag(argc, argv, "trace", "");
  const std::string metrics_path = StrFlag(argc, argv, "metrics", "");
  const std::string metrics_stream_path =
      StrFlag(argc, argv, "metrics-stream", "");
  const auto sample_every = static_cast<std::uint64_t>(
      IntFlag(argc, argv, "sample-every", 10'000));
  const std::string serve_metrics = StrFlag(argc, argv, "serve-metrics", "");
  // Accept "N" or the stride form "1/N"; both mean every Nth txn id.
  const std::string txn_sample_str = StrFlag(argc, argv, "txn-sample", "");
  std::uint64_t txn_sample = 0;
  if (!txn_sample_str.empty()) {
    const auto slash = txn_sample_str.find('/');
    txn_sample = static_cast<std::uint64_t>(std::atoll(
        slash == std::string::npos ? txn_sample_str.c_str()
                                   : txn_sample_str.c_str() + slash + 1));
  }
  const std::string flight_path = StrFlag(argc, argv, "flight-recorder", "");
  if (!CheckChoice("workload", workload_name, {"micro", "tpcc", "tpce"}) ||
      !CheckChoice("engine", engine, {"calvin", "tpart", "both"}) ||
      !CheckChoice("transport", transport_name, {"direct", "inproc", "tcp"}) ||
      !CheckChoice("resize-policy", resize_policy, {"rehash", "hotkey"})) {
    return 2;
  }

  // The simulator's recorder runs on virtual time (deterministic,
  // diffable traces); the threaded runtime's on the steady clock.
  std::unique_ptr<obs::TraceRecorder> recorder;
  if (!trace_path.empty()) {
    recorder = std::make_unique<obs::TraceRecorder>(
        use_runtime ? obs::TraceRecorder::ClockDomain::kSteady
                    : obs::TraceRecorder::ClockDomain::kManual);
    obs::InstallGlobalTrace(recorder.get());
  }
  obs::MetricsRegistry registry;

  // Black-box flight recorder: always-on for runtime runs (bounded
  // per-thread rings, compact binary events), dumped as a Chrome-trace
  // post-mortem when a fault path fires. --flight-recorder only chooses
  // where dumps land.
  std::unique_ptr<obs::FlightRecorder> flight;
  if (use_runtime) {
    obs::FlightRecorder::Options fopts;
    fopts.dump_path = flight_path;
    flight = std::make_unique<obs::FlightRecorder>(fopts);
    obs::InstallGlobalFlightRecorder(flight.get());
  }

  // In-flight metrics sampling: wall-time cadence on the threaded
  // runtime, sink-epoch cadence (deterministic) on the simulator.
  std::unique_ptr<obs::LiveSampler> sampler;
  if (!metrics_stream_path.empty() || !serve_metrics.empty()) {
    sampler = std::make_unique<obs::LiveSampler>(
        use_runtime ? obs::LiveSampler::Domain::kWall
                    : obs::LiveSampler::Domain::kEpoch);
  }
  std::unique_ptr<obs::MetricsHttpServer> http;
  if (!serve_metrics.empty()) {
    http = std::make_unique<obs::MetricsHttpServer>();
    const Status s = http->Start(
        static_cast<std::uint16_t>(std::atoi(serve_metrics.c_str())),
        [&sampler, &registry] {
          return sampler != nullptr && sampler->samples() > 0
                     ? sampler->PrometheusText()
                     : registry.PrometheusText();
        });
    if (!s.ok()) {
      std::fprintf(stderr, "--serve-metrics: %s\n", s.ToString().c_str());
      return 2;
    }
    std::printf("serving /metrics and /healthz on 127.0.0.1:%u\n",
                http->port());
  }

  // Writes the trace/metrics artifacts; every exit path past flag
  // parsing funnels through here.
  const auto finish = [&](int rc) {
    if (recorder != nullptr) {
      obs::InstallGlobalTrace(nullptr);
      const Status s = recorder->WriteJson(trace_path);
      if (s.ok()) {
        std::printf("trace: %s (%zu events)\n", trace_path.c_str(),
                    recorder->event_count());
      } else {
        std::fprintf(stderr, "trace write failed: %s\n",
                     s.ToString().c_str());
        if (rc == 0) rc = 1;
      }
    }
    if (!metrics_path.empty()) {
      const bool as_json =
          metrics_path.size() >= 5 &&
          metrics_path.compare(metrics_path.size() - 5, 5, ".json") == 0;
      const Status s = registry.WriteFile(
          metrics_path, as_json ? registry.Json() : registry.PrometheusText());
      if (s.ok()) {
        std::printf("metrics: %s (%zu series)\n", metrics_path.c_str(),
                    registry.size());
      } else {
        std::fprintf(stderr, "metrics write failed: %s\n",
                     s.ToString().c_str());
        if (rc == 0) rc = 1;
      }
    }
    if (http != nullptr) http->Stop();
    if (sampler != nullptr && !metrics_stream_path.empty()) {
      const Status s = sampler->WriteJsonl(metrics_stream_path);
      if (s.ok()) {
        std::printf("metrics stream: %s (%zu samples)\n",
                    metrics_stream_path.c_str(), sampler->samples());
      } else {
        std::fprintf(stderr, "metrics stream write failed: %s\n",
                     s.ToString().c_str());
        if (rc == 0) rc = 1;
      }
    }
    if (flight != nullptr) {
      obs::InstallGlobalFlightRecorder(nullptr);
      if (flight->dumps() > 0) {
        std::printf("flight recorder: %zu post-mortem dump(s)%s%s\n",
                    flight->dumps(), flight_path.empty() ? "" : " -> ",
                    flight_path.c_str());
      }
    }
    return rc;
  };

  const Workload w = MakeWorkload(workload_name, machines, txns);
  std::printf("%s: %zu machines, %zu txns, %.0f%% distributed\n",
              w.name.c_str(), machines, w.requests.size(),
              100.0 * MeasureDistributedRate(w.requests, *w.partition_map));

  if (use_runtime) {
    LocalClusterOptions opts;
    std::string chaos_schedule;
    opts.scheduler.sink_size = sink;
    if (gstore) {
      opts.scheduler.sink_size = 1;
      opts.scheduler.graph.always_write_back = true;
      opts.scheduler.graph.sticky_cache = false;
      opts.scheduler.optimize_plans = false;
    }
    if (transport_name == "inproc") {
      opts.transport.kind = TransportKind::kInProcess;
    } else if (transport_name == "tcp") {
      opts.transport.kind = TransportKind::kTcp;
    }
    opts.transport.faults.drop_prob = drop;
    opts.transport.faults.duplicate_prob = dup;
    opts.transport.faults.delay_prob = delay;
    opts.coordinator.standbys = standbys;
    if (!crash.empty()) {
      // Comma list of events in firing order: M@EPOCH crash-stops a
      // worker, seq@EPOCH crash-stops the coordinator leader.
      for (std::size_t pos = 0; pos < crash.size();) {
        std::size_t comma = crash.find(',', pos);
        if (comma == std::string::npos) comma = crash.size();
        const std::string item = crash.substr(pos, comma - pos);
        pos = comma + 1;
        const auto at = item.find('@');
        if (at == std::string::npos) {
          std::fprintf(stderr,
                       "--crash items must look like M@EPOCH or seq@EPOCH "
                       "(got '%s')\n",
                       item.c_str());
          return 2;
        }
        // seq events may carry a "+revive@E'" tail: the leader pauses at
        // E instead of dying and wakes as a zombie at E'.
        const std::string window = item.substr(at + 1);
        const auto plus = window.find("+revive@");
        const SinkEpoch epoch = static_cast<SinkEpoch>(
            std::atoll(window.substr(0, plus).c_str()));
        if (item.compare(0, at, "seq") == 0) {
          if (standbys == 0) {
            std::fprintf(stderr,
                         "--crash=seq@EPOCH requires --standbys>=1\n");
            return 2;
          }
          SinkEpoch revive = 0;
          if (plus != std::string::npos) {
            revive = static_cast<SinkEpoch>(
                std::atoll(window.substr(plus + 8).c_str()));
            if (revive <= epoch) {
              std::fprintf(stderr,
                           "--crash=seq@E+revive@E' needs E' > E (got "
                           "'%s')\n",
                           item.c_str());
              return 2;
            }
          }
          opts.crash.coordinator_at.push_back(epoch);
          opts.crash.coordinator_revive_at.push_back(revive);
          continue;
        }
        if (plus != std::string::npos) {
          std::fprintf(stderr,
                       "+revive@E' applies to seq events only (got '%s')\n",
                       item.c_str());
          return 2;
        }
        const auto machine =
            static_cast<MachineId>(std::atoll(item.substr(0, at).c_str()));
        opts.crash.events.push_back({machine, epoch});
      }
      opts.crash.recover = !no_recover;
      if (opts.crash.enabled()) opts.detector.enabled = true;
    }
    if (!chaos.empty()) {
      if (!crash.empty()) {
        std::fprintf(stderr, "--chaos excludes --crash\n");
        return 2;
      }
      // Spread the crashes over roughly the run's sinking rounds.
      const SinkEpoch span =
          std::max<SinkEpoch>(static_cast<SinkEpoch>(txns / sink), 12);
      const std::string schedule = ApplySeededChaos(
          static_cast<std::uint64_t>(std::atoll(chaos.c_str())), machines,
          span, opts, chaos_extended);
      std::printf("%s\n", schedule.c_str());
      chaos_schedule = schedule;
    }
    if (!partition_specs.empty()) {
      // ';'-separated: partition group lists use commas internally.
      for (std::size_t pos = 0; pos < partition_specs.size();) {
        std::size_t semi = partition_specs.find(';', pos);
        if (semi == std::string::npos) semi = partition_specs.size();
        const Result<PartitionEvent> ev =
            ParsePartitionSpec(partition_specs.substr(pos, semi - pos));
        if (!ev.ok()) {
          std::fprintf(stderr, "--partition: %s\n",
                       ev.status().ToString().c_str());
          return 2;
        }
        opts.transport.faults.partition.partitions.push_back(*ev);
        pos = semi + 1;
      }
    }
    if (!slow_link_specs.empty()) {
      for (std::size_t pos = 0; pos < slow_link_specs.size();) {
        std::size_t comma = slow_link_specs.find(',', pos);
        if (comma == std::string::npos) comma = slow_link_specs.size();
        const Result<SlowLinkEvent> ev =
            ParseSlowLinkSpec(slow_link_specs.substr(pos, comma - pos));
        if (!ev.ok()) {
          std::fprintf(stderr, "--slow-link: %s\n",
                       ev.status().ToString().c_str());
          return 2;
        }
        opts.transport.faults.partition.slow_links.push_back(*ev);
        pos = comma + 1;
      }
    }
    // --detector arms the phi-accrual watchdog even without --crash:
    // the gray-failure drill is "slow links and stragglers, detector
    // on, zero crashes injected".
    if (force_detector) opts.detector.enabled = true;
    // Post-mortem header (black-box analysis needs the run's identity):
    // build id, the derived chaos schedule, and the link-fault summary
    // land in the flight recorder's dump as "runContext".
    if (flight != nullptr) {
      std::ostringstream ctx;
      ctx << "build " << __DATE__ << " " << __TIME__;
      if (!chaos_schedule.empty()) ctx << "; " << chaos_schedule;
      if (!crash.empty()) ctx << "; crash " << crash;
      if (opts.transport.faults.partition.Any()) {
        ctx << "; links " << opts.transport.faults.partition.Summary();
      }
      flight->SetRunContext(ctx.str());
    }
    if (!resize.empty()) {
      // Comma list of signed deltas pinned to cut epochs: +1@40,-1@80.
      for (std::size_t pos = 0; pos < resize.size();) {
        std::size_t comma = resize.find(',', pos);
        if (comma == std::string::npos) comma = resize.size();
        const std::string item = resize.substr(pos, comma - pos);
        const auto at = item.find('@');
        const int delta =
            at == std::string::npos ? 0 : std::atoi(item.substr(0, at).c_str());
        if (delta == 0) {
          std::fprintf(stderr,
                       "--resize items must look like +K@EPOCH or -K@EPOCH "
                       "(got '%s')\n",
                       item.c_str());
          return 2;
        }
        LocalClusterOptions::ResizeEvent event;
        event.at_epoch =
            static_cast<SinkEpoch>(std::atoll(item.substr(at + 1).c_str()));
        event.delta = delta;
        opts.resize.events.push_back(event);
        pos = comma + 1;
      }
      if (resize_policy == "hotkey") {
        opts.resize.policy = MigrationPolicy::kHotKey;
      }
    }
    opts.checkpoint_every = checkpoint_every;
    if (sampler != nullptr) {
      opts.live_sampler = sampler.get();
      opts.sample_every_us = std::max<std::uint64_t>(sample_every, 100);
    }
    opts.txn_sample = txn_sample;
    LocalCluster cluster(&w, opts);
    if (engine == "calvin" || engine == "both") {
      const ClusterRunOutcome out = cluster.RunCalvin();
      std::printf("calvin (runtime): committed=%llu aborted=%llu\n",
                  static_cast<unsigned long long>(out.committed),
                  static_cast<unsigned long long>(out.aborted));
      if (out.transport.messages_sent > 0) {
        std::printf("  transport: %s\n", out.transport.Summary().c_str());
      }
    }
    if (engine == "tpart" || engine == "both") {
      const ClusterRunOutcome out = cluster.RunTPart();
      registry.SetCounter("tpart_committed_total",
                          static_cast<double>(out.committed),
                          "Transactions committed");
      registry.SetCounter("tpart_aborted_total",
                          static_cast<double>(out.aborted),
                          "Transactions aborted");
      if (out.transport.messages_sent > 0) out.transport.PublishTo(registry);
      out.pipeline.PublishTo(registry);
      if (out.recovery.crashes_injected > 0) {
        out.recovery.PublishTo(registry);
      }
      if (out.checkpoint.checkpoints_taken > 0) {
        out.checkpoint.PublishTo(registry);
      }
      if (out.migration.membership_steps > 0) {
        out.migration.PublishTo(registry);
      }
      if (out.failover.log_appends > 0 ||
          out.failover.coordinator_crashes > 0) {
        out.failover.PublishTo(registry);
      }
      std::printf("tpart  (runtime): committed=%llu aborted=%llu\n",
                  static_cast<unsigned long long>(out.committed),
                  static_cast<unsigned long long>(out.aborted));
      if (out.transport.messages_sent > 0) {
        std::printf("  transport: %s\n", out.transport.Summary().c_str());
      }
      const PipelineStats& p = out.pipeline;
      std::printf("  pipeline: %s\n", p.Summary().c_str());
      std::printf("  admission->commit latency: p50=%llu us p99=%llu us "
                  "(%zu samples)\n",
                  static_cast<unsigned long long>(
                      p.admit_to_commit_us.Quantile(0.5)),
                  static_cast<unsigned long long>(
                      p.admit_to_commit_us.Quantile(0.99)),
                  p.admit_to_commit_us.count());
      if (!out.fault.ok()) {
        std::printf("  fault: %s\n", out.fault.ToString().c_str());
        return finish(1);
      }
      if (out.recovery.crashes_injected > 0) {
        std::printf("  recovery: %s\n", out.recovery.Summary().c_str());
      }
      if (out.checkpoint.checkpoints_taken > 0) {
        std::printf("  checkpoint: %s\n", out.checkpoint.Summary().c_str());
      }
      if (out.migration.membership_steps > 0) {
        std::printf("  migration: %s\n", out.migration.Summary().c_str());
      }
      if (out.failover.log_appends > 0 ||
          out.failover.coordinator_crashes > 0) {
        std::printf("  failover: %s\n", out.failover.Summary().c_str());
      }
    }
    return finish(0);
  }

  const auto seq = w.SequencedRequests();
  if (engine == "calvin" || engine == "both") {
    CalvinSimOptions o;
    o.num_machines = machines;
    const RunStats stats = RunCalvinSim(o, *w.partition_map, seq);
    std::printf("calvin (sim): %s\n", stats.Summary().c_str());
  }
  if (engine == "tpart" || engine == "both") {
    TPartSimOptions o;
    o.num_machines = machines;
    o.scheduler.sink_size = sink;
    if (gstore) o = MakeGStoreSimOptions(o);
    o.live_sampler = sampler.get();
    const RunStats stats = RunTPartSim(o, w.partition_map, seq);
    stats.PublishTo(registry);
    std::printf("tpart  (sim): %s\n", stats.Summary().c_str());
    std::printf("  scheduling: %.2f ms total, %llu pushes eliminated, "
                "peak T-graph %zu\n",
                stats.scheduling_seconds * 1e3,
                static_cast<unsigned long long>(stats.pushes_eliminated),
                stats.max_tgraph_size);
  }
  return finish(0);
}
