// Live observability plane tests: the metric-name convention and the
// audit of every PublishTo() implementation against it, the LiveSampler
// in both clock domains (wall-clock background thread and deterministic
// sink-epoch ticks), the black-box flight recorder's ring/overwrite/
// post-mortem behaviour, the loopback /metrics HTTP endpoint, the
// packed per-transaction trace context, and an end-to-end streaming
// run with the sampler armed and per-transaction timelines sampled.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "metrics/run_stats.h"
#include "obs/flight_recorder.h"
#include "obs/live_sampler.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/metrics_http.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "runtime/cluster.h"
#include "workload/micro.h"

namespace tpart {
namespace {

// ---------------------------------------------------------------------
// Metric-name convention.
// ---------------------------------------------------------------------

TEST(MetricNameTest, AcceptsConformingNames) {
  using obs::MetricKind;
  EXPECT_EQ(obs::CheckMetricName("tpart_committed_total",
                                 MetricKind::kCounter),
            "");
  EXPECT_EQ(obs::CheckMetricName("tpart_pipeline_admit_to_commit_us",
                                 MetricKind::kHistogram),
            "");
  EXPECT_EQ(obs::CheckMetricName("tpart_failover_detection_latency_us",
                                 MetricKind::kGauge),
            "");
  EXPECT_EQ(
      obs::CheckMetricName("tpart_live_tgraph_size", MetricKind::kGauge), "");
  EXPECT_EQ(obs::CheckMetricName("tpart_live_distributed_ratio",
                                 MetricKind::kGauge),
            "");
  EXPECT_EQ(obs::CheckMetricName("tpart_checkpoint_last_epoch",
                                 MetricKind::kGauge),
            "");
  EXPECT_EQ(
      obs::CheckMetricName("tpart_live_term_index", MetricKind::kGauge), "");
}

TEST(MetricNameTest, RejectsNonConformingNames) {
  using obs::MetricKind;
  // Wrong prefix.
  EXPECT_NE(obs::CheckMetricName("committed_total", MetricKind::kCounter),
            "");
  // Illegal characters and underscore abuse.
  EXPECT_NE(obs::CheckMetricName("tpart_Committed_total",
                                 MetricKind::kCounter),
            "");
  EXPECT_NE(obs::CheckMetricName("tpart__double_total", MetricKind::kCounter),
            "");
  EXPECT_NE(obs::CheckMetricName("tpart_trailing_", MetricKind::kGauge), "");
  // Counter without _total.
  EXPECT_NE(obs::CheckMetricName("tpart_committed", MetricKind::kCounter),
            "");
  // Histogram without a measurement unit.
  EXPECT_NE(obs::CheckMetricName("tpart_latency", MetricKind::kHistogram),
            "");
  // Gauge masquerading as a counter, and gauge without a unit token.
  EXPECT_NE(obs::CheckMetricName("tpart_queue_total", MetricKind::kGauge),
            "");
  EXPECT_NE(obs::CheckMetricName("tpart_queue_peak", MetricKind::kGauge), "");
}

// The audit: publish every stats struct — all fields nonzero so no
// publish path is skipped — and validate every registered (name, kind)
// against the convention.
TEST(MetricNameTest, EveryPublishedMetricNameConforms) {
  RunStats stats;
  stats.txns = 100;
  stats.committed = 90;
  stats.aborted = 10;
  stats.makespan = 1'000'000;
  stats.latency.Add(12.0);
  stats.latency_us.Add(12);
  stats.network_stalled_txns = 5;
  stats.stall_wait.Add(7.0);
  stats.distributed_txns = 40;
  stats.scheduling_seconds = 0.25;
  stats.pushes_eliminated = 11;
  stats.max_tgraph_size = 64;
  stats.sticky_hits = 3;

  TransportStats t;
  t.messages_sent = t.messages_delivered = 10;
  t.batches_sent = 2;
  t.batched_messages = 8;
  t.bytes_out = t.bytes_in = 4096;
  t.packets_out = t.packets_in = 12;
  t.acks_sent = 12;
  t.retries = 1;
  t.duplicates_dropped = 1;
  t.faults_dropped = t.faults_duplicated = t.faults_delayed = 1;
  t.backpressure_waits = 1;
  t.queue_high_water = 6;

  PipelineStats p;
  p.admitted = 100;
  p.dummies = 4;
  p.batches = 10;
  p.plans = 10;
  p.backpressure_waits = 2;
  p.batch_queue_high_water = 3;
  p.plan_queue_high_water = 3;
  p.epoch_queue_high_water = 3;
  p.machine_inbound_high_water = 5;
  p.admission_seconds = 0.5;
  p.admit_to_commit_us.Add(120);

  RecoveryStats r;
  r.crashes_injected = 1;
  r.crashed_machine = 1;
  r.crash_epoch = 3;
  r.detection_latency_us = 900;
  r.replayed_txns = 40;
  r.checkpoint_records = 200;
  r.downtime_us = 2500;

  FailoverStats f;
  f.coordinator_crashes = 1;
  f.elections_won = 1;
  f.log_appends = 20;
  f.log_acks = 20;
  f.committed_batches = 10;
  f.replayed_batches = 10;
  f.catchup_rounds = 4;
  f.reshipped_rounds = 2;
  f.dueling_claims = 1;
  f.detection_latency_us = 800;
  f.election_us = 300;
  f.replan_us = 1500;
  f.plan_stream_gap_us = 2600;
  f.leader = 1;
  f.phase_detection_us.Add(800);
  f.phase_election_us.Add(300);
  f.phase_replan_us.Add(1500);
  f.phase_plan_stream_gap_us.Add(2600);

  CheckpointStats c;
  c.checkpoints_taken = 3;
  c.last_epoch = 9;
  c.records_captured = 600;
  c.state_keys_captured = 450;
  c.truncated_request_entries = 100;
  c.truncated_network_messages = 50;
  c.capture_us = 1200;
  c.request_log_bytes_peak = 8192;
  c.network_log_bytes_peak = 4096;

  MigrationStats m;
  m.membership_steps = 2;
  m.routes = 4;
  m.keys_moved = 300;
  m.records_moved = 280;
  m.bytes_shipped = 16384;
  m.chunks_shipped = 8;
  m.duplicate_chunks_dropped = 1;
  m.forced_checkpoints = 2;
  m.barrier_us = 2200;
  m.phase_barrier_us.Add(1100);
  m.phase_barrier_us.Add(1100);
  m.last_cut_epoch = 12;

  obs::MetricsRegistry registry;
  stats.PublishTo(registry);
  t.PublishTo(registry);
  p.PublishTo(registry);
  r.PublishTo(registry);
  f.PublishTo(registry);
  c.PublishTo(registry);
  m.PublishTo(registry);
  ASSERT_GT(registry.size(), 0u);

  std::size_t audited = 0;
  registry.ForEach([&](const std::string& name, obs::MetricKind kind) {
    ++audited;
    const std::string why = obs::CheckMetricName(name, kind);
    EXPECT_TRUE(why.empty()) << name << ": " << why;
  });
  // Every struct published: well over the core RunStats entries alone.
  EXPECT_GE(audited, 60u);
}

// ---------------------------------------------------------------------
// LiveSampler.
// ---------------------------------------------------------------------

TEST(LiveSamplerTest, WallDomainSamplesPeriodically) {
  obs::LiveSampler sampler(obs::LiveSampler::Domain::kWall);
  int calls = 0;
  sampler.set_source([&](obs::LiveSampler::Sample& s) {
    ++calls;
    s.emplace_back("tpart_live_committed_total", 10.0 * calls);
    s.emplace_back("tpart_live_tgraph_size", 5.0);
  });
  sampler.StartWall(/*interval_us=*/1000);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  sampler.StopWall();  // takes one final sample
  sampler.ClearSource();

  EXPECT_GE(sampler.samples(), 1u);
  EXPECT_EQ(sampler.samples(), static_cast<std::size_t>(calls));
  EXPECT_EQ(sampler.Latest("tpart_live_tgraph_size"), 5.0);
  EXPECT_EQ(sampler.Latest("tpart_live_committed_total"), 10.0 * calls);
  EXPECT_EQ(sampler.Latest("tpart_live_absent_size"), 0.0);

  const std::string jsonl = sampler.Jsonl();
  EXPECT_NE(jsonl.find("\"seq\":0"), std::string::npos);
  EXPECT_NE(jsonl.find("\"ts_us\":"), std::string::npos);
  EXPECT_EQ(jsonl.find("\"epoch\":"), std::string::npos);

  const std::string prom = sampler.PrometheusText();
  EXPECT_NE(prom.find("# TYPE tpart_live_tgraph_size gauge"),
            std::string::npos);
  EXPECT_NE(prom.find("tpart_live_tgraph_size 5"), std::string::npos);
}

TEST(LiveSamplerTest, EpochDomainHonorsCadenceAndDedup) {
  obs::LiveSampler sampler(obs::LiveSampler::Domain::kEpoch);
  sampler.set_epoch_every(2);
  for (std::uint64_t epoch = 1; epoch <= 6; ++epoch) {
    obs::LiveSampler::Sample s;
    s.emplace_back("tpart_live_plans_total", static_cast<double>(epoch));
    sampler.SampleEpoch(epoch, s);
    sampler.SampleEpoch(epoch, s);  // duplicate tick: must not resample
  }
  // Epochs 2, 4, 6 on cadence, each once.
  EXPECT_EQ(sampler.samples(), 3u);
  EXPECT_EQ(sampler.Latest("tpart_live_plans_total"), 6.0);
  const std::string jsonl = sampler.Jsonl();
  EXPECT_NE(jsonl.find("{\"seq\":0,\"epoch\":2,"), std::string::npos);
  EXPECT_NE(jsonl.find("{\"seq\":2,\"epoch\":6,"), std::string::npos);
  EXPECT_EQ(jsonl.find("\"epoch\":3"), std::string::npos);
  EXPECT_EQ(jsonl.find("\"ts_us\":"), std::string::npos);
}

TEST(LiveSamplerTest, EpochDomainIsDeterministicAndSortsKeys) {
  auto run = [] {
    obs::LiveSampler sampler(obs::LiveSampler::Domain::kEpoch);
    for (std::uint64_t epoch = 1; epoch <= 4; ++epoch) {
      obs::LiveSampler::Sample s;
      // Deliberately unsorted: the renderer must sort by name.
      s.emplace_back("tpart_live_tgraph_size", 7.0);
      s.emplace_back("tpart_live_committed_total",
                     static_cast<double>(100 * epoch));
      s.emplace_back("tpart_live_distributed_ratio", 0.25);
      sampler.SampleEpoch(epoch, s);
    }
    return sampler.Jsonl();
  };
  const std::string a = run();
  const std::string b = run();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_NE(
      a.find("{\"seq\":0,\"epoch\":1,\"tpart_live_committed_total\":100,"
             "\"tpart_live_distributed_ratio\":0.25,"
             "\"tpart_live_tgraph_size\":7}"),
      std::string::npos)
      << a;
}

TEST(LiveSamplerTest, WriteJsonlRoundTrips) {
  obs::LiveSampler sampler(obs::LiveSampler::Domain::kEpoch);
  obs::LiveSampler::Sample s;
  s.emplace_back("tpart_live_committed_total", 42.0);
  sampler.SampleEpoch(1, s);

  const std::string path = ::testing::TempDir() + "live_obs_stream.jsonl";
  ASSERT_TRUE(sampler.WriteJsonl(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[256] = {0};
  const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(std::string(buf, n), sampler.Jsonl());
}

// ---------------------------------------------------------------------
// Flight recorder.
// ---------------------------------------------------------------------

TEST(FlightRecorderTest, RecordsAndDumpsChromeTracePostmortem) {
  obs::FlightRecorder rec;
  rec.Record(obs::FlightEvent::kAdmitBatch, 0, 1, 100);
  rec.Record(obs::FlightEvent::kScheduleRound, 0, 1, 20);
  std::thread t([&] {
    rec.Record(obs::FlightEvent::kExecute, 2, 7, 1);
    rec.Record(obs::FlightEvent::kCrashStop, 2, 1, 3);
  });
  t.join();
  EXPECT_EQ(rec.recorded(), 4u);
  EXPECT_EQ(rec.dumps(), 0u);

  ASSERT_TRUE(rec.DumpPostmortem("crash").ok());
  EXPECT_EQ(rec.dumps(), 1u);
  const std::string json = rec.last_dump_json();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"admit_batch\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"schedule_round\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"execute\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"crash_stop\""), std::string::npos);
  // The dump marker and the reason-carrying post-mortem event close the
  // trace, in that order.
  const std::size_t dump_at = json.find("\"name\":\"postmortem_dump\"");
  const std::size_t reason_at = json.find("\"reason\":\"crash\"");
  ASSERT_NE(dump_at, std::string::npos);
  ASSERT_NE(reason_at, std::string::npos);
  EXPECT_LT(dump_at, reason_at);
}

TEST(FlightRecorderTest, BoundedRingOverwritesOldest) {
  obs::FlightRecorder::Options o;
  o.ring_size = 16;  // the enforced minimum
  obs::FlightRecorder rec(o);
  for (std::uint64_t i = 0; i < 100; ++i) {
    rec.Record(obs::FlightEvent::kExecute, 1, /*txn=*/i, /*epoch=*/1);
  }
  EXPECT_EQ(rec.recorded(), 100u);
  const std::string json = rec.DumpJson();
  // Only the newest 16 survive: txn 84..99.
  EXPECT_EQ(json.find("\"a\":83,"), std::string::npos);
  EXPECT_NE(json.find("\"a\":84,"), std::string::npos);
  EXPECT_NE(json.find("\"a\":99,"), std::string::npos);
}

TEST(FlightRecorderTest, DumpWritesFileAndGlobalInstallWorks) {
  const std::string path = ::testing::TempDir() + "live_obs_postmortem.json";
  obs::FlightRecorder::Options o;
  o.dump_path = path;
  obs::FlightRecorder rec(o);
  EXPECT_EQ(obs::InstallGlobalFlightRecorder(&rec), nullptr);
  EXPECT_EQ(obs::GlobalFlightRecorder(), &rec);

#if !defined(TPART_TRACING_DISABLED)
  TPART_FLIGHT(obs::FlightEvent::kStall, 1, 1, 0);
  TPART_FLIGHT_DUMP("stall");
  EXPECT_EQ(rec.recorded(), 2u);  // kStall + the kDump marker
  EXPECT_EQ(rec.dumps(), 1u);
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string text(1 << 16, '\0');
  text.resize(std::fread(text.data(), 1, text.size(), f));
  std::fclose(f);
  EXPECT_EQ(text, rec.last_dump_json());
  EXPECT_NE(text.find("\"name\":\"stall\""), std::string::npos);
  EXPECT_NE(text.find("\"reason\":\"stall\""), std::string::npos);
#else
  // Macros compile to nothing; the recorder itself still works directly.
  TPART_FLIGHT(obs::FlightEvent::kStall, 1, 1, 0);
  TPART_FLIGHT_DUMP("stall");
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_EQ(rec.dumps(), 0u);
#endif

  EXPECT_EQ(obs::InstallGlobalFlightRecorder(nullptr), &rec);
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, EscapesReasonAndDropsGarbledSlots) {
  obs::FlightRecorder rec;
  rec.Record(obs::FlightEvent::kExecute, 1, 1, 1);
  const std::string json = rec.DumpJson("line1\nline2 \"quoted\"");
  EXPECT_NE(json.find("line1\\nline2 \\\"quoted\\\""), std::string::npos);
  EXPECT_EQ(obs::FlightEventName(static_cast<obs::FlightEvent>(0)), nullptr);
  EXPECT_EQ(obs::FlightEventName(static_cast<obs::FlightEvent>(9999)),
            nullptr);
}

// ---------------------------------------------------------------------
// /metrics endpoint.
// ---------------------------------------------------------------------

std::string HttpGet(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  const std::string req = "GET " + path +
                          " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                          "Connection: close\r\n\r\n";
  std::size_t off = 0;
  while (off < req.size()) {
    const ssize_t n = ::send(fd, req.data() + off, req.size() - off, 0);
    if (n <= 0) {
      ::close(fd);
      return {};
    }
    off += static_cast<std::size_t>(n);
  }
  std::string resp;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    resp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return resp;
}

TEST(MetricsHttpTest, ServesMetricsAndHealthOnLoopback) {
  obs::MetricsHttpServer server;
  ASSERT_TRUE(server
                  .Start(/*port=*/0,
                         [] {
                           return std::string(
                               "tpart_live_committed_total 42\n");
                         })
                  .ok());
  ASSERT_TRUE(server.running());
  ASSERT_NE(server.port(), 0);

  const std::string metrics = HttpGet(server.port(), "/metrics");
  EXPECT_NE(metrics.find("200"), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("tpart_live_committed_total 42"), std::string::npos)
      << metrics;

  const std::string health = HttpGet(server.port(), "/healthz");
  EXPECT_NE(health.find("200"), std::string::npos) << health;
  EXPECT_NE(health.find("ok"), std::string::npos) << health;

  const std::string missing = HttpGet(server.port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos) << missing;

  server.Stop();
  EXPECT_FALSE(server.running());
}

// ---------------------------------------------------------------------
// Trace context.
// ---------------------------------------------------------------------

TEST(TraceContextTest, PacksAndUnpacksLosslessly) {
  EXPECT_FALSE(obs::TraceCtxSampled(0));
  const std::uint64_t ctx = obs::PackTraceCtx(/*origin_machine=*/11,
                                              /*term=*/5);
  EXPECT_TRUE(obs::TraceCtxSampled(ctx));
  EXPECT_EQ(obs::TraceCtxOrigin(ctx), 11u);
  EXPECT_EQ(obs::TraceCtxTerm(ctx), 5u);
  // Term 0 (no failover yet) still marks the context sampled.
  const std::uint64_t base = obs::PackTraceCtx(0, 0);
  EXPECT_TRUE(obs::TraceCtxSampled(base));
  EXPECT_EQ(obs::TraceCtxOrigin(base), 0u);
  EXPECT_EQ(obs::TraceCtxTerm(base), 0u);
}

TEST(TraceContextTest, SampledTxnStrideIsDeterministic) {
  EXPECT_FALSE(obs::SampledTxn(4, 0));  // 0 disables sampling
  EXPECT_TRUE(obs::SampledTxn(4, 1));
  EXPECT_TRUE(obs::SampledTxn(0, 8));
  EXPECT_TRUE(obs::SampledTxn(16, 8));
  EXPECT_FALSE(obs::SampledTxn(17, 8));
}

// ---------------------------------------------------------------------
// End to end: streaming run with the sampler armed and per-transaction
// timelines sampled.
// ---------------------------------------------------------------------

MicroOptions SmallMicro() {
  MicroOptions o;
  o.num_machines = 3;
  o.records_per_machine = 200;
  o.hot_set_size = 25;
  o.num_txns = 405;
  return o;
}

TEST(LiveObsClusterTest, StreamingRunFeedsEpochSamplerWithValidNames) {
  const Workload w = MakeMicroWorkload(SmallMicro());
  obs::LiveSampler sampler(obs::LiveSampler::Domain::kEpoch);

  LocalClusterOptions opts;
  opts.scheduler.sink_size = 20;
  opts.transport.kind = TransportKind::kDirect;
  opts.live_sampler = &sampler;
  LocalCluster cluster(&w, opts);
  const ClusterRunOutcome out = cluster.RunTPart();
  ASSERT_TRUE(out.fault.ok()) << out.fault.ToString();

  // One line per fresh sink epoch.
  EXPECT_EQ(sampler.samples(), out.pipeline.plans);
  EXPECT_GT(sampler.Latest("tpart_live_plans_total"), 0.0);
  EXPECT_GT(sampler.Latest("tpart_live_committed_total"), 0.0);

  // Every streamed key obeys the naming convention (counter or gauge,
  // told apart by the _total suffix).
  const std::string jsonl = sampler.Jsonl();
  std::size_t at = 0;
  std::size_t keys = 0;
  while ((at = jsonl.find("\"tpart_", at)) != std::string::npos) {
    const std::size_t end = jsonl.find('"', at + 1);
    ASSERT_NE(end, std::string::npos);
    const std::string name = jsonl.substr(at + 1, end - at - 1);
    EXPECT_TRUE(
        obs::IsValidMetricName(name, obs::MetricKind::kCounter) ||
        obs::IsValidMetricName(name, obs::MetricKind::kGauge))
        << name;
    ++keys;
    at = end;
  }
  EXPECT_GT(keys, 0u);
}

TEST(LiveObsClusterTest, TxnSamplingStitchesTimelinesAcrossMachines) {
#if defined(TPART_TRACING_DISABLED)
  GTEST_SKIP() << "instrumentation compiled out (TPART_DISABLE_TRACING)";
#endif
  const Workload w = MakeMicroWorkload(SmallMicro());
  obs::TraceRecorder rec;
  obs::InstallGlobalTrace(&rec);

  LocalClusterOptions opts;
  opts.scheduler.sink_size = 20;
  opts.transport.kind = TransportKind::kDirect;
  opts.txn_sample = 8;  // every 8th txn gets a causal timeline
  LocalCluster cluster(&w, opts);
  const ClusterRunOutcome out = cluster.RunTPart();
  obs::InstallGlobalTrace(nullptr);
  ASSERT_TRUE(out.fault.ok()) << out.fault.ToString();

  const std::string json = rec.ToJson();
  EXPECT_NE(json.find("\"admitted\""), std::string::npos)
      << "sampled txns must emit an admission timeline event";
  EXPECT_NE(json.find("\"round_received\""), std::string::npos)
      << "receiving machines must extend the sampled timeline";
  EXPECT_NE(json.find("\"executed\""), std::string::npos)
      << "execution must close the sampled timeline";
  EXPECT_NE(json.find("\"timeline\""), std::string::npos);
}

}  // namespace
}  // namespace tpart
