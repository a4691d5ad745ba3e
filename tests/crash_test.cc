// Crash-fault-tolerance tests: deterministic crash injection, heartbeat
// failure detection, and in-run recovery (§5.4 made live). A streaming
// run with a machine crash-stopped mid-stream must detect the failure,
// rebuild the machine from its checkpoint image plus the request and
// network logs, re-ship the lost rounds, and finish with byte-identical
// results and final store state to the crash-free run — on every
// transport, including under seeded network faults. Without recovery,
// the failure must surface as a kUnavailable fault with a stall
// diagnostic instead of a hang.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "obs/flight_recorder.h"
#include "runtime/channel.h"
#include "runtime/cluster.h"
#include "storage/kv_store.h"
#include "test_time.h"
#include "workload/micro.h"
#include "workload/tpcc.h"

namespace tpart {
namespace {

MicroOptions SmallMicro() {
  MicroOptions o;
  o.num_machines = 3;
  o.records_per_machine = 200;
  o.hot_set_size = 25;
  o.num_txns = 405;
  return o;
}

LocalClusterOptions StreamingOpts(TransportKind kind) {
  LocalClusterOptions opts;
  opts.scheduler.sink_size = 20;
  opts.transport.kind = kind;
  return opts;
}

LocalClusterOptions CrashOpts(TransportKind kind, MachineId victim,
                              SinkEpoch at_epoch) {
  LocalClusterOptions opts = StreamingOpts(kind);
  opts.crash.events.push_back({victim, at_epoch});
  opts.detector.heartbeat_interval_us = test::ScaledUs(2000);
  opts.detector.deadline_us = test::ScaledUs(100000);
  return opts;
}

void ExpectSameResults(const std::vector<TxnResult>& a,
                       const std::vector<TxnResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].committed, b[i].committed) << "T" << a[i].id;
    EXPECT_EQ(a[i].output, b[i].output) << "T" << a[i].id;
  }
}

struct RunSnapshot {
  ClusterRunOutcome out;
  std::vector<std::pair<ObjectKey, Record>> state;
};

RunSnapshot RunOnce(const Workload& w, const LocalClusterOptions& opts) {
  LocalCluster cluster(&w, opts);
  RunSnapshot snap;
  snap.out = cluster.RunTPart();
  snap.state = cluster.store().Snapshot();
  return snap;
}

void ExpectRecovered(const ClusterRunOutcome& out, MachineId victim) {
  EXPECT_TRUE(out.fault.ok()) << out.fault.ToString();
  EXPECT_EQ(out.recovery.crashes_injected, 1u);
  EXPECT_EQ(out.recovery.crashed_machine, victim);
  EXPECT_GT(out.recovery.replayed_txns, 0u);
  EXPECT_GT(out.recovery.detection_latency_us, 0u);
  EXPECT_GT(out.recovery.checkpoint_records, 0u);
  EXPECT_GE(out.recovery.resent_rounds, 1u);
  EXPECT_GE(out.recovery.downtime_us, out.recovery.detection_latency_us);
}

// ---------------------------------------------------------------------
// Recovery: crashed runs match the crash-free run byte for byte.
// ---------------------------------------------------------------------

TEST(CrashTest, RecoveryMatchesCrashFreeRun) {
  const Workload w = MakeMicroWorkload(SmallMicro());
  const RunSnapshot ref = RunOnce(w, StreamingOpts(TransportKind::kDirect));

  const RunSnapshot got =
      RunOnce(w, CrashOpts(TransportKind::kDirect, 1, 3));
  ExpectSameResults(ref.out.results, got.out.results);
  EXPECT_EQ(got.state, ref.state)
      << "recovered final store diverged from the crash-free run";
  EXPECT_EQ(got.out.committed, ref.out.committed);
  EXPECT_EQ(got.out.aborted, ref.out.aborted);
  ExpectRecovered(got.out, 1);
}

TEST(CrashTest, ChaosMatrixAcrossVictimsEpochsTransportsAndFaults) {
  const Workload w = MakeMicroWorkload(SmallMicro());
  const RunSnapshot ref = RunOnce(w, StreamingOpts(TransportKind::kDirect));

  struct Case {
    TransportKind kind;
    MachineId victim;
    SinkEpoch epoch;
    bool network_faults;
  };
  const Case cases[] = {
      {TransportKind::kDirect, 0, 2, false},
      {TransportKind::kDirect, 1, 5, false},
      {TransportKind::kDirect, 2, 8, false},
      {TransportKind::kInProcess, 1, 3, false},
      {TransportKind::kInProcess, 2, 4, true},
      {TransportKind::kTcp, 0, 5, false},
  };
  for (const Case& c : cases) {
    LocalClusterOptions opts = CrashOpts(c.kind, c.victim, c.epoch);
    if (c.network_faults) {
      // Crash + drop/dup/delay together: the reliability layer and the
      // idempotent round intake must compose. Delays stay far below the
      // detector deadline so only the real crash is ever declared.
      opts.transport.faults.seed = 0xC0FFEE;
      opts.transport.faults.drop_prob = 0.05;
      opts.transport.faults.duplicate_prob = 0.05;
      opts.transport.faults.delay_prob = 0.10;
      opts.transport.faults.max_delay_us = 1500;
      opts.transport.retry_timeout_us = 1000;
    }
    const RunSnapshot got = RunOnce(w, opts);
    const std::string label =
        "transport " + std::to_string(static_cast<int>(c.kind)) +
        " victim " + std::to_string(c.victim) + " epoch " +
        std::to_string(c.epoch);
    ExpectSameResults(ref.out.results, got.out.results);
    EXPECT_EQ(got.state, ref.state) << label;
    ExpectRecovered(got.out, c.victim);
  }
}

TEST(CrashTest, MidRoundCrashReplaysPartialEpoch) {
  const Workload w = MakeMicroWorkload(SmallMicro());
  const RunSnapshot ref = RunOnce(w, StreamingOpts(TransportKind::kDirect));

  LocalClusterOptions opts = CrashOpts(TransportKind::kInProcess, 1, 0);
  // Dies mid-round, not at a round boundary.
  opts.crash.events.front().after_txns = 10;
  const RunSnapshot got = RunOnce(w, opts);
  ExpectSameResults(ref.out.results, got.out.results);
  EXPECT_EQ(got.state, ref.state);
  ExpectRecovered(got.out, 1);
  // Exactly the logged prefix was replayed, deterministically.
  EXPECT_EQ(got.out.recovery.replayed_txns, 10u);
}

TEST(CrashTest, TpccCrashRecoveryOnEveryTransport) {
  TpccOptions o;
  o.num_machines = 3;
  o.warehouses_per_machine = 1;
  o.customers_per_district = 20;
  o.num_items = 100;
  o.num_txns = 300;
  o.abort_prob = 0.05;
  const Workload w = MakeTpccWorkload(o);
  const RunSnapshot ref = RunOnce(w, StreamingOpts(TransportKind::kDirect));
  EXPECT_GT(ref.out.aborted, 0u);  // §5.3 abort path exercised too

  for (TransportKind kind : {TransportKind::kDirect,
                             TransportKind::kInProcess,
                             TransportKind::kTcp}) {
    const RunSnapshot got = RunOnce(w, CrashOpts(kind, 1, 4));
    ExpectSameResults(ref.out.results, got.out.results);
    EXPECT_EQ(got.state, ref.state)
        << "transport kind " << static_cast<int>(kind);
    EXPECT_EQ(got.out.committed, ref.out.committed);
    EXPECT_EQ(got.out.aborted, ref.out.aborted);
    ExpectRecovered(got.out, 1);
  }
}

TEST(CrashTest, CrashedRunIsDeterministicAcrossRuns) {
  const Workload w = MakeMicroWorkload(SmallMicro());
  const LocalClusterOptions opts = CrashOpts(TransportKind::kInProcess, 2, 4);
  const RunSnapshot first = RunOnce(w, opts);
  const RunSnapshot second = RunOnce(w, opts);
  // A faulted run explains every mismatch below; report the fault itself.
  ASSERT_TRUE(first.out.fault.ok()) << first.out.fault.ToString();
  ASSERT_TRUE(second.out.fault.ok()) << second.out.fault.ToString();
  ExpectSameResults(first.out.results, second.out.results);
  EXPECT_EQ(first.state, second.state);
  // The crash point is deterministic, so the replayed suffix is too.
  EXPECT_EQ(first.out.recovery.replayed_txns,
            second.out.recovery.replayed_txns);
  EXPECT_EQ(first.out.recovery.crash_epoch, second.out.recovery.crash_epoch);
}

// ---------------------------------------------------------------------
// Edge epochs: crash before any sink round, and after the last one.
// ---------------------------------------------------------------------

TEST(CrashTest, CrashAtStartBeforeAnySinkRoundRecovers) {
  const Workload w = MakeMicroWorkload(SmallMicro());
  const RunSnapshot ref = RunOnce(w, StreamingOpts(TransportKind::kDirect));

  LocalClusterOptions opts = CrashOpts(TransportKind::kDirect, 1, 0);
  // Dies before executing anything at all.
  opts.crash.events.front().at_start = true;
  const RunSnapshot got = RunOnce(w, opts);
  EXPECT_TRUE(got.out.fault.ok()) << got.out.fault.ToString();
  ExpectSameResults(ref.out.results, got.out.results);
  EXPECT_EQ(got.state, ref.state);
  EXPECT_EQ(got.out.recovery.crashes_injected, 1u);
  EXPECT_EQ(got.out.recovery.crashed_machine, 1);
  // Nothing executed before the crash: the replayed prefix is empty and
  // the whole stream is re-shipped.
  EXPECT_EQ(got.out.recovery.crash_epoch, 0u);
  EXPECT_GE(got.out.recovery.resent_rounds, 1u);
}

TEST(CrashTest, CrashAtFinalEpochAfterLastPlanRecovers) {
  const Workload w = MakeMicroWorkload(SmallMicro());
  const RunSnapshot ref = RunOnce(w, StreamingOpts(TransportKind::kDirect));
  const SinkEpoch final_epoch =
      static_cast<SinkEpoch>(ref.out.pipeline.plans);
  ASSERT_GT(final_epoch, 0u);

  // Dies the moment the last sinking round drains — after every plan was
  // executed, before the stream-end drain completes. Recovery must
  // replay the full log and re-consume the end marker, never hang.
  const RunSnapshot got =
      RunOnce(w, CrashOpts(TransportKind::kDirect, 2, final_epoch));
  EXPECT_TRUE(got.out.fault.ok()) << got.out.fault.ToString();
  ExpectSameResults(ref.out.results, got.out.results);
  EXPECT_EQ(got.state, ref.state);
  EXPECT_EQ(got.out.recovery.crashes_injected, 1u);
  EXPECT_EQ(got.out.recovery.crash_epoch, final_epoch);
  EXPECT_GT(got.out.recovery.replayed_txns, 0u);
}

// A re-ship sends the victim only its own slice of each lost round and
// counts rounds, not slices: the count is every round from the resume
// epoch on, not that number times the machine count.
TEST(CrashTest, ResentRoundsCountRoundsShippedSinceResume) {
  const Workload w = MakeMicroWorkload(SmallMicro());
  const RunSnapshot ref = RunOnce(w, StreamingOpts(TransportKind::kDirect));
  const SinkEpoch final_epoch =
      static_cast<SinkEpoch>(ref.out.pipeline.plans);
  ASSERT_GT(final_epoch, 3u);

  // The rounds past the crash fit in the victim's epoch credits, so every
  // round is shipped (and retained) long before the detector fires.
  const RunSnapshot got =
      RunOnce(w, CrashOpts(TransportKind::kDirect, 1, final_epoch - 2));
  ExpectRecovered(got.out, 1);
  ExpectSameResults(ref.out.results, got.out.results);
  EXPECT_EQ(got.state, ref.state);
  const SinkEpoch crash_epoch = got.out.recovery.crash_epoch;
  ASSERT_LT(crash_epoch, final_epoch);
  EXPECT_EQ(got.out.recovery.resent_rounds, final_epoch - crash_epoch);
}

// ---------------------------------------------------------------------
// The seeded chaos matrix: sequential crashes of distinct machines, a
// repeat crash of a recovered machine, and a straggler that must never
// be declared failed — byte-identical on every transport.
// ---------------------------------------------------------------------

TEST(CrashTest, SeededChaosMatrixMatchesFaultFreeRunOnEveryTransport) {
  const Workload w = MakeMicroWorkload(SmallMicro());
  const RunSnapshot ref = RunOnce(w, StreamingOpts(TransportKind::kDirect));
  const SinkEpoch span = static_cast<SinkEpoch>(ref.out.pipeline.plans);
  ASSERT_GE(span, 12u);

  struct Case {
    TransportKind kind;
    std::uint64_t seed;
    bool network_faults;
  };
  const Case cases[] = {
      {TransportKind::kDirect, 7, false},
      {TransportKind::kInProcess, 21, false},
      {TransportKind::kTcp, 7, false},
      {TransportKind::kInProcess, 7, true},
  };
  for (const Case& c : cases) {
    LocalClusterOptions opts = StreamingOpts(c.kind);
    opts.detector.heartbeat_interval_us = test::ScaledUs(2000);
    opts.detector.deadline_us = test::ScaledUs(100000);
    const std::string schedule =
        ApplySeededChaos(c.seed, w.num_machines, span, opts);
    if (c.network_faults) {
      opts.transport.faults.seed = 0xC0FFEE;
      opts.transport.faults.drop_prob = 0.05;
      opts.transport.faults.duplicate_prob = 0.05;
      opts.transport.faults.delay_prob = 0.10;
      opts.transport.faults.max_delay_us = 1500;
      opts.transport.retry_timeout_us = 1000;
    }
    const std::string label = schedule + " on transport " +
                              std::to_string(static_cast<int>(c.kind));
    const RunSnapshot got = RunOnce(w, opts);
    EXPECT_TRUE(got.out.fault.ok())
        << label << ": " << got.out.fault.ToString();
    ExpectSameResults(ref.out.results, got.out.results);
    EXPECT_EQ(got.state, ref.state) << label;
    // All three scheduled crashes fired and recovered (two distinct
    // victims plus the repeat of the first).
    EXPECT_EQ(got.out.recovery.crashes_injected, 3u) << label;
    EXPECT_GT(got.out.recovery.replayed_txns, 0u) << label;
  }
}

TEST(CrashTest, SeededChaosIsDeterministicForAFixedSeed) {
  const Workload w = MakeMicroWorkload(SmallMicro());
  LocalClusterOptions a = StreamingOpts(TransportKind::kDirect);
  LocalClusterOptions b = StreamingOpts(TransportKind::kDirect);
  const std::string sa = ApplySeededChaos(42, 3, 20, a);
  const std::string sb = ApplySeededChaos(42, 3, 20, b);
  EXPECT_EQ(sa, sb);
  EXPECT_EQ(a.crash.events, b.crash.events);
  const auto& ea = a.crash.events;
  ASSERT_EQ(ea.size(), 3u);
  EXPECT_EQ(ea[2].machine, ea[0].machine)
      << "third crash repeats the first victim";
  EXPECT_NE(ea[1].machine, ea[0].machine)
      << "second crash hits a different machine";
  EXPECT_LT(ea[0].at_epoch, ea[1].at_epoch);
  EXPECT_LT(ea[1].at_epoch, ea[2].at_epoch);
  EXPECT_TRUE(a.straggler.enabled());
  EXPECT_NE(a.straggler.machine, ea[0].machine);
  EXPECT_NE(a.straggler.machine, ea[1].machine);
}

TEST(CrashTest, StragglerDelaysHeartbeatsWithoutFalseFailure) {
  const Workload w = MakeMicroWorkload(SmallMicro());
  const RunSnapshot ref = RunOnce(w, StreamingOpts(TransportKind::kDirect));

  LocalClusterOptions opts = StreamingOpts(TransportKind::kDirect);
  opts.detector.enabled = true;  // watchdog on, no crash scheduled
  opts.detector.heartbeat_interval_us = test::ScaledUs(2000);
  opts.detector.deadline_us = test::ScaledUs(100000);
  opts.straggler.machine = 1;
  opts.straggler.delay_us = opts.detector.deadline_us / 2;
  opts.straggler.period_us = 2 * opts.detector.deadline_us;
  const RunSnapshot got = RunOnce(w, opts);
  // Slow is not dead: no fault, no crash, byte-identical results.
  EXPECT_TRUE(got.out.fault.ok()) << got.out.fault.ToString();
  EXPECT_EQ(got.out.recovery.crashes_injected, 0u);
  ExpectSameResults(ref.out.results, got.out.results);
  EXPECT_EQ(got.state, ref.state);
}

// ---------------------------------------------------------------------
// Detection without recovery: fail loudly, never hang.
// ---------------------------------------------------------------------

TEST(CrashTest, DetectionOnlySurfacesUnavailableWithDiagnostic) {
  const Workload w = MakeMicroWorkload(SmallMicro());
  LocalClusterOptions opts = CrashOpts(TransportKind::kDirect, 1, 2);
  opts.crash.recover = false;

  const auto t0 = std::chrono::steady_clock::now();
  LocalCluster cluster(&w, opts);
  const ClusterRunOutcome out = cluster.RunTPart();
  const auto elapsed = std::chrono::steady_clock::now() - t0;

  EXPECT_FALSE(out.fault.ok());
  EXPECT_EQ(out.fault.code(), StatusCode::kUnavailable);
  EXPECT_NE(out.fault.message().find("machine 1 failed"), std::string::npos)
      << out.fault.message();
  // The stall diagnostic names the dead machine's state and progress.
  EXPECT_NE(out.fault.message().find("state=down"), std::string::npos)
      << out.fault.message();
  EXPECT_NE(out.fault.message().find("executed="), std::string::npos)
      << out.fault.message();
  EXPECT_EQ(out.recovery.crashes_injected, 0u);
  // Detection, drain and teardown all happen promptly — no stall-timeout
  // or infinite hang on the way out.
  EXPECT_LT(elapsed, std::chrono::seconds(30));
}

// ---------------------------------------------------------------------
// Flight recorder: every declared fault ships a post-mortem whose tail
// carries the fault markers.
// ---------------------------------------------------------------------

bool LooksLikeChromeTrace(const std::string& json) {
  if (json.compare(0, 16, "{\"traceEvents\":[") != 0) return false;
  if (json.find("],\"displayTimeUnit\":\"ms\"}") == std::string::npos) {
    return false;
  }
  long depth = 0;
  for (const char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    if (depth < 0) return false;
  }
  return depth == 0;
}

TEST(CrashTest, ChaosCrashProducesLoadablePostmortem) {
#if defined(TPART_TRACING_DISABLED)
  GTEST_SKIP() << "instrumentation compiled out (TPART_DISABLE_TRACING)";
#endif
  obs::FlightRecorder rec;
  obs::InstallGlobalFlightRecorder(&rec);
  const Workload w = MakeMicroWorkload(SmallMicro());
  const RunSnapshot got =
      RunOnce(w, CrashOpts(TransportKind::kDirect, 1, 3));
  obs::InstallGlobalFlightRecorder(nullptr);
  ExpectRecovered(got.out, 1);

  // The watchdog's stall diagnostic fired on the crashed machine and
  // dumped the black box.
  ASSERT_GE(rec.dumps(), 1u);
  const std::string json = rec.last_dump_json();
  EXPECT_TRUE(LooksLikeChromeTrace(json)) << json.substr(0, 200);
  EXPECT_NE(json.find("\"name\":\"crash_stop\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"failure_declared\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"stall\""), std::string::npos);
  EXPECT_NE(json.find("\"reason\":\"stall\""), std::string::npos);
  // The fault markers sit in the tail, after the steady-state stream.
  EXPECT_GT(json.find("\"name\":\"crash_stop\""),
            json.find("\"name\":\"admit_batch\""));
}

TEST(CrashTest, InducedStallWithoutRecoveryDumpsPostmortem) {
#if defined(TPART_TRACING_DISABLED)
  GTEST_SKIP() << "instrumentation compiled out (TPART_DISABLE_TRACING)";
#endif
  obs::FlightRecorder rec;
  obs::InstallGlobalFlightRecorder(&rec);
  const Workload w = MakeMicroWorkload(SmallMicro());
  LocalClusterOptions opts = CrashOpts(TransportKind::kDirect, 1, 2);
  opts.crash.recover = false;  // fault surfaces instead of recovering
  LocalCluster cluster(&w, opts);
  const ClusterRunOutcome out = cluster.RunTPart();
  obs::InstallGlobalFlightRecorder(nullptr);
  EXPECT_FALSE(out.fault.ok());

  ASSERT_GE(rec.dumps(), 1u);
  const std::string json = rec.last_dump_json();
  EXPECT_TRUE(LooksLikeChromeTrace(json)) << json.substr(0, 200);
  EXPECT_NE(json.find("\"name\":\"failure_declared\""), std::string::npos);
  EXPECT_NE(json.find("\"reason\":\"stall\""), std::string::npos);
}

// ---------------------------------------------------------------------
// Deadline-aware primitives.
// ---------------------------------------------------------------------

TEST(CrashTest, ChannelReceiveForTimesOutAndDelivers) {
  BlockingQueue<int> q;
  const Result<int> none = q.ReceiveFor(std::chrono::microseconds(2000));
  ASSERT_FALSE(none.ok());
  EXPECT_EQ(none.status().code(), StatusCode::kUnavailable);

  q.Send(7);
  const Result<int> got = q.ReceiveFor(std::chrono::microseconds(2000));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, 7);
}

TEST(CrashTest, RecoveryStatsSummaryReportsCrashes) {
  RecoveryStats stats;
  EXPECT_EQ(stats.Summary(), "crashes=0");
  stats.crashes_injected = 1;
  stats.crashed_machine = 2;
  stats.crash_epoch = 5;
  stats.detection_latency_us = 1000;
  stats.replayed_txns = 42;
  stats.resent_rounds = 3;
  stats.checkpoint_records = 200;
  stats.downtime_us = 2500;
  const std::string s = stats.Summary();
  EXPECT_NE(s.find("machine=2"), std::string::npos) << s;
  EXPECT_NE(s.find("replayed=42"), std::string::npos) << s;
  EXPECT_NE(s.find("downtime_us=2500"), std::string::npos) << s;
}

}  // namespace
}  // namespace tpart
