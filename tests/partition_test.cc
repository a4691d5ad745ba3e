// Partition- and gray-failure tolerance (DESIGN §4j): seeded link-level
// fault schedules — partition windows that sever and heal machine groups
// at sink-epoch boundaries (symmetric and asymmetric), flapping links,
// and gray-failure slow links — plus the phi-accrual adaptive failure
// detector that must stay quiet through all of them while still catching
// true crash-stops. The correctness oracle is the usual one: every
// faulted run must finish byte-identical to the fault-free run, on every
// transport, alone and composed with worker crashes, stragglers,
// probabilistic net faults, and elastic migration.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "net/partition_schedule.h"
#include "runtime/cluster.h"
#include "runtime/failure_detector.h"
#include "test_time.h"
#include "workload/micro.h"

namespace tpart {
namespace {

MicroOptions SmallMicro(std::size_t num_machines = 3) {
  MicroOptions o;
  o.num_machines = num_machines;
  o.records_per_machine = 200;
  o.hot_set_size = 25;
  o.num_txns = 405;  // ~21 sinking rounds at sink_size 20
  return o;
}

LocalClusterOptions StreamingOpts(TransportKind kind) {
  LocalClusterOptions opts;
  opts.scheduler.sink_size = 20;
  opts.transport.kind = kind;
  return opts;
}

void AddNetFaults(LocalClusterOptions& opts) {
  opts.transport.faults.seed = 0xC0FFEE;
  opts.transport.faults.drop_prob = 0.05;
  opts.transport.faults.duplicate_prob = 0.05;
  opts.transport.faults.delay_prob = 0.10;
  opts.transport.faults.max_delay_us = 1500;
  opts.transport.retry_timeout_us = 1000;
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

// ---------------------------------------------------------------------
// Schedule semantics (pure data, no cluster).
// ---------------------------------------------------------------------

TEST(PartitionScheduleTest, SymmetricWindowSeversBothDirections) {
  PartitionSchedule s;
  PartitionEvent ev;
  ev.group_a = {0, 1};
  ev.group_b = {2};
  ev.from_epoch = 3;
  ev.heal_epoch = 5;
  s.partitions.push_back(ev);

  // Active strictly inside [from, heal).
  EXPECT_FALSE(s.Severed(0, 2, 2, 3));
  EXPECT_TRUE(s.Severed(0, 2, 3, 3));
  EXPECT_TRUE(s.Severed(1, 2, 4, 3));
  EXPECT_FALSE(s.Severed(0, 2, 5, 3));
  // Symmetric: the reverse direction is severed too.
  EXPECT_TRUE(s.Severed(2, 0, 3, 3));
  EXPECT_TRUE(s.Severed(2, 1, 4, 3));
  // Links inside one side stay up.
  EXPECT_FALSE(s.Severed(0, 1, 3, 3));
  EXPECT_EQ(s.MaxPartitionSpan(), 2u);
}

TEST(PartitionScheduleTest, AsymmetricWindowSeversOneDirectionOnly) {
  PartitionSchedule s;
  PartitionEvent ev;
  ev.group_a = {0};
  ev.group_b = {1};
  ev.symmetric = false;
  ev.from_epoch = 1;
  ev.heal_epoch = 4;
  s.partitions.push_back(ev);

  EXPECT_TRUE(s.Severed(0, 1, 2, 2));
  EXPECT_FALSE(s.Severed(1, 0, 2, 2)) << "one-way loss severed the reverse";
}

TEST(PartitionScheduleTest, EmptyGroupBMeansComplement) {
  PartitionSchedule s;
  PartitionEvent ev;
  ev.group_a = {1};
  ev.from_epoch = 0;
  ev.heal_epoch = 2;
  s.partitions.push_back(ev);

  // {1} vs complement {0, 2, 3}: every cross link severed, both ways.
  for (MachineId other : {0, 2, 3}) {
    EXPECT_TRUE(s.Severed(1, other, 1, 4)) << other;
    EXPECT_TRUE(s.Severed(other, 1, 1, 4)) << other;
  }
  // The complement is bounded by n: endpoint 4 is outside the cluster.
  EXPECT_FALSE(s.Severed(1, 4, 1, 4));
}

TEST(PartitionScheduleTest, FlappingLinkPassesFirstUpOfEveryPeriod) {
  PartitionSchedule s;
  FlappingLink ev;
  ev.from = 0;
  ev.to = 1;
  ev.from_epoch = 2;
  ev.heal_epoch = 4;
  ev.period = 4;
  ev.up = 2;
  s.flapping.push_back(ev);

  // Within the window: seq 0,1 pass; 2,3 swallowed; repeats mod 4.
  EXPECT_FALSE(s.FlappedDown(0, 1, 2, 0));
  EXPECT_FALSE(s.FlappedDown(0, 1, 2, 1));
  EXPECT_TRUE(s.FlappedDown(0, 1, 2, 2));
  EXPECT_TRUE(s.FlappedDown(0, 1, 2, 3));
  EXPECT_FALSE(s.FlappedDown(0, 1, 2, 4));
  // Outside the window or on another link: never down.
  EXPECT_FALSE(s.FlappedDown(0, 1, 4, 2));
  EXPECT_FALSE(s.FlappedDown(1, 0, 2, 2));
}

TEST(PartitionScheduleTest, SlowLinkReportsWorstActiveWindow) {
  PartitionSchedule s;
  SlowLinkEvent a;
  a.from = 0;
  a.to = 1;
  a.from_epoch = 1;
  a.heal_epoch = 6;
  a.extra_delay_us = 500;
  SlowLinkEvent b = a;
  b.from_epoch = 3;
  b.heal_epoch = 5;
  b.extra_delay_us = 2000;
  s.slow_links.push_back(a);
  s.slow_links.push_back(b);

  EXPECT_EQ(s.SlowDelayUs(0, 1, 0), 0);
  EXPECT_EQ(s.SlowDelayUs(0, 1, 2), 500);
  EXPECT_EQ(s.SlowDelayUs(0, 1, 4), 2000);  // overlapping: the worst wins
  EXPECT_EQ(s.SlowDelayUs(0, 1, 5), 500);
  EXPECT_EQ(s.SlowDelayUs(1, 0, 4), 0);  // directional
}

TEST(PartitionScheduleTest, SummaryRendersEveryEventKind) {
  PartitionSchedule s;
  PartitionEvent part;
  part.group_a = {0, 1};
  part.group_b = {2};
  part.from_epoch = 3;
  part.heal_epoch = 5;
  s.partitions.push_back(part);
  SlowLinkEvent slow;
  slow.from = 0;
  slow.to = 2;
  slow.from_epoch = 2;
  s.slow_links.push_back(slow);
  FlappingLink flap;
  flap.from = 1;
  flap.to = 0;
  flap.from_epoch = 1;
  flap.heal_epoch = 3;
  s.flapping.push_back(flap);

  const std::string summary = s.Summary();
  EXPECT_NE(summary.find("part{0,1|2}@3..5"), std::string::npos) << summary;
  EXPECT_NE(summary.find("slow{0->2:1500us}@2.."), std::string::npos)
      << summary;
  EXPECT_NE(summary.find("flap{1->0:2/4}@1..3"), std::string::npos)
      << summary;
  EXPECT_EQ(PartitionSchedule{}.Summary(), "none");
}

// ---------------------------------------------------------------------
// CLI spec parsing, including a garbage-input sweep: parsers must
// return errors, never crash or accept nonsense.
// ---------------------------------------------------------------------

TEST(PartitionSpecParseTest, ParsesSymmetricAsymmetricAndComplement) {
  auto sym = ParsePartitionSpec("0,1|2@3..5");
  ASSERT_TRUE(sym.ok()) << sym.status().ToString();
  EXPECT_EQ(sym->group_a, (std::vector<MachineId>{0, 1}));
  EXPECT_EQ(sym->group_b, (std::vector<MachineId>{2}));
  EXPECT_TRUE(sym->symmetric);
  EXPECT_EQ(sym->from_epoch, 3u);
  EXPECT_EQ(sym->heal_epoch, 5u);

  auto asym = ParsePartitionSpec("2>0,1@4..6");
  ASSERT_TRUE(asym.ok()) << asym.status().ToString();
  EXPECT_FALSE(asym->symmetric);
  EXPECT_EQ(asym->group_a, (std::vector<MachineId>{2}));

  // Empty B = complement; no ".." = never heals during the run.
  auto comp = ParsePartitionSpec("1|@2");
  ASSERT_TRUE(comp.ok()) << comp.status().ToString();
  EXPECT_TRUE(comp->group_b.empty());
  EXPECT_EQ(comp->heal_epoch, std::numeric_limits<std::uint64_t>::max());
}

TEST(PartitionSpecParseTest, ParsesSlowLinkForms) {
  auto plain = ParseSlowLinkSpec("0->2@3");
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(plain->from, 0);
  EXPECT_EQ(plain->to, 2);
  EXPECT_EQ(plain->from_epoch, 3u);
  EXPECT_EQ(plain->extra_delay_us, 1500);

  auto full = ParseSlowLinkSpec("1->0@2..7:900");
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(full->heal_epoch, 7u);
  EXPECT_EQ(full->extra_delay_us, 900);
}

TEST(PartitionSpecParseTest, RejectsMalformedSpecsWithoutCrashing) {
  const char* bad_partitions[] = {
      "",        "0|1",      "@3",        "|1@2",     "0|0@2",
      "0,|1@2",  "0|1@",     "0|1@5..3",  "0|1@3..3", "a|b@2",
      "0|1@2..x" , "0>@..",   "0|1@18446744073709551616",
  };
  for (const char* spec : bad_partitions) {
    EXPECT_FALSE(ParsePartitionSpec(spec).ok()) << spec;
  }
  const char* bad_slow_links[] = {
      "",       "0->1",     "->1@2",   "0->@2",    "0->0@2",
      "0-1@2",  "0->1@",    "0->1@5..2", "0->1@2:0", "0->1@2:99999999999",
      "x->y@2",
  };
  for (const char* spec : bad_slow_links) {
    EXPECT_FALSE(ParseSlowLinkSpec(spec).ok()) << spec;
  }
  // Deterministic garbage sweep: every byte soup must come back as a
  // clean error.
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 512; ++i) {
    std::string soup;
    for (int j = 0; j < (i % 23) + 1; ++j) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      soup.push_back(static_cast<char>('!' + (x % 90)));
    }
    (void)ParsePartitionSpec(soup);
    (void)ParseSlowLinkSpec(soup);
  }
}

// ---------------------------------------------------------------------
// Phi-accrual suspicion (unit level): silence against a regular history
// grows without bound; the same silence against a history that contains
// straggler-scale gaps stays below threshold.
// ---------------------------------------------------------------------

TEST(PhiAccrualTest, SilenceAgainstRegularHistoryCrossesThreshold) {
  PhiAccrualDetector::Options o;
  o.expected_interval_us = 1000;
  PhiAccrualDetector d(1, o);
  std::uint64_t now = 0;
  for (int i = 0; i < 32; ++i) d.Observe(0, now += 1000);
  EXPECT_LT(d.Phi(0, now + 1500), 8.0) << "one hiccup must not look fatal";
  EXPECT_GE(d.Phi(0, now + 200000), 8.0) << "200x the mean must look dead";
}

TEST(PhiAccrualTest, StragglerScaleHistoryExcusesMatchingSilence) {
  PhiAccrualDetector::Options o;
  o.expected_interval_us = 1000;
  PhiAccrualDetector d(1, o);
  std::uint64_t now = 0;
  // A gray-failure regime: most beats on time, every fourth delayed 60ms.
  for (int i = 0; i < 40; ++i) now += (i % 4 == 3) ? 60000 : 1000;
  now = 0;
  for (int i = 0; i < 40; ++i) d.Observe(0, now += (i % 4 == 3) ? 60000 : 1000);
  // 70ms of silence: a fixed 50ms deadline would declare; the learned
  // distribution (mean ~15.7ms, huge std) keeps phi low.
  EXPECT_LT(d.Phi(0, now + 70000), 8.0);
}

TEST(PhiAccrualTest, ExcuseResetsSilenceWithoutPollutingHistory) {
  PhiAccrualDetector::Options o;
  o.expected_interval_us = 1000;
  PhiAccrualDetector d(1, o);
  std::uint64_t now = 0;
  for (int i = 0; i < 32; ++i) d.Observe(0, now += 1000);
  // A severed window explains 500ms of silence.
  d.Excuse(0, now + 500000);
  EXPECT_LT(d.Phi(0, now + 501000), 8.0);
  // The next progress records no 500ms sample: suspicion math is intact.
  d.Observe(0, now + 502000);
  EXPECT_GE(d.Phi(0, now + 502000 + 200000), 8.0);
}

// ---------------------------------------------------------------------
// Byte-identity under seeded link faults, on every transport. The
// reliability layer must squeeze every severed / flapped / slowed
// message through once the window closes.
// ---------------------------------------------------------------------

TEST(PartitionFaultTest, SymmetricPartitionHealsByteIdentical) {
  const Workload w = MakeMicroWorkload(SmallMicro());
  const RunSnapshot ref = RunOnce(w, StreamingOpts(TransportKind::kDirect));

  for (TransportKind kind : {TransportKind::kDirect,
                             TransportKind::kInProcess,
                             TransportKind::kTcp}) {
    LocalClusterOptions opts = StreamingOpts(kind);
    PartitionEvent ev;
    ev.group_a = {2};  // isolate machine 2 from everyone for two rounds
    ev.from_epoch = 4;
    ev.heal_epoch = 6;
    opts.transport.faults.partition.partitions.push_back(ev);
    opts.transport.retry_timeout_us = 1000;
    const std::string label =
        "transport " + std::to_string(static_cast<int>(kind));
    const RunSnapshot got = RunOnce(w, opts);
    EXPECT_TRUE(got.out.fault.ok()) << label << ": "
                                    << got.out.fault.ToString();
    ExpectSameResults(ref.out.results, got.out.results);
    EXPECT_EQ(got.state, ref.state) << label;
    EXPECT_GT(got.out.transport.faults_severed, 0u)
        << label << ": the window never actually severed a packet";
  }
}

TEST(PartitionFaultTest, AsymmetricPartitionHealsByteIdentical) {
  const Workload w = MakeMicroWorkload(SmallMicro());
  const RunSnapshot ref = RunOnce(w, StreamingOpts(TransportKind::kDirect));

  LocalClusterOptions opts = StreamingOpts(TransportKind::kInProcess);
  PartitionEvent ev;
  ev.group_a = {0, 1};
  ev.group_b = {2};
  // One-way loss: {0,1}'s packets to 2 (round dissemination included)
  // are swallowed, while 2 can still reach 0 and 1 the whole time.
  ev.symmetric = false;
  ev.from_epoch = 3;
  ev.heal_epoch = 6;
  opts.transport.faults.partition.partitions.push_back(ev);
  opts.transport.retry_timeout_us = 1000;
  const RunSnapshot got = RunOnce(w, opts);
  EXPECT_TRUE(got.out.fault.ok()) << got.out.fault.ToString();
  ExpectSameResults(ref.out.results, got.out.results);
  EXPECT_EQ(got.state, ref.state);
  EXPECT_GT(got.out.transport.faults_severed, 0u);
}

TEST(PartitionFaultTest, FlappingLinkHealsByteIdentical) {
  const Workload w = MakeMicroWorkload(SmallMicro());
  const RunSnapshot ref = RunOnce(w, StreamingOpts(TransportKind::kDirect));

  LocalClusterOptions opts = StreamingOpts(TransportKind::kInProcess);
  FlappingLink flap;
  flap.from = 0;
  flap.to = 1;
  flap.from_epoch = 2;
  flap.heal_epoch = 9;
  flap.period = 4;
  flap.up = 2;
  opts.transport.faults.partition.flapping.push_back(flap);
  // The reverse direction flaps on a different phase.
  FlappingLink back = flap;
  back.from = 1;
  back.to = 0;
  back.up = 1;
  opts.transport.faults.partition.flapping.push_back(back);
  opts.transport.retry_timeout_us = 1000;
  const RunSnapshot got = RunOnce(w, opts);
  EXPECT_TRUE(got.out.fault.ok()) << got.out.fault.ToString();
  ExpectSameResults(ref.out.results, got.out.results);
  EXPECT_EQ(got.state, ref.state);
  EXPECT_GT(got.out.transport.faults_severed, 0u);
}

TEST(PartitionFaultTest, LinkFaultPatternIsDeterministicAcrossRuns) {
  const Workload w = MakeMicroWorkload(SmallMicro());
  LocalClusterOptions opts = StreamingOpts(TransportKind::kInProcess);
  PartitionEvent ev;
  ev.group_a = {2};
  ev.from_epoch = 4;
  ev.heal_epoch = 6;
  opts.transport.faults.partition.partitions.push_back(ev);
  SlowLinkEvent slow;
  slow.from = 0;
  slow.to = 1;
  slow.from_epoch = 2;
  slow.heal_epoch = 10;
  slow.extra_delay_us = 800;
  opts.transport.faults.partition.slow_links.push_back(slow);
  opts.transport.retry_timeout_us = 1000;

  const RunSnapshot first = RunOnce(w, opts);
  const RunSnapshot second = RunOnce(w, opts);
  ExpectSameResults(first.out.results, second.out.results);
  EXPECT_EQ(first.state, second.state);
  // Both runs hit the same windows (retry-timer resends re-enter the
  // fault filter, so the exact counts race wall clocks).
  EXPECT_GT(first.out.transport.faults_severed, 0u);
  EXPECT_GT(second.out.transport.faults_severed, 0u);
}

// ---------------------------------------------------------------------
// Adaptive failure detection: gray failures and explained partitions
// must produce ZERO false-positive recoveries; true crash-stops must
// still be caught.
// ---------------------------------------------------------------------

TEST(PartitionFaultTest, SlowLinkGrayFailureIsNotDeclaredDead) {
  const Workload w = MakeMicroWorkload(SmallMicro());
  const RunSnapshot ref = RunOnce(w, StreamingOpts(TransportKind::kDirect));

  LocalClusterOptions opts = StreamingOpts(TransportKind::kInProcess);
  opts.detector.enabled = true;  // watchdog on, no crash scheduled
  opts.detector.heartbeat_interval_us = test::ScaledUs(2000);
  opts.detector.deadline_us = test::ScaledUs(50000);
  // Gray failure on the control-plane->machine-1 link for most of the
  // run: every heartbeat and round to machine 1 arrives late. A false
  // positive here is a fatal kUnavailable fault (no crash is armed).
  SlowLinkEvent slow;
  slow.from = 0;
  slow.to = 1;
  slow.from_epoch = 1;
  slow.heal_epoch = 15;
  slow.extra_delay_us = 2500;
  opts.transport.faults.partition.slow_links.push_back(slow);
  opts.transport.retry_timeout_us = 1000;
  const RunSnapshot got = RunOnce(w, opts);
  EXPECT_TRUE(got.out.fault.ok()) << got.out.fault.ToString();
  EXPECT_EQ(got.out.recovery.crashes_injected, 0u);
  ExpectSameResults(ref.out.results, got.out.results);
  EXPECT_EQ(got.state, ref.state);
  EXPECT_GT(got.out.transport.faults_slowed, 0u)
      << "the slow-link window never actually delayed a packet";
  // The detector's gauges prove the phi gate stayed on the healthy side.
  EXPECT_LT(got.out.recovery.peak_healthy_phi, 8.0);
}

TEST(PartitionFaultTest, SeveredHeartbeatPathIsExcusedNotDeclared) {
  const Workload w = MakeMicroWorkload(SmallMicro());
  const RunSnapshot ref = RunOnce(w, StreamingOpts(TransportKind::kDirect));

  LocalClusterOptions opts = StreamingOpts(TransportKind::kInProcess);
  opts.detector.enabled = true;
  opts.detector.heartbeat_interval_us = test::ScaledUs(2000);
  opts.detector.deadline_us = test::ScaledUs(50000);
  // Isolate machine 1 (complement includes the control plane at endpoint
  // 0): heartbeats to it are severed for two rounds. The watchdog knows
  // the schedule and must excuse the silence instead of declaring a
  // fatal failure.
  PartitionEvent ev;
  ev.group_a = {1};
  ev.from_epoch = 4;
  ev.heal_epoch = 6;
  opts.transport.faults.partition.partitions.push_back(ev);
  opts.transport.retry_timeout_us = 1000;
  const RunSnapshot got = RunOnce(w, opts);
  EXPECT_TRUE(got.out.fault.ok()) << got.out.fault.ToString();
  EXPECT_EQ(got.out.recovery.crashes_injected, 0u);
  ExpectSameResults(ref.out.results, got.out.results);
  EXPECT_EQ(got.state, ref.state);
}

TEST(PartitionFaultTest, AdaptiveDetectorStillCatchesTrueCrash) {
  const Workload w = MakeMicroWorkload(SmallMicro());
  const RunSnapshot ref = RunOnce(w, StreamingOpts(TransportKind::kDirect));

  LocalClusterOptions opts = StreamingOpts(TransportKind::kInProcess);
  opts.detector.heartbeat_interval_us = test::ScaledUs(2000);
  opts.detector.deadline_us = test::ScaledUs(100000);
  opts.crash.events.push_back({1, 5});
  // The crash composes with an active gray failure elsewhere: the
  // detector must suppress suspicion on the slowed link while declaring
  // the genuinely dead machine.
  SlowLinkEvent slow;
  slow.from = 0;
  slow.to = 2;
  slow.from_epoch = 1;
  slow.heal_epoch = 15;
  slow.extra_delay_us = 2500;
  opts.transport.faults.partition.slow_links.push_back(slow);
  opts.transport.retry_timeout_us = 1000;
  const RunSnapshot got = RunOnce(w, opts);
  EXPECT_TRUE(got.out.fault.ok()) << got.out.fault.ToString();
  EXPECT_EQ(got.out.recovery.crashes_injected, 1u);
  EXPECT_EQ(got.out.recovery.crashed_machine, 1);
  EXPECT_GT(got.out.recovery.detection_latency_us, 0u);
  ExpectSameResults(ref.out.results, got.out.results);
  EXPECT_EQ(got.state, ref.state);
}

TEST(PartitionFaultTest, StragglerPlusSlowLinkZeroFalsePositives) {
  const Workload w = MakeMicroWorkload(SmallMicro());
  const RunSnapshot ref = RunOnce(w, StreamingOpts(TransportKind::kDirect));

  LocalClusterOptions opts = StreamingOpts(TransportKind::kInProcess);
  opts.detector.enabled = true;
  opts.detector.heartbeat_interval_us = test::ScaledUs(2000);
  opts.detector.deadline_us = test::ScaledUs(50000);
  // The existing straggler schedule AND a gray-failure slow link at
  // once; either alone could fool a fixed-deadline detector.
  opts.straggler.machine = 2;
  opts.straggler.delay_us = test::ScaledUs(75000);
  opts.straggler.period_us = test::ScaledUs(400000);
  SlowLinkEvent slow;
  slow.from = 0;
  slow.to = 1;
  slow.from_epoch = 1;
  slow.heal_epoch = 15;
  slow.extra_delay_us = 2500;
  opts.transport.faults.partition.slow_links.push_back(slow);
  opts.transport.retry_timeout_us = 1000;
  const RunSnapshot got = RunOnce(w, opts);
  EXPECT_TRUE(got.out.fault.ok()) << got.out.fault.ToString();
  EXPECT_EQ(got.out.recovery.crashes_injected, 0u);
  ExpectSameResults(ref.out.results, got.out.results);
  EXPECT_EQ(got.state, ref.state);
}

// ---------------------------------------------------------------------
// Composition: link faults + probabilistic net faults + worker crash +
// elastic migration, against the same byte-identity oracle.
// ---------------------------------------------------------------------

TEST(PartitionFaultTest, ComposedWithWorkerCrashAndNetFaults) {
  const Workload w = MakeMicroWorkload(SmallMicro());
  const RunSnapshot ref = RunOnce(w, StreamingOpts(TransportKind::kDirect));

  for (TransportKind kind : {TransportKind::kInProcess,
                             TransportKind::kTcp}) {
    LocalClusterOptions opts = StreamingOpts(kind);
    opts.detector.heartbeat_interval_us = test::ScaledUs(2000);
    opts.detector.deadline_us = test::ScaledUs(100000);
    opts.crash.events.push_back({1, 8});
    PartitionEvent ev;
    ev.group_a = {2};
    ev.from_epoch = 3;
    ev.heal_epoch = 5;
    opts.transport.faults.partition.partitions.push_back(ev);
    SlowLinkEvent slow;
    slow.from = 2;
    slow.to = 0;
    slow.from_epoch = 1;
    slow.heal_epoch = 12;
    slow.extra_delay_us = 1200;
    opts.transport.faults.partition.slow_links.push_back(slow);
    AddNetFaults(opts);
    const std::string label =
        "transport " + std::to_string(static_cast<int>(kind));
    const RunSnapshot got = RunOnce(w, opts);
    EXPECT_TRUE(got.out.fault.ok()) << label << ": "
                                    << got.out.fault.ToString();
    EXPECT_EQ(got.out.recovery.crashes_injected, 1u) << label;
    ExpectSameResults(ref.out.results, got.out.results);
    EXPECT_EQ(got.state, ref.state) << label;
  }
}

TEST(PartitionFaultTest, ComposedWithElasticMigration) {
  const Workload w = MakeMicroWorkload(SmallMicro(4));
  LocalClusterOptions base = StreamingOpts(TransportKind::kDirect);
  base.resize.events = {{6, -1}};
  const RunSnapshot ref = RunOnce(w, base);
  EXPECT_TRUE(ref.out.fault.ok()) << ref.out.fault.ToString();
  ASSERT_EQ(ref.out.migration.membership_steps, 1u);

  LocalClusterOptions opts = StreamingOpts(TransportKind::kInProcess);
  opts.resize.events = {{6, -1}};
  // The partition window heals exactly at the migration cut: the barrier
  // must see a fully healed mesh when the chunks flow.
  PartitionEvent ev;
  ev.group_a = {3};
  ev.from_epoch = 4;
  ev.heal_epoch = 6;
  opts.transport.faults.partition.partitions.push_back(ev);
  SlowLinkEvent slow;
  slow.from = 1;
  slow.to = 2;
  slow.from_epoch = 2;
  slow.heal_epoch = 10;
  slow.extra_delay_us = 900;
  opts.transport.faults.partition.slow_links.push_back(slow);
  AddNetFaults(opts);
  const RunSnapshot got = RunOnce(w, opts);
  EXPECT_TRUE(got.out.fault.ok()) << got.out.fault.ToString();
  EXPECT_EQ(got.out.migration.membership_steps, 1u);
  ExpectSameResults(ref.out.results, got.out.results);
  EXPECT_EQ(got.state, ref.state);
}

TEST(PartitionFaultTest, ComposedWithCoordinatorFailoverInsideSeverWindow) {
  // Regression: leader crash-stop while a sever window is ACTIVE. The
  // failover must (a) advance the fault clock past every window active
  // at the crash — the successor's watermark probes and catch-up
  // re-ships to the isolated machine could never be answered otherwise,
  // since the dissemination loop (the usual fault-clock driver) is
  // parked during the failover — and (b) skip window transitions for
  // catch-up re-ships, whose quiesce barriers already ran in the term
  // that first shipped them; replaying them would raise a barrier ahead
  // of the very re-ships the stalled machines are waiting on.
  const Workload w = MakeMicroWorkload(SmallMicro());
  const RunSnapshot ref = RunOnce(w, StreamingOpts(TransportKind::kDirect));
  EXPECT_TRUE(ref.out.fault.ok()) << ref.out.fault.ToString();

  for (TransportKind kind :
       {TransportKind::kInProcess, TransportKind::kTcp}) {
    LocalClusterOptions opts = StreamingOpts(kind);
    opts.coordinator.standbys = 1;
    opts.crash.coordinator_at = {5};
    PartitionEvent ev;
    ev.group_a = {2};
    ev.from_epoch = 4;
    ev.heal_epoch = 6;
    opts.transport.faults.partition.partitions.push_back(ev);
    const std::string label =
        "transport " + std::to_string(static_cast<int>(kind));
    const RunSnapshot got = RunOnce(w, opts);
    EXPECT_TRUE(got.out.fault.ok()) << label << ": "
                                    << got.out.fault.ToString();
    EXPECT_EQ(got.out.failover.coordinator_crashes, 1u) << label;
    EXPECT_EQ(got.out.failover.elections_won, 1u) << label;
    ExpectSameResults(ref.out.results, got.out.results);
    EXPECT_EQ(got.state, ref.state) << label;
  }
}

TEST(PartitionFaultTest, ZombieRevivalComposedWithActiveSeverWindow) {
  // The deposed leader revives after the window that was active at its
  // crash has healed; its stale-term plan stream must be fenced on every
  // machine — including the one the window had isolated.
  const Workload w = MakeMicroWorkload(SmallMicro());
  const RunSnapshot ref = RunOnce(w, StreamingOpts(TransportKind::kDirect));
  EXPECT_TRUE(ref.out.fault.ok()) << ref.out.fault.ToString();

  LocalClusterOptions opts = StreamingOpts(TransportKind::kInProcess);
  opts.coordinator.standbys = 1;
  opts.crash.coordinator_at = {5};
  opts.crash.coordinator_revive_at = {9};
  PartitionEvent ev;
  ev.group_a = {2};
  ev.from_epoch = 4;
  ev.heal_epoch = 6;
  opts.transport.faults.partition.partitions.push_back(ev);
  const RunSnapshot got = RunOnce(w, opts);
  EXPECT_TRUE(got.out.fault.ok()) << got.out.fault.ToString();
  EXPECT_EQ(got.out.failover.zombie_revivals, 1u);
  EXPECT_GE(got.out.failover.fenced_messages, 2 * w.num_machines);
  ExpectSameResults(ref.out.results, got.out.results);
  EXPECT_EQ(got.state, ref.state);
}

// ---------------------------------------------------------------------
// Seeded chaos derivation: --chaos SEED --chaos-extended adds the link
// schedule AFTER every base draw, so the base pattern for a fixed seed
// is unchanged by the extended flag.
// ---------------------------------------------------------------------

TEST(PartitionFaultTest, ExtendedChaosPreservesBaseScheduleAndAddsLinks) {
  LocalClusterOptions base = StreamingOpts(TransportKind::kInProcess);
  base.coordinator.standbys = 1;
  const std::string s0 = ApplySeededChaos(42, 3, 20, base);
  EXPECT_FALSE(base.transport.faults.partition.Any());

  LocalClusterOptions ext = StreamingOpts(TransportKind::kInProcess);
  ext.coordinator.standbys = 1;
  const std::string s1 = ApplySeededChaos(42, 3, 20, ext, /*extended=*/true);
  // Base draws are byte-stable under the flag.
  EXPECT_EQ(ext.crash.events, base.crash.events);
  EXPECT_EQ(ext.straggler.machine, base.straggler.machine);
  EXPECT_EQ(ext.crash.coordinator_at, base.crash.coordinator_at);
  // Extended adds one of each link fault plus a zombie revival.
  const PartitionSchedule& net = ext.transport.faults.partition;
  ASSERT_EQ(net.partitions.size(), 1u);
  ASSERT_EQ(net.slow_links.size(), 1u);
  ASSERT_EQ(net.flapping.size(), 1u);
  EXPECT_LE(net.MaxPartitionSpan(), 4u)
      << "window wider than the default epoch credit span would stall";
  ASSERT_EQ(ext.crash.coordinator_revive_at.size(), 1u);
  EXPECT_GT(ext.crash.coordinator_revive_at[0],
            ext.crash.coordinator_at[0]);
  EXPECT_NE(s1.find("part{"), std::string::npos) << s1;
  EXPECT_NE(s1.find("slow{"), std::string::npos) << s1;
  EXPECT_NE(s1.find("flap{"), std::string::npos) << s1;
  EXPECT_NE(s1.find("+revive@e"), std::string::npos) << s1;
  EXPECT_EQ(s0.find("part{"), std::string::npos) << s0;
}

TEST(PartitionFaultTest, ExtendedChaosMatrixMatchesReference) {
  const Workload w = MakeMicroWorkload(SmallMicro());
  const RunSnapshot ref = RunOnce(w, StreamingOpts(TransportKind::kDirect));
  const SinkEpoch span = static_cast<SinkEpoch>(ref.out.pipeline.plans);
  ASSERT_GE(span, 12u);

  LocalClusterOptions opts = StreamingOpts(TransportKind::kInProcess);
  opts.coordinator.standbys = 1;
  opts.detector.heartbeat_interval_us = test::ScaledUs(2000);
  opts.detector.deadline_us = test::ScaledUs(100000);
  const std::string schedule =
      ApplySeededChaos(7, w.num_machines, span, opts, /*extended=*/true);
  AddNetFaults(opts);
  const RunSnapshot got = RunOnce(w, opts);
  EXPECT_TRUE(got.out.fault.ok())
      << schedule << ": " << got.out.fault.ToString();
  ExpectSameResults(ref.out.results, got.out.results);
  EXPECT_EQ(got.state, ref.state) << schedule;
  EXPECT_EQ(got.out.recovery.crashes_injected, 3u) << schedule;
  EXPECT_EQ(got.out.failover.coordinator_crashes, 1u) << schedule;
  EXPECT_EQ(got.out.failover.zombie_revivals, 1u) << schedule;
  EXPECT_GT(got.out.failover.fenced_messages, 0u) << schedule;
}

}  // namespace
}  // namespace tpart
