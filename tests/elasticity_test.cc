// Elastic-membership tests: live partition migration that grows or
// shrinks the active machine set mid-run at a sink-epoch cut. A resized
// streaming run must finish with byte-identical results and final store
// state to the fixed-membership run of the same workload — on every
// transport, under seeded network faults, and with a crash injected
// during the migration window. Records actually move: after a grow the
// added machine owns part of the database; after a shrink the removed
// machine owns nothing.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "elastic/elastic_map.h"
#include "runtime/cluster.h"
#include "storage/kv_store.h"
#include "test_time.h"
#include "workload/micro.h"

namespace tpart {
namespace {

MicroOptions SmallMicro(std::size_t num_machines) {
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

LocalClusterOptions ResizeOpts(TransportKind kind,
                               std::vector<LocalClusterOptions::ResizeEvent>
                                   events) {
  LocalClusterOptions opts = StreamingOpts(kind);
  opts.resize.events = std::move(events);
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
  /// Per-slot record counts after the run (who owns what).
  std::vector<std::size_t> slot_records;
};

RunSnapshot RunOnce(const Workload& w, const LocalClusterOptions& opts) {
  LocalCluster cluster(&w, opts);
  RunSnapshot snap;
  snap.out = cluster.RunTPart();
  snap.state = cluster.store().Snapshot();
  for (std::size_t m = 0; m < cluster.num_machines(); ++m) {
    snap.slot_records.push_back(
        cluster.store().store(static_cast<MachineId>(m)).size());
  }
  return snap;
}

void ExpectMigrated(const ClusterRunOutcome& out, std::uint64_t steps,
                    std::size_t slots) {
  EXPECT_TRUE(out.fault.ok()) << out.fault.ToString();
  EXPECT_EQ(out.migration.membership_steps, steps);
  EXPECT_GE(out.migration.routes, steps);
  EXPECT_GT(out.migration.keys_moved, 0u);
  EXPECT_GT(out.migration.records_moved, 0u);
  EXPECT_GT(out.migration.bytes_shipped, 0u);
  EXPECT_GT(out.migration.chunks_shipped, 0u);
  EXPECT_EQ(out.migration.forced_checkpoints, steps * slots);
  EXPECT_GT(out.migration.barrier_us, 0u);
  // One barrier-pause observation per membership step, summing to the
  // scalar total (the live-observability phase histogram).
  EXPECT_EQ(out.migration.phase_barrier_us.count(), steps);
  EXPECT_EQ(static_cast<std::uint64_t>(out.migration.phase_barrier_us.sum()),
            out.migration.barrier_us);
}

// ---------------------------------------------------------------------
// Grow and shrink match the fixed-membership run byte for byte.
// ---------------------------------------------------------------------

TEST(ElasticityTest, GrowMatchesFixedMembershipRun) {
  const Workload w = MakeMicroWorkload(SmallMicro(2));
  const RunSnapshot ref = RunOnce(w, StreamingOpts(TransportKind::kDirect));

  const RunSnapshot got =
      RunOnce(w, ResizeOpts(TransportKind::kDirect, {{4, +1}}));
  ExpectSameResults(ref.out.results, got.out.results);
  EXPECT_EQ(got.state, ref.state)
      << "grown run's final store diverged from the fixed-membership run";
  EXPECT_EQ(got.out.committed, ref.out.committed);
  EXPECT_EQ(got.out.aborted, ref.out.aborted);
  ExpectMigrated(got.out, 1, 3);
  EXPECT_EQ(got.out.migration.last_cut_epoch, 4u);
  // The added machine really owns part of the database now.
  ASSERT_EQ(got.slot_records.size(), 3u);
  EXPECT_GT(got.slot_records[2], 0u);
}

TEST(ElasticityTest, ShrinkMatchesFixedMembershipRun) {
  const Workload w = MakeMicroWorkload(SmallMicro(3));
  const RunSnapshot ref = RunOnce(w, StreamingOpts(TransportKind::kDirect));

  const RunSnapshot got =
      RunOnce(w, ResizeOpts(TransportKind::kDirect, {{5, -1}}));
  ExpectSameResults(ref.out.results, got.out.results);
  EXPECT_EQ(got.state, ref.state)
      << "shrunk run's final store diverged from the fixed-membership run";
  ExpectMigrated(got.out, 1, 3);
  // The removed machine handed every record off before leaving.
  ASSERT_EQ(got.slot_records.size(), 3u);
  EXPECT_EQ(got.slot_records[2], 0u);
  EXPECT_GT(got.slot_records[0] + got.slot_records[1], 0u);
}

TEST(ElasticityTest, GrowThenShrinkAcrossTransports) {
  const Workload w = MakeMicroWorkload(SmallMicro(2));
  const RunSnapshot ref = RunOnce(w, StreamingOpts(TransportKind::kDirect));

  for (const TransportKind kind :
       {TransportKind::kDirect, TransportKind::kInProcess,
        TransportKind::kTcp}) {
    const RunSnapshot got =
        RunOnce(w, ResizeOpts(kind, {{4, +1}, {9, -1}}));
    const std::string label =
        "transport " + std::to_string(static_cast<int>(kind));
    ExpectSameResults(ref.out.results, got.out.results);
    EXPECT_EQ(got.state, ref.state) << label;
    ExpectMigrated(got.out, 2, 3);
    EXPECT_EQ(got.out.migration.last_cut_epoch, 9u);
    // Membership returned to two machines: the third slot ends empty.
    ASSERT_EQ(got.slot_records.size(), 3u) << label;
    EXPECT_EQ(got.slot_records[2], 0u) << label;
  }
}

// ---------------------------------------------------------------------
// Fault tolerance: migration composes with net faults and crashes.
// ---------------------------------------------------------------------

TEST(ElasticityTest, MigrationUnderSeededNetFaults) {
  const Workload w = MakeMicroWorkload(SmallMicro(2));
  const RunSnapshot ref = RunOnce(w, StreamingOpts(TransportKind::kDirect));

  LocalClusterOptions opts =
      ResizeOpts(TransportKind::kInProcess, {{4, +1}, {9, -1}});
  opts.transport.faults.seed = 0xE1A5;
  opts.transport.faults.drop_prob = 0.05;
  opts.transport.faults.duplicate_prob = 0.05;
  opts.transport.faults.delay_prob = 0.10;
  opts.transport.faults.max_delay_us = 1500;
  opts.transport.retry_timeout_us = 1000;
  const RunSnapshot got = RunOnce(w, opts);
  ExpectSameResults(ref.out.results, got.out.results);
  EXPECT_EQ(got.state, ref.state)
      << "migration under drop/dup/delay diverged";
  ExpectMigrated(got.out, 2, 3);
}

TEST(ElasticityTest, CrashDuringMigrationWindowOnSource) {
  const Workload w = MakeMicroWorkload(SmallMicro(2));
  const RunSnapshot ref = RunOnce(w, StreamingOpts(TransportKind::kDirect));

  // Machine 1 crash-stops exactly when round 4 — the cut — drains at it,
  // i.e. inside the migration barrier's quiesce. The barrier must ride
  // out detection + §5.4 recovery, then still move machine 1's keys.
  LocalClusterOptions opts =
      ResizeOpts(TransportKind::kInProcess, {{4, +1}});
  opts.crash.events.push_back({1, 4});
  opts.detector.heartbeat_interval_us = test::ScaledUs(2000);
  opts.detector.deadline_us = test::ScaledUs(100000);
  const RunSnapshot got = RunOnce(w, opts);
  ExpectSameResults(ref.out.results, got.out.results);
  EXPECT_EQ(got.state, ref.state)
      << "crash during the migration window diverged";
  ExpectMigrated(got.out, 1, 3);
  EXPECT_EQ(got.out.recovery.crashes_injected, 1u);
  EXPECT_EQ(got.out.recovery.crashed_machine, 1u);
  EXPECT_GT(got.slot_records[2], 0u);
}

TEST(ElasticityTest, CrashOnGrownMachineAfterInstall) {
  const Workload w = MakeMicroWorkload(SmallMicro(2));
  const RunSnapshot ref = RunOnce(w, StreamingOpts(TransportKind::kDirect));

  // Machine 2 only exists (gets slices) after the grow at epoch 4; its
  // crash trigger fires on the first post-migration round it drains. The
  // forced cut checkpoint must hand recovery the migrated keys — without
  // it, replay would rebuild an empty partition.
  LocalClusterOptions opts =
      ResizeOpts(TransportKind::kInProcess, {{4, +1}});
  opts.crash.events.push_back({2, 5});
  opts.detector.heartbeat_interval_us = test::ScaledUs(2000);
  opts.detector.deadline_us = test::ScaledUs(100000);
  const RunSnapshot got = RunOnce(w, opts);
  ExpectSameResults(ref.out.results, got.out.results);
  EXPECT_EQ(got.state, ref.state)
      << "crash of the grown machine after install diverged";
  ExpectMigrated(got.out, 1, 3);
  EXPECT_EQ(got.out.recovery.crashes_injected, 1u);
  EXPECT_EQ(got.out.recovery.crashed_machine, 2u);
  EXPECT_GT(got.out.recovery.checkpoint_records, 0u)
      << "recovery should restore the migrated records from the forced "
         "cut checkpoint";
  EXPECT_GT(got.slot_records[2], 0u);
}

TEST(ElasticityTest, ResizeComposesWithSeededChaos) {
  const Workload w = MakeMicroWorkload(SmallMicro(3));
  const RunSnapshot ref = RunOnce(w, StreamingOpts(TransportKind::kDirect));

  LocalClusterOptions opts =
      ResizeOpts(TransportKind::kInProcess, {{7, +1}});
  const std::string schedule = ApplySeededChaos(7, 3, 21, opts);
  SCOPED_TRACE(schedule);
  const RunSnapshot got = RunOnce(w, opts);
  ExpectSameResults(ref.out.results, got.out.results);
  EXPECT_EQ(got.state, ref.state) << "resize + chaos matrix diverged";
  ExpectMigrated(got.out, 1, 4);
  EXPECT_EQ(got.out.recovery.crashes_injected, 3u);
  EXPECT_GT(got.slot_records[3], 0u);
}

// ---------------------------------------------------------------------
// Hot-key policy: explicit placement, still byte-identical.
// ---------------------------------------------------------------------

TEST(ElasticityTest, HotKeyPolicyMatchesFixedRunAndPinsKeys) {
  const Workload w = MakeMicroWorkload(SmallMicro(2));
  const RunSnapshot ref = RunOnce(w, StreamingOpts(TransportKind::kDirect));

  LocalClusterOptions opts =
      ResizeOpts(TransportKind::kDirect, {{4, +1}});
  opts.resize.policy = MigrationPolicy::kHotKey;
  opts.resize.hot_keys = 16;
  LocalCluster cluster(&w, opts);
  const ClusterRunOutcome out = cluster.RunTPart();
  ExpectSameResults(ref.out.results, out.results);
  EXPECT_EQ(cluster.store().Snapshot(), ref.state)
      << "hot-key migration diverged from the fixed-membership run";
  ExpectMigrated(out, 1, 3);
  // The scheduler filled the override table from observed frequencies
  // before publishing the step: on a 2 -> 3 grow every pinned key lands
  // on the added machine.
  const ElasticPartitionMap* map = cluster.elastic_map();
  ASSERT_NE(map, nullptr);
  EXPECT_EQ(map->active_version(), 1u);
  const MembershipStep& step = map->step(0);
  EXPECT_FALSE(step.overrides.empty());
  EXPECT_LE(step.overrides.size(), opts.resize.hot_keys);
  for (const auto& [key, machine] : step.overrides) {
    (void)key;
    EXPECT_EQ(machine, 2u);
  }
}

// ---------------------------------------------------------------------
// Pipeline gauge satellite: the inbound-FIFO depth is reported.
// ---------------------------------------------------------------------

TEST(ElasticityTest, ReportsMachineInboundHighWater) {
  const Workload w = MakeMicroWorkload(SmallMicro(2));
  const RunSnapshot got = RunOnce(w, StreamingOpts(TransportKind::kDirect));
  EXPECT_GT(got.out.pipeline.machine_inbound_high_water, 0u);
}

}  // namespace
}  // namespace tpart
