// Parameterised property sweeps: for randomised workloads across a grid
// of engine configurations, the T-Part runtime must (a) agree with the
// serial reference on final state and outputs, and (b) produce identical
// plans from independent schedulers.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exec/serial_executor.h"
#include "runtime/cluster.h"
#include "runtime/recovery.h"
#include "scheduler/tpart_scheduler.h"
#include "test_time.h"
#include "workload/micro.h"

namespace tpart {
namespace {

// (machines, sink_size, distributed_rate, optimize_plans, seed)
using Config = std::tuple<int, int, double, bool, int>;

class EngineEquivalence : public ::testing::TestWithParam<Config> {};

TEST_P(EngineEquivalence, TPartMatchesSerial) {
  const auto [machines, sink_size, dist_rate, optimize, seed] = GetParam();
  MicroOptions o;
  o.num_machines = static_cast<std::size_t>(machines);
  o.records_per_machine = 120;
  o.hot_set_size = 12;
  o.num_txns = 250;
  o.distributed_rate = dist_rate;
  o.seed = static_cast<std::uint64_t>(seed);
  const Workload w = MakeMicroWorkload(o);

  // Serial reference.
  auto map1 = std::make_shared<HashPartitionMap>(1);
  PartitionedStore serial_store(1, map1);
  PartitionedStore scratch(w.num_machines, w.partition_map);
  w.loader(scratch);
  for (auto& [k, rec] : scratch.Snapshot()) serial_store.Upsert(k, rec);
  auto serial = RunSerial(*w.procedures, w.SequencedRequests(),
                          serial_store.store(0));
  ASSERT_TRUE(serial.ok());

  LocalClusterOptions opts;
  opts.scheduler.sink_size = static_cast<std::size_t>(sink_size);
  opts.scheduler.optimize_plans = optimize;
  LocalCluster cluster(&w, opts);
  const ClusterRunOutcome outcome = cluster.RunTPart();

  ASSERT_EQ(outcome.results.size(), serial->results.size());
  for (std::size_t i = 0; i < outcome.results.size(); ++i) {
    ASSERT_EQ(outcome.results[i].output, serial->results[i].output)
        << "output diverged at T" << outcome.results[i].id;
  }
  EXPECT_EQ(cluster.store().Snapshot(), serial_store.Snapshot());
}

TEST_P(EngineEquivalence, IndependentSchedulersAgree) {
  const auto [machines, sink_size, dist_rate, optimize, seed] = GetParam();
  MicroOptions o;
  o.num_machines = static_cast<std::size_t>(machines);
  o.records_per_machine = 120;
  o.hot_set_size = 12;
  o.num_txns = 250;
  o.distributed_rate = dist_rate;
  o.seed = static_cast<std::uint64_t>(seed);
  const Workload w = MakeMicroWorkload(o);

  TPartScheduler::Options sopts;
  sopts.sink_size = static_cast<std::size_t>(sink_size);
  sopts.optimize_plans = optimize;
  sopts.graph.num_machines = w.num_machines;
  sopts.graph.read_own_writes = true;
  TPartScheduler a(sopts, w.partition_map);
  TPartScheduler b(sopts, w.partition_map);
  std::vector<SinkPlan> pa, pb;
  for (const TxnSpec& spec : w.SequencedRequests()) {
    for (auto& p : a.OnTxn(spec)) pa.push_back(std::move(p));
    for (auto& p : b.OnTxn(spec)) pb.push_back(std::move(p));
  }
  for (auto& p : a.Drain()) pa.push_back(std::move(p));
  for (auto& p : b.Drain()) pb.push_back(std::move(p));
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_TRUE(pa[i] == pb[i]) << "round " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EngineEquivalence,
    ::testing::Values(
        Config{2, 1, 1.0, true, 1}, Config{2, 5, 1.0, true, 2},
        Config{2, 25, 1.0, false, 3}, Config{3, 10, 0.5, true, 4},
        Config{3, 10, 0.0, true, 5}, Config{4, 7, 1.0, true, 6},
        Config{4, 40, 0.3, false, 7}, Config{5, 13, 0.8, true, 8}));

// Partition-balance property: for any stream, the weighted streaming
// partitioner keeps machine loads within a reasonable envelope.
class BalanceProperty : public ::testing::TestWithParam<int> {};

TEST_P(BalanceProperty, LoadsStayBounded) {
  MicroOptions o;
  o.num_machines = 4;
  o.records_per_machine = 200;
  o.num_txns = 400;
  o.seed = static_cast<std::uint64_t>(GetParam());
  const Workload w = MakeMicroWorkload(o);
  TPartScheduler::Options sopts;
  sopts.sink_size = 50;
  sopts.graph.num_machines = 4;
  TPartScheduler sched(sopts, w.partition_map);
  for (const TxnSpec& spec : w.SequencedRequests()) sched.OnTxn(spec);
  const auto loads = sched.graph().AssignedLoad();
  double total = 0;
  double mx = 0;
  for (const double l : loads) {
    total += l;
    mx = std::max(mx, l);
  }
  ASSERT_GT(total, 0.0);
  EXPECT_LT(mx, 0.6 * total);  // no machine hoards the window
}

INSTANTIATE_TEST_SUITE_P(Seeds, BalanceProperty,
                         ::testing::Values(11, 22, 33, 44, 55));

// Structural T-graph invariants must hold after every sink round of an
// arbitrary stream, for any sink size and modelling options.
class GraphInvariantProperty
    : public ::testing::TestWithParam<std::tuple<int, bool, bool, int>> {};

TEST_P(GraphInvariantProperty, HoldAcrossSinkRounds) {
  const auto [sink_size, read_own_writes, always_write_back, seed] =
      GetParam();
  MicroOptions o;
  o.num_machines = 3;
  o.records_per_machine = 80;
  o.hot_set_size = 8;
  o.num_txns = 300;
  o.seed = static_cast<std::uint64_t>(seed);
  const Workload w = MakeMicroWorkload(o);

  TPartScheduler::Options sopts;
  sopts.sink_size = static_cast<std::size_t>(sink_size);
  sopts.graph.num_machines = 3;
  sopts.graph.read_own_writes = read_own_writes;
  sopts.graph.always_write_back = always_write_back;
  TPartScheduler sched(sopts, w.partition_map);

  std::string why;
  for (const TxnSpec& spec : w.SequencedRequests()) {
    const auto plans = sched.OnTxn(spec);
    if (!plans.empty()) {
      ASSERT_TRUE(sched.graph().CheckInvariants(&why)) << why;
    }
  }
  sched.Drain();
  ASSERT_TRUE(sched.graph().CheckInvariants(&why)) << why;
}

// Checkpoint-replay equivalence property: for any seeded workload, the
// checkpoint-plus-truncated-suffix offline replay must reconstruct every
// machine byte-identically to the full-log replay — same final partition
// state, and matching results for every transaction the suffix covers.
class CheckpointReplayProperty : public ::testing::TestWithParam<int> {};

TEST_P(CheckpointReplayProperty, SuffixReplayMatchesFullLogReplay) {
  MicroOptions o;
  o.num_machines = 3;
  o.records_per_machine = 150;
  o.hot_set_size = 15;
  o.num_txns = 300;
  o.seed = static_cast<std::uint64_t>(GetParam());
  const Workload w = MakeMicroWorkload(o);

  auto partition_state = [](PartitionedStore& store, MachineId m) {
    std::vector<std::pair<ObjectKey, Record>> state;
    store.store(m).Scan(
        0, std::numeric_limits<ObjectKey>::max(),
        [&](ObjectKey k, const Record& v) { state.emplace_back(k, v); });
    std::sort(state.begin(), state.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    return state;
  };

  LocalClusterOptions streaming;
  streaming.scheduler.sink_size = 20;

  // Full-log run: nothing truncated, logs cover the whole stream.
  LocalCluster full(&w, streaming);
  ASSERT_TRUE(full.RunTPart().fault.ok());

  // Checkpointed run: logs hold only the suffix since each machine's
  // last capture; the checkpoint image holds everything before it.
  LocalClusterOptions checkpointed = streaming;
  checkpointed.checkpoint_every = 4;
  LocalCluster incr(&w, checkpointed);
  ASSERT_TRUE(incr.RunTPart().fault.ok());

  for (std::size_t m = 0; m < w.num_machines; ++m) {
    const MachineId id = static_cast<MachineId>(m);
    ReplayResult via_full =
        ReplayMachine(w, id, full.machine(id).request_log(),
                      full.machine(id).network_log());
    ASSERT_NE(incr.checkpoint(id), nullptr);
    ASSERT_GT(incr.checkpoint(id)->epoch(), 0u)
        << "machine " << m << " never captured";
    ASSERT_LT(incr.machine(id).request_log().size(),
              full.machine(id).request_log().size())
        << "machine " << m << " log was not truncated";
    ReplayResult via_suffix =
        ReplayMachine(w, id, *incr.checkpoint(id),
                      incr.machine(id).request_log(),
                      incr.machine(id).network_log());

    EXPECT_EQ(partition_state(*via_suffix.store, id),
              partition_state(*via_full.store, id))
        << "machine " << m << " partition diverged";

    // Both replays carry a result for every transaction of the machine:
    // the full replay re-executes them all, the suffix replay re-executes
    // only the post-capture tail but restores the prefix's results from
    // the checkpoint image. They must agree pairwise.
    std::unordered_map<TxnId, const TxnResult*> by_id;
    for (const TxnResult& r : via_full.results) by_id.emplace(r.id, &r);
    EXPECT_EQ(via_suffix.results.size(), via_full.results.size())
        << "machine " << m;
    for (const TxnResult& r : via_suffix.results) {
      auto it = by_id.find(r.id);
      ASSERT_NE(it, by_id.end()) << "machine " << m << " T" << r.id;
      EXPECT_EQ(r.committed, it->second->committed)
          << "machine " << m << " T" << r.id;
      EXPECT_EQ(r.output, it->second->output)
          << "machine " << m << " T" << r.id;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckpointReplayProperty,
                         ::testing::Values(101, 202, 303, 404));

// Chaos-transport replay property: for any seed, a TCP-transport
// streaming run that checkpoints every few epochs while the full seeded
// chaos matrix fires (two distinct victims, a repeat crash of the first
// after its recovery, and a straggler) must stay byte-identical to a
// clean direct-transport run — same per-transaction outputs, same final
// store — and every machine must still be reconstructible offline from
// its last checkpoint image plus the truncated log suffix.
class ChaosTransportReplayProperty : public ::testing::TestWithParam<int> {};

TEST_P(ChaosTransportReplayProperty, TcpChaosRunMatchesCleanDirectRun) {
  MicroOptions o;
  o.num_machines = 3;
  o.records_per_machine = 150;
  o.hot_set_size = 15;
  o.num_txns = 400;
  o.seed = static_cast<std::uint64_t>(GetParam());
  const Workload w = MakeMicroWorkload(o);

  LocalClusterOptions clean;
  clean.scheduler.sink_size = 20;
  LocalCluster baseline(&w, clean);
  const ClusterRunOutcome want = baseline.RunTPart();
  ASSERT_TRUE(want.fault.ok()) << want.fault.ToString();

  LocalClusterOptions chaotic = clean;
  chaotic.transport.kind = TransportKind::kTcp;
  chaotic.checkpoint_every = 4;
  chaotic.detector.heartbeat_interval_us = test::ScaledUs(2000);
  chaotic.detector.deadline_us = test::ScaledUs(100000);
  const SinkEpoch span = static_cast<SinkEpoch>(o.num_txns / 20);
  const std::string schedule = ApplySeededChaos(
      static_cast<std::uint64_t>(GetParam()), w.num_machines, span, chaotic);
  LocalCluster cluster(&w, chaotic);
  const ClusterRunOutcome got = cluster.RunTPart();
  ASSERT_TRUE(got.fault.ok()) << schedule << ": " << got.fault.ToString();
  EXPECT_EQ(got.recovery.crashes_injected, 3u) << schedule;

  ASSERT_EQ(got.results.size(), want.results.size());
  for (std::size_t i = 0; i < got.results.size(); ++i) {
    ASSERT_EQ(got.results[i].id, want.results[i].id) << schedule;
    ASSERT_EQ(got.results[i].committed, want.results[i].committed)
        << schedule << " T" << got.results[i].id;
    ASSERT_EQ(got.results[i].output, want.results[i].output)
        << schedule << " T" << got.results[i].id;
  }
  EXPECT_EQ(cluster.store().Snapshot(), baseline.store().Snapshot());

  auto partition_state = [](PartitionedStore& store, MachineId m) {
    std::vector<std::pair<ObjectKey, Record>> state;
    store.store(m).Scan(
        0, std::numeric_limits<ObjectKey>::max(),
        [&](ObjectKey k, const Record& v) { state.emplace_back(k, v); });
    std::sort(state.begin(), state.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    return state;
  };

  // Checkpoint-aware replay: even though the crashes already consumed
  // the live checkpoints once (in-run recovery restores from them), the
  // offline image-plus-suffix replay must rebuild every partition
  // byte-identically to the cluster's final state.
  for (std::size_t m = 0; m < w.num_machines; ++m) {
    const MachineId id = static_cast<MachineId>(m);
    ASSERT_NE(cluster.checkpoint(id), nullptr) << schedule;
    ASSERT_GT(cluster.checkpoint(id)->epoch(), 0u)
        << schedule << " machine " << m << " never captured";
    ReplayResult replayed =
        ReplayMachine(w, id, *cluster.checkpoint(id),
                      cluster.machine(id).request_log(),
                      cluster.machine(id).network_log());
    EXPECT_EQ(partition_state(*replayed.store, id),
              partition_state(cluster.store(), id))
        << schedule << " machine " << m << " partition diverged";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosTransportReplayProperty,
                         ::testing::Values(7, 21, 42));

INSTANTIATE_TEST_SUITE_P(
    Grid, GraphInvariantProperty,
    ::testing::Values(std::tuple<int, bool, bool, int>{1, true, false, 1},
                      std::tuple<int, bool, bool, int>{3, true, false, 2},
                      std::tuple<int, bool, bool, int>{10, false, false, 3},
                      std::tuple<int, bool, bool, int>{10, true, true, 4},
                      std::tuple<int, bool, bool, int>{25, true, false, 5},
                      std::tuple<int, bool, bool, int>{1, true, true, 6}));

}  // namespace
}  // namespace tpart
