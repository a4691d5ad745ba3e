// §5.4 failure handling: each machine can rebuild its partition locally
// from its request log (own plans only) and its network log (PUSH-log
// generalised), starting from a checkpoint.

#include <gtest/gtest.h>

#include "runtime/cluster.h"
#include "runtime/recovery.h"
#include "workload/micro.h"
#include "workload/tpcc.h"

namespace tpart {
namespace {

LocalClusterOptions Opts(std::size_t sink = 15) {
  LocalClusterOptions o;
  o.scheduler.sink_size = sink;
  return o;
}

void CheckReplayRebuildsPartition(const Workload& w,
                                  LocalClusterOptions opts) {
  LocalCluster cluster(&w, opts);
  const ClusterRunOutcome live = cluster.RunTPart();

  for (MachineId m = 0; m < w.num_machines; ++m) {
    Machine& failed = cluster.machine(m);
    const ReplayResult replayed =
        ReplayMachine(w, m, failed.request_log(), failed.network_log());

    // The replayed partition matches the pre-crash partition.
    auto live_snapshot = [&] {
      std::vector<std::pair<ObjectKey, Record>> out;
      cluster.store().store(m).Scan(
          0, ~ObjectKey{0},
          [&](ObjectKey k, const Record& r) { out.emplace_back(k, r); });
      return out;
    }();
    auto replay_snapshot = [&] {
      std::vector<std::pair<ObjectKey, Record>> out;
      replayed.store->store(m).Scan(
          0, ~ObjectKey{0},
          [&](ObjectKey k, const Record& r) { out.emplace_back(k, r); });
      return out;
    }();
    EXPECT_EQ(replay_snapshot, live_snapshot)
        << "machine " << m << " replay diverged";

    // Replayed transaction results match the live run's results for the
    // transactions this machine executed.
    std::size_t idx = 0;
    for (const TxnResult& r : replayed.results) {
      while (idx < live.results.size() && live.results[idx].id != r.id) {
        ++idx;
      }
      ASSERT_LT(idx, live.results.size());
      EXPECT_EQ(live.results[idx].committed, r.committed);
      EXPECT_EQ(live.results[idx].output, r.output);
    }
  }
}

TEST(RecoveryTest, MicroReplayMatchesLiveRun) {
  MicroOptions o;
  o.num_machines = 3;
  o.records_per_machine = 150;
  o.hot_set_size = 15;
  o.num_txns = 300;
  CheckReplayRebuildsPartition(MakeMicroWorkload(o), Opts());
}

TEST(RecoveryTest, TpccReplayWithAborts) {
  TpccOptions o;
  o.num_machines = 2;
  o.warehouses_per_machine = 1;
  o.customers_per_district = 20;
  o.num_items = 80;
  o.num_txns = 250;
  o.abort_prob = 0.05;
  CheckReplayRebuildsPartition(MakeTpccWorkload(o), Opts());
}

TEST(RecoveryTest, RequestLogHoldsOnlyOwnPlans) {
  MicroOptions o;
  o.num_machines = 2;
  o.records_per_machine = 100;
  o.hot_set_size = 10;
  o.num_txns = 200;
  const Workload w = MakeMicroWorkload(o);
  LocalCluster cluster(&w, Opts());
  cluster.RunTPart();
  std::size_t total_logged = 0;
  for (MachineId m = 0; m < 2; ++m) {
    for (const auto& entry : cluster.machine(m).request_log()) {
      EXPECT_EQ(entry.item.plan.machine, m);
      ++total_logged;
    }
  }
  EXPECT_EQ(total_logged, 200u);  // every txn logged exactly once
}

TEST(RecoveryTest, PushLogRecordsInboundPushes) {
  MicroOptions o;
  o.num_machines = 2;
  o.records_per_machine = 100;
  o.hot_set_size = 10;
  o.num_txns = 300;
  o.distributed_rate = 1.0;
  const Workload w = MakeMicroWorkload(o);
  LocalCluster cluster(&w, Opts());
  cluster.RunTPart();
  std::size_t pushes = 0;
  for (MachineId m = 0; m < 2; ++m) {
    for (const Message& msg : cluster.machine(m).network_log()) {
      if (msg.type == Message::Type::kPushVersion) ++pushes;
    }
  }
  EXPECT_GT(pushes, 0u);
}

}  // namespace
}  // namespace tpart
