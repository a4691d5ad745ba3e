// Integration tests of the threaded runtime: the Calvin-mode and
// T-Part-mode clusters must produce exactly the serial reference's
// per-transaction outputs and final database state — determinism +
// serializability across engines.

#include <gtest/gtest.h>

#include "exec/serial_executor.h"
#include "runtime/cluster.h"
#include "storage/kv_store.h"
#include "workload/micro.h"
#include "workload/tpcc.h"
#include "workload/tpce.h"

namespace tpart {
namespace {

// Serial reference over a single store; returns results + final snapshot.
std::pair<std::vector<TxnResult>, std::vector<std::pair<ObjectKey, Record>>>
SerialReference(const Workload& w) {
  // One-partition store so the snapshot covers everything.
  auto map = std::make_shared<HashPartitionMap>(1);
  PartitionedStore store(1, map);
  // Load via the workload's own loader but into one partition.
  PartitionedStore scratch(w.num_machines, w.partition_map);
  w.loader(scratch);
  for (auto& [k, rec] : scratch.Snapshot()) store.Upsert(k, rec);
  auto result = RunSerial(*w.procedures, w.SequencedRequests(),
                          store.store(0));
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return {std::move(result->results), store.Snapshot()};
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

void CheckEnginesAgree(const Workload& w, LocalClusterOptions opts) {
  const auto [serial_results, serial_state] = SerialReference(w);

  LocalCluster cluster(&w, opts);
  const ClusterRunOutcome tpart = cluster.RunTPart();
  ExpectSameResults(serial_results, tpart.results);
  EXPECT_EQ(cluster.store().Snapshot(), serial_state)
      << "T-Part final state diverged from serial";

  const ClusterRunOutcome calvin = cluster.RunCalvin();
  ExpectSameResults(serial_results, calvin.results);
  EXPECT_EQ(cluster.store().Snapshot(), serial_state)
      << "Calvin final state diverged from serial";
}

LocalClusterOptions SmallClusterOpts(std::size_t sink_size = 20) {
  LocalClusterOptions opts;
  opts.scheduler.sink_size = sink_size;
  return opts;
}

TEST(RuntimeTest, MicroEnginesMatchSerial) {
  MicroOptions o;
  o.num_machines = 3;
  o.records_per_machine = 300;
  o.hot_set_size = 30;
  o.num_txns = 600;
  CheckEnginesAgree(MakeMicroWorkload(o), SmallClusterOpts());
}

TEST(RuntimeTest, MicroLocalOnlyWorkload) {
  MicroOptions o;
  o.num_machines = 2;
  o.records_per_machine = 200;
  o.hot_set_size = 20;
  o.num_txns = 300;
  o.distributed_rate = 0.0;
  CheckEnginesAgree(MakeMicroWorkload(o), SmallClusterOpts());
}

TEST(RuntimeTest, TpccEnginesMatchSerialIncludingAborts) {
  TpccOptions o;
  o.num_machines = 3;
  o.warehouses_per_machine = 1;
  o.customers_per_district = 20;
  o.num_items = 100;
  o.num_txns = 400;
  o.abort_prob = 0.05;  // exercise §5.3 abort forwarding
  CheckEnginesAgree(MakeTpccWorkload(o), SmallClusterOpts());
}

TEST(RuntimeTest, TpceEnginesMatchSerial) {
  TpceOptions o;
  o.num_machines = 3;
  o.customers_per_machine = 50;
  o.securities_per_machine = 30;
  o.num_txns = 400;
  CheckEnginesAgree(MakeTpceWorkload(o), SmallClusterOpts());
}

TEST(RuntimeTest, TinySinkSizeStillCorrect) {
  MicroOptions o;
  o.num_machines = 2;
  o.records_per_machine = 100;
  o.hot_set_size = 10;
  o.num_txns = 150;
  CheckEnginesAgree(MakeMicroWorkload(o), SmallClusterOpts(/*sink=*/1));
}

TEST(RuntimeTest, GStoreModeStillCorrect) {
  MicroOptions o;
  o.num_machines = 2;
  o.records_per_machine = 100;
  o.hot_set_size = 10;
  o.num_txns = 200;
  LocalClusterOptions opts = SmallClusterOpts(1);
  opts.scheduler.graph.always_write_back = true;
  opts.scheduler.graph.sticky_cache = false;
  opts.scheduler.optimize_plans = false;
  const Workload w = MakeMicroWorkload(o);
  const auto [serial_results, serial_state] = SerialReference(w);
  LocalCluster cluster(&w, opts);
  const ClusterRunOutcome tpart = cluster.RunTPart();
  ExpectSameResults(serial_results, tpart.results);
  EXPECT_EQ(cluster.store().Snapshot(), serial_state);
}

TEST(RuntimeTest, PlanOptimizerPreservesCorrectness) {
  MicroOptions o;
  o.num_machines = 3;
  o.records_per_machine = 100;
  o.hot_set_size = 10;  // hot keys => many same-version readers => relays
  o.num_txns = 400;
  LocalClusterOptions with_opt = SmallClusterOpts();
  with_opt.scheduler.optimize_plans = true;
  LocalClusterOptions without_opt = SmallClusterOpts();
  without_opt.scheduler.optimize_plans = false;
  const Workload w = MakeMicroWorkload(o);
  CheckEnginesAgree(w, with_opt);
  CheckEnginesAgree(w, without_opt);
}

TEST(RuntimeTest, RepeatedRunsAreDeterministic) {
  MicroOptions o;
  o.num_machines = 2;
  o.records_per_machine = 200;
  o.hot_set_size = 20;
  o.num_txns = 300;
  const Workload w = MakeMicroWorkload(o);
  LocalCluster cluster(&w, SmallClusterOpts());
  const ClusterRunOutcome a = cluster.RunTPart();
  const auto state_a = cluster.store().Snapshot();
  const ClusterRunOutcome b = cluster.RunTPart();
  ExpectSameResults(a.results, b.results);
  EXPECT_EQ(cluster.store().Snapshot(), state_a);
}

TEST(RuntimeTest, CacheStaysBounded) {
  // §5.2: "the total size of the essential cache entries on each machine
  // is proportional to the working set" — after a run everything planned
  // must have been consumed.
  MicroOptions o;
  o.num_machines = 2;
  o.records_per_machine = 200;
  o.hot_set_size = 20;
  o.num_txns = 400;
  const Workload w = MakeMicroWorkload(o);
  LocalCluster cluster(&w, SmallClusterOpts());
  cluster.RunTPart();
  for (MachineId m = 0; m < 2; ++m) {
    EXPECT_EQ(cluster.machine(m).cache().num_version_entries(), 0u)
        << "machine " << m << " leaked version entries";
  }
}

}  // namespace
}  // namespace tpart
