#include <gtest/gtest.h>

#include "sim/sim_cluster.h"

namespace tpart {
namespace {

// ---- SimWorkerPool -------------------------------------------------------

TEST(SimWorkerPoolTest, EarliestWorkerTieBreaksLowestIndex) {
  SimWorkerPool pool(3);
  EXPECT_EQ(pool.EarliestWorker(), 0u);
  pool.set_free_at(0, 100);
  EXPECT_EQ(pool.EarliestWorker(), 1u);
  pool.set_free_at(1, 50);
  pool.set_free_at(2, 50);
  EXPECT_EQ(pool.EarliestWorker(), 1u);  // tie -> lower index
}

TEST(SimWorkerPoolTest, FrontierIsMaxFreeTime) {
  SimWorkerPool pool(2);
  pool.set_free_at(0, 10);
  pool.set_free_at(1, 30);
  EXPECT_EQ(pool.Frontier(), 30);
  EXPECT_EQ(pool.EarliestFreeTime(), 10);
}

// ---- SimLockTable ----------------------------------------------------------

TEST(SimLockTableTest, ReadersWaitOnlyForWriters) {
  SimLockTable locks;
  EXPECT_EQ(locks.ReadAvailable(1), 0);
  locks.ReleaseRead(1, 100);
  EXPECT_EQ(locks.ReadAvailable(1), 0);   // reads don't block reads
  EXPECT_EQ(locks.WriteAvailable(1), 100);  // but block writes
  locks.ReleaseWrite(1, 200);
  EXPECT_EQ(locks.ReadAvailable(1), 200);
  EXPECT_EQ(locks.WriteAvailable(1), 200);
}

TEST(SimLockTableTest, ReleasesKeepMaximum) {
  SimLockTable locks;
  locks.ReleaseWrite(1, 300);
  locks.ReleaseWrite(1, 100);  // out-of-order release must not regress
  EXPECT_EQ(locks.ReadAvailable(1), 300);
}

// ---- SimCluster ------------------------------------------------------------

TEST(SimClusterTest, ClusterNowAndMakespan) {
  CostModel cost;
  cost.workers_per_machine = 2;
  SimCluster cluster(2, cost);
  EXPECT_EQ(cluster.ClusterNow(), 0);
  cluster.machine(0).workers.set_free_at(0, 100);
  cluster.machine(0).workers.set_free_at(1, 200);
  cluster.machine(1).workers.set_free_at(0, 50);
  cluster.machine(1).workers.set_free_at(1, 60);
  EXPECT_EQ(cluster.ClusterNow(), 50);
  EXPECT_EQ(cluster.Makespan(), 200);
}

TEST(CostModelTest, SpeedScaling) {
  CostModel cost;
  cost.machine_speed = {2.0, 0.5};
  EXPECT_EQ(cost.Scaled(1000, 0), 500);
  EXPECT_EQ(cost.Scaled(1000, 1), 2000);
  EXPECT_EQ(cost.Scaled(1000, 2), 1000);  // default 1.0 beyond the vector
  EXPECT_EQ(cost.rtt(), 2 * cost.network_latency);
  EXPECT_FALSE(cost.ToString().empty());
}

}  // namespace
}  // namespace tpart
