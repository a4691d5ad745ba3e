#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <string>

#include "common/random.h"
#include "partition/streaming_greedy.h"
#include "storage/data_partition.h"
#include "tgraph/edge_weight.h"
#include "tgraph/tgraph.h"
#include "workload/micro.h"

namespace tpart {
namespace {

TxnSpec Txn(TxnId id, std::vector<ObjectKey> reads,
            std::vector<ObjectKey> writes) {
  TxnSpec spec;
  spec.id = id;
  spec.rw.reads = std::move(reads);
  spec.rw.writes = std::move(writes);
  spec.rw.Normalize();
  return spec;
}

TGraph MakeGraph(std::size_t machines = 2, bool read_own_writes = false) {
  TGraph::Options o;
  o.num_machines = machines;
  o.read_own_writes = read_own_writes;
  return TGraph(o, std::make_shared<HashPartitionMap>(machines));
}

// ---- Edge-weight models -----------------------------------------------

TEST(EdgeWeightTest, ConstantIsFlat) {
  ConstantEdgeWeight w(2.5);
  EXPECT_DOUBLE_EQ(w.Weight(1, 2), 2.5);
  EXPECT_DOUBLE_EQ(w.Weight(1, 500), 2.5);
}

TEST(EdgeWeightTest, LinearDecayDecreasesWithDistance) {
  LinearDecayEdgeWeight w;
  EXPECT_GT(w.Weight(1, 2), w.Weight(1, 100));
  EXPECT_GE(w.Weight(1, 100), w.Weight(1, 100000));
  EXPECT_GT(w.Weight(1, 100000), 0.0);  // floor
}

TEST(EdgeWeightTest, SigmoidDropsAroundMidpoint) {
  SigmoidEdgeWeight w(0.1, 1.0, 200.0, 25.0);
  EXPECT_NEAR(w.Weight(1, 2), 1.0, 0.01);
  EXPECT_NEAR(w.Weight(1, 2001), 0.1, 0.01);
  const double mid = w.Weight(1, 201);
  EXPECT_GT(mid, 0.3);
  EXPECT_LT(mid, 0.8);
}

// ---- T-graph construction ----------------------------------------------

TEST(TGraphTest, RejectsOutOfOrderIds) {
  TGraph g = MakeGraph();
  g.AddTxn(Txn(1, {1}, {}));
  // Id 3 skips 2 -> deterministic engines must see every position.
  EXPECT_DEATH(g.AddTxn(Txn(3, {1}, {})), "non-consecutive");
}

TEST(TGraphTest, DummiesAreIsolatedZeroWeightNodes) {
  TGraph g = MakeGraph();
  TxnSpec dummy = MakeDummyTxn();
  dummy.id = 1;
  g.AddTxn(dummy);
  EXPECT_EQ(g.num_unsunk(), 1u);
  EXPECT_EQ(g.node(1).weight, 0.0);
  EXPECT_TRUE(g.node(1).edges.empty());
}

// Live edges of `node` with the given kind.
std::vector<TEdge> EdgesOf(const TGraph& g, TxnId id, EdgeKind kind) {
  std::vector<TEdge> out;
  for (const std::size_t eid : g.node(id).edges) {
    const TEdge& e = g.edge(eid);
    if (!e.stale && e.kind == kind) out.push_back(e);
  }
  return out;
}

TEST(TGraphTest, WrConflictCreatesForwardPushEdge) {
  TGraph g = MakeGraph();
  g.AddTxn(Txn(1, {}, {10}));
  g.AddTxn(Txn(2, {10}, {}));
  const auto pushes = EdgesOf(g, 2, EdgeKind::kForwardPush);
  ASSERT_EQ(pushes.size(), 1u);
  EXPECT_EQ(pushes[0].src_txn, 1u);
  EXPECT_EQ(pushes[0].dst_txn, 2u);
  EXPECT_EQ(pushes[0].key, 10u);
}

TEST(TGraphTest, ReadingFromTheEarliestPicksWriterNotReader) {
  // T1 writes X; T2 reads X; T3 reads X. T3's edge must come from T1
  // (the earliest holder of the version), not from T2 (§4.2).
  TGraph g = MakeGraph();
  g.AddTxn(Txn(1, {}, {10}));
  g.AddTxn(Txn(2, {10}, {}));
  g.AddTxn(Txn(3, {10}, {}));
  const auto pushes = EdgesOf(g, 3, EdgeKind::kForwardPush);
  ASSERT_EQ(pushes.size(), 1u);
  EXPECT_EQ(pushes[0].src_txn, 1u);
}

TEST(TGraphTest, ColdReadCreatesStorageReadEdge) {
  TGraph g = MakeGraph();
  g.AddTxn(Txn(1, {10}, {}));
  const TxnNode& n1 = g.node(1);
  ASSERT_EQ(n1.edges.size(), 1u);
  const TEdge& e = g.edge(n1.edges[0]);
  EXPECT_EQ(e.kind, EdgeKind::kStorageRead);
  EXPECT_EQ(e.src_txn, kInvalidTxnId);
  EXPECT_EQ(e.sink, g.data_map().Locate(10));
}

TEST(TGraphTest, WritingBackTheLatestMovesTheDuty) {
  // The storage-write edge follows the latest accessor of a dirty object.
  TGraph g = MakeGraph();
  g.AddTxn(Txn(1, {}, {10}));
  g.AddTxn(Txn(2, {10}, {}));
  // T1: write edge created at write, then moved to T2 at its read.
  std::size_t live_wb_edges = 0;
  TxnId owner = 0;
  for (const auto& n : {g.node(1), g.node(2)}) {
    for (const std::size_t eid : n.edges) {
      const TEdge& e = g.edge(eid);
      if (e.kind == EdgeKind::kStorageWrite && !e.stale) {
        ++live_wb_edges;
        owner = e.src_txn;
      }
    }
  }
  EXPECT_EQ(live_wb_edges, 1u);
  EXPECT_EQ(owner, 2u);
}

TEST(TGraphTest, ReadOwnWritesUnionsSets) {
  TGraph g = MakeGraph(2, /*read_own_writes=*/true);
  g.AddTxn(Txn(1, {}, {10}));  // blind write now also reads 10
  const TxnNode& n1 = g.node(1);
  bool has_storage_read = false;
  for (const std::size_t eid : n1.edges) {
    if (g.edge(eid).kind == EdgeKind::kStorageRead) has_storage_read = true;
  }
  EXPECT_TRUE(has_storage_read);
}

TEST(TGraphTest, AffinityCountsPlacedNeighboursAndSinks) {
  TGraph g = MakeGraph(2);
  g.AddTxn(Txn(1, {}, {10}));
  g.AddTxn(Txn(2, {10}, {}));
  g.mutable_node(1).assigned = 1;
  std::vector<double> affinity(2, 0.0);
  g.AccumulateAffinity(2, affinity);
  // Push edge toward T1's machine (weight 1) plus T2's storage-write...
  // T2 holds the write-back duty for key 10 toward its home sink.
  const MachineId home = g.data_map().Locate(10);
  std::vector<double> expect(2, 0.0);
  expect[1] += 1.0;          // forward-push edge to T1@1
  expect[home] += 1.0;       // storage-write duty edge
  EXPECT_EQ(affinity, expect);
}

TEST(TGraphTest, CutWeightCountsCrossAssignments) {
  TGraph g = MakeGraph(2);
  g.AddTxn(Txn(1, {}, {10}));
  g.AddTxn(Txn(2, {10}, {}));
  g.mutable_node(1).assigned = 0;
  g.mutable_node(2).assigned = 0;
  const double same = g.CutWeight();
  g.mutable_node(2).assigned = 1;
  const double cross = g.CutWeight();
  EXPECT_GT(cross, same);
}

TEST(TGraphTest, SnapshotRoundTripsAssignments) {
  TGraph g = MakeGraph(2);
  g.AddTxn(Txn(1, {}, {10}));
  g.AddTxn(Txn(2, {10}, {}));
  TGraph::Snapshot snap = g.ExportSnapshot();
  ASSERT_EQ(snap.vertex_weight.size(), 4u);  // 2 sinks + 2 txns
  EXPECT_EQ(snap.fixed[0], 0);
  EXPECT_EQ(snap.fixed[1], 1);
  EXPECT_EQ(snap.fixed[2], -1);
  std::vector<int> assign = {0, 1, 1, 0};
  g.ApplySnapshotAssignment(snap, assign);
  EXPECT_EQ(g.node(1).assigned, 1u);
  EXPECT_EQ(g.node(2).assigned, 0u);
}

TEST(TGraphTest, GStoreModeWritesBackInsteadOfPublishing) {
  TGraph::Options o;
  o.num_machines = 2;
  o.read_own_writes = false;
  o.always_write_back = true;
  o.sticky_cache = false;
  TGraph g(o, std::make_shared<HashPartitionMap>(2));
  g.AddTxn(Txn(1, {}, {10}));
  g.AddTxn(Txn(2, {10}, {}));  // will stay unsunk
  g.mutable_node(1).assigned = 0;
  g.mutable_node(2).assigned = 0;
  const SinkPlan plan = g.Sink(1, 1);
  ASSERT_EQ(plan.txns.size(), 1u);
  EXPECT_TRUE(plan.txns[0].cache_publishes.empty());
  ASSERT_EQ(plan.txns[0].write_backs.size(), 1u);
  EXPECT_EQ(plan.txns[0].write_backs[0].key, 10u);
  // The stranded reader becomes a storage reader of the new version.
  g.mutable_node(2).assigned = 0;
  const SinkPlan plan2 = g.Sink(1, 2);
  ASSERT_EQ(plan2.txns.size(), 1u);
  ASSERT_EQ(plan2.txns[0].reads.size(), 1u);
  EXPECT_EQ(plan2.txns[0].reads[0].kind, ReadSourceKind::kStorage);
  EXPECT_EQ(plan2.txns[0].reads[0].src_txn, 1u);
  EXPECT_EQ(plan2.txns[0].reads[0].storage_min_epoch, 1u);
}

TEST(TGraphTest, StorageReadAwaitCountsFlowIntoWriteBacks) {
  // Two storage readers of the initial version, then a writer: the
  // writer's write-back must await both reads (readers_to_await == 2).
  TGraph g = MakeGraph(1);
  g.AddTxn(Txn(1, {10}, {}));
  g.AddTxn(Txn(2, {10}, {}));
  g.AddTxn(Txn(3, {}, {10}));
  for (TxnId t : {1, 2, 3}) g.mutable_node(t).assigned = 0;
  const SinkPlan plan = g.Sink(3, 1);
  const TxnPlan& p3 = plan.txns[2];
  ASSERT_EQ(p3.write_backs.size(), 1u);
  EXPECT_EQ(p3.write_backs[0].readers_to_await, 2u);
}

// ---- The edge ring -------------------------------------------------------

// The scheduler's share of "memory bounded by the stage caps": streamed
// far past its window, the T-graph's edge ring holds exactly the edges the
// unsunk transactions created, whatever the stream's length.
TEST(TGraphTest, EdgeRingSpansOnlyTheUnsunkWindow) {
  constexpr std::size_t kSinkSize = 50;
  constexpr TxnId kTxns = 20'000;
  TGraph g = MakeGraph(3);
  StreamingGreedyPartitioner partitioner;
  Rng rng(0xED6E);
  // Edges each unsunk transaction added, in id order.
  std::deque<std::size_t> created;
  std::size_t window_edges = 0;
  std::size_t peak_ring = 0;
  SinkEpoch epoch = 0;
  for (TxnId id = 1; id <= kTxns; ++id) {
    TxnSpec spec;
    if (id % 97 == 0) {
      spec = MakeDummyTxn();
      spec.id = id;
    } else {
      // Four reads over a small key space (pushes, cache reads and moved
      // write-back duties), two writes: one read-modify-write, one blind.
      std::vector<ObjectKey> reads;
      for (int r = 0; r < 4; ++r) reads.push_back(rng.NextBelow(400));
      spec = Txn(id, reads, {reads[0], rng.NextBelow(400)});
    }
    const std::size_t before = g.edge_ring_size();
    g.AddTxn(spec);
    created.push_back(g.edge_ring_size() - before);
    window_edges += created.back();
    if (g.num_unsunk() >= 2 * kSinkSize) {
      partitioner.Partition(g);
      g.Sink(kSinkSize, ++epoch);
      for (std::size_t k = 0; k < kSinkSize; ++k) {
        window_edges -= created.front();
        created.pop_front();
      }
      std::string why;
      ASSERT_TRUE(g.CheckInvariants(&why)) << "round " << epoch << ": " << why;
      ASSERT_EQ(g.edge_ring_size(), window_edges) << "round " << epoch;
    }
    peak_ring = std::max(peak_ring, g.edge_ring_size());
  }
  EXPECT_GT(epoch, 390u);
  // At most 2 * sink_size unsunk transactions, each adding at most one
  // edge per read plus one write-back duty per read and write.
  EXPECT_LE(peak_ring, 2 * kSinkSize * (2 * 4 + 2));
}

// ---- Plan sizing -----------------------------------------------------------

// Every declared read of a Microbenchmark transaction becomes exactly one
// ReadStep, so Sink sizes each plan's read list once, up front: no list
// grows (and reallocates) while the plan is built.
TEST(TGraphTest, SinkSizesEachPlanStepListOnce) {
  constexpr std::size_t kSinkSize = 50;
  MicroOptions mo;
  mo.num_machines = 3;
  mo.records_per_machine = 20'000;
  mo.hot_set_size = 200;
  mo.num_txns = 3000;
  mo.seed = 23;
  const Workload w = MakeMicroWorkload(mo);
  TGraph::Options o;
  o.num_machines = mo.num_machines;
  TGraph g(o, w.partition_map);
  StreamingGreedyPartitioner partitioner;
  SinkEpoch epoch = 0;
  std::size_t plans = 0;
  std::size_t reads = 0;
  std::size_t write_backs = 0;
  const auto sink = [&](std::size_t count) {
    partitioner.Partition(g);
    const SinkPlan plan = g.Sink(count, ++epoch);
    for (const TxnPlan& p : plan.txns) {
      ++plans;
      reads += p.reads.size();
      write_backs += p.write_backs.size();
      EXPECT_EQ(p.reads.size(), p.num_reads) << "T" << p.txn;
      EXPECT_EQ(p.reads.capacity(), p.reads.size()) << "T" << p.txn;
    }
  };
  TxnId id = 0;
  for (TxnSpec spec : w.requests) {
    spec.id = ++id;
    g.AddTxn(spec);
    if (g.num_unsunk() >= 2 * kSinkSize) sink(kSinkSize);
  }
  while (g.num_unsunk() > 0) sink(kSinkSize);
  EXPECT_EQ(plans, mo.num_txns);
  EXPECT_GE(reads, 9 * plans);  // micro reads 10 records per transaction
  EXPECT_GT(write_backs, 0u);
}

}  // namespace
}  // namespace tpart
