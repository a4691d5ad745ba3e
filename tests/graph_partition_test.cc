#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "partition/multilevel.h"
#include "partition/partition_metrics.h"
#include "partition/pin_reduction.h"
#include "partition/streaming_greedy.h"
#include "storage/data_partition.h"
#include "tgraph/tgraph.h"

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

// Builds a T-graph with two obvious clusters: chains over key 1 (homed
// wherever hashing puts it) and key 2.
TGraph MakeClusteredGraph(std::size_t machines, int chain_len) {
  TGraph::Options o;
  o.num_machines = machines;
  TGraph g(o, std::make_shared<HashPartitionMap>(machines));
  TxnId id = 1;
  for (int i = 0; i < chain_len; ++i) {
    g.AddTxn(Txn(id++, {1}, {1}));
    g.AddTxn(Txn(id++, {2}, {2}));
  }
  return g;
}

// ---- Streaming greedy (Algorithm 1) ------------------------------------

TEST(StreamingGreedyTest, AssignsEveryNode) {
  TGraph g = MakeClusteredGraph(2, 10);
  StreamingGreedyPartitioner part;
  part.Partition(g);
  g.ForEachUnsunk([](const TxnNode& n) {
    EXPECT_NE(n.assigned, kInvalidMachine);
  });
}

TEST(StreamingGreedyTest, CoLocatesDependencyChains) {
  TGraph g = MakeClusteredGraph(4, 20);
  StreamingGreedyPartitioner part(
      {StreamingGreedyPartitioner::Mode::kWeighted, /*beta=*/0.01});
  part.Partition(g);
  // All transactions touching key 1 should land on one machine, all
  // touching key 2 on one machine (possibly the same is fine for cut=0,
  // but balance pressure should separate them).
  MachineId m1 = kInvalidMachine, m2 = kInvalidMachine;
  bool split1 = false, split2 = false;
  g.ForEachUnsunk([&](const TxnNode& n) {
    // MakeClusteredGraph gives odd ids the key-1 chain, even ids key 2.
    const bool key1 = n.id % 2 == 1;
    MachineId& m = key1 ? m1 : m2;
    bool& split = key1 ? split1 : split2;
    if (m == kInvalidMachine) {
      m = n.assigned;
    } else if (m != n.assigned) {
      split = true;
    }
  });
  EXPECT_FALSE(split1);
  EXPECT_FALSE(split2);
}

TEST(StreamingGreedyTest, LargeBetaBalancesLoad) {
  // With beta large, load balance dominates (§6.3.6: "the throughput is
  // high only if beta is sufficiently large").
  TGraph g = MakeClusteredGraph(2, 50);
  StreamingGreedyPartitioner part(
      {StreamingGreedyPartitioner::Mode::kWeighted, /*beta=*/100.0});
  part.Partition(g);
  const PartitionQuality q = MeasurePartition(g);
  EXPECT_LE(q.skew, 1.0);
}

TEST(StreamingGreedyTest, DeterministicAcrossInstances) {
  TGraph g1 = MakeClusteredGraph(4, 30);
  TGraph g2 = MakeClusteredGraph(4, 30);
  StreamingGreedyPartitioner p1, p2;
  p1.Partition(g1);
  p2.Partition(g2);
  g1.ForEachUnsunk([&](const TxnNode& n) {
    EXPECT_EQ(n.assigned, g2.node(n.id).assigned);
  });
}

TEST(StreamingGreedyTest, LexicographicTieBreaksTowardLighter) {
  // Isolated nodes have zero affinity everywhere; Algorithm 1 then sends
  // each to the lightest partition, round-robin-ish.
  TGraph::Options o;
  o.num_machines = 3;
  TGraph g(o, std::make_shared<HashPartitionMap>(3));
  for (TxnId id = 1; id <= 9; ++id) {
    TxnSpec spec;
    spec.id = id;  // no reads/writes: isolated
    g.AddTxn(spec);
  }
  StreamingGreedyPartitioner part(
      {StreamingGreedyPartitioner::Mode::kLexicographic, 0.0});
  part.Partition(g);
  const auto loads = g.AssignedLoad();
  EXPECT_DOUBLE_EQ(loads[0], 3.0);
  EXPECT_DOUBLE_EQ(loads[1], 3.0);
  EXPECT_DOUBLE_EQ(loads[2], 3.0);
}

TEST(StreamingGreedyTest, RespectsSeededSinkWeights) {
  // A pre-loaded machine should receive fewer new transactions.
  TGraph::Options o;
  o.num_machines = 2;
  TGraph g(o, std::make_shared<HashPartitionMap>(2));
  g.set_sink_weight(0, 50.0);
  for (TxnId id = 1; id <= 20; ++id) {
    TxnSpec spec;
    spec.id = id;
    g.AddTxn(spec);
  }
  StreamingGreedyPartitioner part(
      {StreamingGreedyPartitioner::Mode::kWeighted, /*beta=*/1.0});
  part.Partition(g);
  const auto loads = g.AssignedLoad();
  EXPECT_GT(loads[1], loads[0]);
}

// ---- Multilevel (METIS-like) ---------------------------------------------

WeightedGraph RandomGraph(std::size_t n, std::size_t edges, int k,
                          std::uint64_t seed) {
  Rng rng(seed);
  WeightedGraph g;
  g.vertex_weight.assign(n, 1.0);
  g.fixed.assign(n, -1);
  g.adj.resize(n);
  for (int m = 0; m < k; ++m) g.fixed[static_cast<std::size_t>(m)] = m;
  for (std::size_t e = 0; e < edges; ++e) {
    const auto a = static_cast<int>(rng.NextBelow(n));
    const auto b = static_cast<int>(rng.NextBelow(n));
    if (a == b) continue;
    const double w = 1.0 + static_cast<double>(rng.NextBelow(4));
    g.adj[static_cast<std::size_t>(a)].emplace_back(b, w);
    g.adj[static_cast<std::size_t>(b)].emplace_back(a, w);
  }
  return g;
}

TEST(MultilevelTest, FixedVerticesKeepLabels) {
  const WeightedGraph g = RandomGraph(500, 2000, 4, 7);
  const auto part = MultilevelPartition(g, 4);
  ASSERT_EQ(part.size(), g.size());
  for (int m = 0; m < 4; ++m) {
    EXPECT_EQ(part[static_cast<std::size_t>(m)], m);
  }
  for (const int p : part) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 4);
  }
}

TEST(MultilevelTest, RespectsBalanceBound) {
  const WeightedGraph g = RandomGraph(1000, 4000, 4, 11);
  MultilevelOptions opts;
  opts.imbalance = 0.15;
  const auto part = MultilevelPartition(g, 4, opts);
  const auto loads = GraphLoads(g, 4, part);
  const double avg = 1000.0 / 4.0;
  for (const double l : loads) {
    EXPECT_LE(l, avg * (1.0 + opts.imbalance) + 1.0);
  }
}

TEST(MultilevelTest, BeatsRandomAssignmentOnCut) {
  const WeightedGraph g = RandomGraph(800, 3000, 4, 13);
  const auto part = MultilevelPartition(g, 4);
  Rng rng(99);
  std::vector<int> random_part(g.size());
  for (auto& p : random_part) p = static_cast<int>(rng.NextBelow(4));
  EXPECT_LT(GraphCutWeight(g, part), GraphCutWeight(g, random_part));
}

TEST(MultilevelTest, SeparableGraphGetsNearZeroCut) {
  // Two cliques, each attached to its own pinned sink.
  WeightedGraph g;
  const std::size_t half = 20;
  g.vertex_weight.assign(2 + 2 * half, 1.0);
  g.fixed.assign(2 + 2 * half, -1);
  g.fixed[0] = 0;
  g.fixed[1] = 1;
  g.adj.resize(2 + 2 * half);
  auto connect = [&](std::size_t a, std::size_t b) {
    g.adj[a].emplace_back(static_cast<int>(b), 1.0);
    g.adj[b].emplace_back(static_cast<int>(a), 1.0);
  };
  for (std::size_t i = 0; i < half; ++i) {
    connect(0, 2 + i);
    connect(1, 2 + half + i);
    for (std::size_t j = i + 1; j < half; ++j) {
      connect(2 + i, 2 + j);
      connect(2 + half + i, 2 + half + j);
    }
  }
  const auto part = MultilevelPartition(g, 2);
  EXPECT_DOUBLE_EQ(GraphCutWeight(g, part), 0.0);
}

TEST(MultilevelTest, PartitionerAdapterAssignsTGraph) {
  TGraph g = MakeClusteredGraph(2, 15);
  MultilevelPartitioner part;
  part.Partition(g);
  g.ForEachUnsunk([](const TxnNode& n) {
    EXPECT_NE(n.assigned, kInvalidMachine);
  });
}

// ---- Pin reduction (§5.1's discarded approach) -----------------------------

TEST(PinReductionTest, RecoversConstrainedAssignment) {
  WeightedGraph g = RandomGraph(200, 600, 3, 17);
  const std::size_t pins = 3;
  // Large pin weights + tie edges + the balance bound force sinks apart:
  // two pins together would blow the per-partition weight budget.
  const WeightedGraph reduced = ApplyPinReduction(g, pins, 1000.0, 1e6);
  EXPECT_EQ(reduced.size(), g.size() + pins);
  const auto reduced_part =
      MultilevelPartition(reduced, 3, MultilevelOptions{.imbalance = 0.3});
  std::vector<int> recovered;
  ASSERT_TRUE(
      RecoverPinAssignment(reduced, pins, reduced_part, recovered));
  ASSERT_EQ(recovered.size(), g.size());
  // After relabeling, sink i sits in partition i.
  for (std::size_t i = 0; i < pins; ++i) {
    EXPECT_EQ(recovered[i], static_cast<int>(i));
  }
}

TEST(PinReductionTest, DetectsViolatedConstraint) {
  WeightedGraph g;
  g.vertex_weight.assign(4, 1.0);
  g.fixed.assign(4, -1);
  g.adj.resize(4);
  const WeightedGraph reduced = ApplyPinReduction(g, 2, 10.0, 10.0);
  // Both sinks in partition 0: violates disconnectivity.
  std::vector<int> bad(reduced.size(), 0);
  std::vector<int> out;
  EXPECT_FALSE(RecoverPinAssignment(reduced, 2, bad, out));
}

// ---- Metrics ---------------------------------------------------------------

TEST(PartitionMetricsTest, SkewIsMaxMinusMin) {
  TGraph g = MakeClusteredGraph(2, 5);
  g.ForEachUnsunk([&](const TxnNode& n) {
    g.mutable_node(n.id).assigned = 0;
  });
  const PartitionQuality q = MeasurePartition(g);
  EXPECT_DOUBLE_EQ(q.skew, 10.0);  // all 10 nodes on machine 0
  EXPECT_FALSE(q.ToString().empty());
}

}  // namespace
}  // namespace tpart
