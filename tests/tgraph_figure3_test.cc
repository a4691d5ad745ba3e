// Reproduces the paper's worked example (Figure 3, §3.1-§3.4, §5.2):
// eight transactions over objects A..G on two machines, sunk with batch
// size 6, then two more arrivals and a second sinking round. Every plan
// line asserted here corresponds to a line of the push plans printed in
// the paper.

#include <gtest/gtest.h>

#include "storage/data_partition.h"
#include "tgraph/tgraph.h"

namespace tpart {
namespace {

// Objects.
constexpr ObjectKey A = 0, B = 1, C = 2, D = 3, E = 4, F = 5, G = 6;

// Machines: S1 = machine 0 holds {C, D}; S2 = machine 1 holds the rest.
std::shared_ptr<const DataPartitionMap> MakeFig3Map() {
  auto fallback = std::make_shared<HashPartitionMap>(2);
  auto map = std::make_shared<LookupPartitionMap>(2, fallback);
  map->Assign(C, 0);
  map->Assign(D, 0);
  for (const ObjectKey k : {A, B, E, F, G}) map->Assign(k, 1);
  return map;
}

TxnSpec Txn(TxnId id, std::vector<ObjectKey> reads,
            std::vector<ObjectKey> writes) {
  TxnSpec spec;
  spec.id = id;
  spec.rw.reads = std::move(reads);
  spec.rw.writes = std::move(writes);
  spec.rw.Normalize();
  return spec;
}

class Figure3Test : public ::testing::Test {
 protected:
  Figure3Test() : graph_(MakeOptions(), MakeFig3Map()) {}

  static TGraph::Options MakeOptions() {
    TGraph::Options o;
    o.num_machines = 2;
    // The example has blind writes (T1: W{A,B}) and no sticky cache.
    o.read_own_writes = false;
    o.sticky_cache = false;
    return o;
  }

  void AddPaperTxns() {
    graph_.AddTxn(Txn(1, {}, {A, B}));
    graph_.AddTxn(Txn(2, {B, C}, {C}));
    graph_.AddTxn(Txn(3, {C}, {G}));
    graph_.AddTxn(Txn(4, {A}, {A, E}));
    graph_.AddTxn(Txn(5, {B, C}, {B, C}));
    graph_.AddTxn(Txn(6, {C}, {D}));
    graph_.AddTxn(Txn(7, {}, {G}));
    graph_.AddTxn(Txn(8, {A, B}, {F}));
  }

  void AssignFig3() {
    // Partitioning as drawn: {T2, T3, T5, T6} with S1; {T1, T4} with S2.
    for (const TxnId t : {2, 3, 5, 6}) graph_.mutable_node(t).assigned = 0;
    for (const TxnId t : {1, 4, 7, 8}) graph_.mutable_node(t).assigned = 1;
  }

  static const TxnPlan& PlanOf(const SinkPlan& plan, TxnId id) {
    for (const auto& p : plan.txns) {
      if (p.txn == id) return p;
    }
    ADD_FAILURE() << "no plan for T" << id;
    static TxnPlan empty;
    return empty;
  }

  TGraph graph_;
};

TEST_F(Figure3Test, FirstSinkMatchesPaperPlans) {
  AddPaperTxns();
  AssignFig3();
  const SinkPlan plan = graph_.Sink(6, 1);
  EXPECT_EQ(plan.epoch, 1u);
  ASSERT_EQ(plan.txns.size(), 6u);

  // "T1: Write cache: <A, T1, T4>; Push to S1: <B, T1, T2>, <B, T1, T5>."
  {
    const TxnPlan& p = PlanOf(plan, 1);
    EXPECT_EQ(p.machine, 1u);
    EXPECT_TRUE(p.reads.empty());
    ASSERT_EQ(p.pushes.size(), 2u);
    EXPECT_EQ(p.pushes[0], (PushStep{B, 2, 0, 1}));
    EXPECT_EQ(p.pushes[1], (PushStep{B, 5, 0, 1}));
    ASSERT_EQ(p.local_versions.size(), 1u);
    EXPECT_EQ(p.local_versions[0], (LocalVersionStep{A, 4, 1}));
    EXPECT_TRUE(p.cache_publishes.empty());
    EXPECT_TRUE(p.write_backs.empty());  // A, B superseded by T4, T5
  }

  // "T2: Read B from cache; C from storage. Write C to cache."
  {
    const TxnPlan& p = PlanOf(plan, 2);
    EXPECT_EQ(p.machine, 0u);
    ASSERT_EQ(p.reads.size(), 2u);
    EXPECT_EQ(p.reads[0].key, B);
    EXPECT_EQ(p.reads[0].kind, ReadSourceKind::kPush);
    EXPECT_EQ(p.reads[0].src_txn, 1u);
    EXPECT_EQ(p.reads[0].src_machine, 1u);
    EXPECT_EQ(p.reads[1].key, C);
    EXPECT_EQ(p.reads[1].kind, ReadSourceKind::kStorage);
    EXPECT_EQ(p.reads[1].src_machine, 0u);  // local storage
    EXPECT_EQ(p.reads[1].src_txn, kInvalidTxnId);  // initial version
    // T2's version of C hands off locally to T3 and T5.
    ASSERT_EQ(p.local_versions.size(), 2u);
    EXPECT_EQ(p.local_versions[0], (LocalVersionStep{C, 3, 2}));
    EXPECT_EQ(p.local_versions[1], (LocalVersionStep{C, 5, 2}));
    EXPECT_TRUE(p.write_backs.empty());
  }

  // "T3: Read C from cache." — and NO storage write for G: the
  // writing-back-the-latest principle (§4.2) leaves G's write-back to the
  // later writer T7.
  {
    const TxnPlan& p = PlanOf(plan, 3);
    ASSERT_EQ(p.reads.size(), 1u);
    EXPECT_EQ(p.reads[0].kind, ReadSourceKind::kLocalVersion);
    EXPECT_EQ(p.reads[0].src_txn, 2u);
    EXPECT_TRUE(p.write_backs.empty());
    EXPECT_TRUE(p.cache_publishes.empty());
  }

  // "T4: Read cache: <A, T1, T4>; Write cache: <A, Sink1>; storage: E."
  {
    const TxnPlan& p = PlanOf(plan, 4);
    EXPECT_EQ(p.machine, 1u);
    ASSERT_EQ(p.reads.size(), 1u);
    EXPECT_EQ(p.reads[0].kind, ReadSourceKind::kLocalVersion);
    EXPECT_EQ(p.reads[0].src_txn, 1u);
    ASSERT_EQ(p.cache_publishes.size(), 1u);
    EXPECT_EQ(p.cache_publishes[0], (CachePublishStep{A, 1}));
    ASSERT_EQ(p.write_backs.size(), 1u);
    EXPECT_EQ(p.write_backs[0].key, E);
    EXPECT_EQ(p.write_backs[0].home, 1u);
    EXPECT_EQ(p.write_backs[0].version_txn, 4u);
  }

  // "T5: Read B, C from cache. Write B, C to cache." — B published as
  // <B, Sink1> for the unsunk T8; C handed to T6 locally.
  {
    const TxnPlan& p = PlanOf(plan, 5);
    ASSERT_EQ(p.reads.size(), 2u);
    EXPECT_EQ(p.reads[0].key, B);
    EXPECT_EQ(p.reads[0].kind, ReadSourceKind::kPush);
    EXPECT_EQ(p.reads[1].key, C);
    EXPECT_EQ(p.reads[1].kind, ReadSourceKind::kLocalVersion);
    EXPECT_EQ(p.reads[1].src_txn, 2u);
    ASSERT_EQ(p.local_versions.size(), 1u);
    EXPECT_EQ(p.local_versions[0], (LocalVersionStep{C, 6, 5}));
    ASSERT_EQ(p.cache_publishes.size(), 1u);
    EXPECT_EQ(p.cache_publishes[0], (CachePublishStep{B, 1}));
    EXPECT_TRUE(p.write_backs.empty());
  }

  // "T6: Read C from cache. Write C, D to storage." — T6 carries the
  // write-back of C although it never wrote it (§3.1: "even if T6 does
  // not write C, it needs to write back C").
  {
    const TxnPlan& p = PlanOf(plan, 6);
    ASSERT_EQ(p.reads.size(), 1u);
    EXPECT_EQ(p.reads[0].kind, ReadSourceKind::kLocalVersion);
    EXPECT_EQ(p.reads[0].src_txn, 5u);
    ASSERT_EQ(p.write_backs.size(), 2u);
    EXPECT_EQ(p.write_backs[0].key, C);
    EXPECT_EQ(p.write_backs[0].version_txn, 5u);
    EXPECT_EQ(p.write_backs[0].home, 0u);
    EXPECT_EQ(p.write_backs[1].key, D);
    EXPECT_EQ(p.write_backs[1].version_txn, 6u);
  }

  EXPECT_EQ(graph_.num_unsunk(), 2u);  // T7, T8 remain (Fig. 3(b))
}

TEST_F(Figure3Test, SecondRoundMatchesFigure3c) {
  AddPaperTxns();
  AssignFig3();
  graph_.Sink(6, 1);

  // Fig. 3(c): "suppose two new transactions arrive: T9: R{B,C,D}, W{B};
  // T10: R{E,F,G}."
  graph_.AddTxn(Txn(9, {B, C, D}, {B}));
  graph_.AddTxn(Txn(10, {E, F, G}, {}));

  graph_.mutable_node(7).assigned = 1;
  graph_.mutable_node(8).assigned = 1;
  graph_.mutable_node(9).assigned = 0;
  graph_.mutable_node(10).assigned = 1;
  const SinkPlan plan = graph_.Sink(4, 2);
  ASSERT_EQ(plan.txns.size(), 4u);

  // "T8: Read cache: <A, Sink1>, <B, Sink1>" — A locally (published by
  // T4 on machine 1), B remotely (published by T5 on machine 0).
  {
    const TxnPlan& p = PlanOf(plan, 8);
    ASSERT_EQ(p.reads.size(), 2u);
    EXPECT_EQ(p.reads[0].key, A);
    EXPECT_EQ(p.reads[0].kind, ReadSourceKind::kCacheLocal);
    EXPECT_EQ(p.reads[0].src_txn, 4u);
    EXPECT_EQ(p.reads[0].cache_epoch, 1u);
    EXPECT_TRUE(p.reads[0].invalidate_entry);  // sole reader of <A,Sink1>
    EXPECT_EQ(p.reads[0].entry_total_reads, 1u);
    EXPECT_EQ(p.reads[1].key, B);
    EXPECT_EQ(p.reads[1].kind, ReadSourceKind::kCacheRemote);
    EXPECT_EQ(p.reads[1].src_txn, 5u);
    EXPECT_EQ(p.reads[1].src_machine, 0u);
    EXPECT_FALSE(p.reads[1].invalidate_entry);  // T9 still reads it
    // The dirty A version T8 consumed gets written back by T8 (the text's
    // "similarly, [T8] needs to write back A and B" — B's duty lands on
    // T9, which overwrote it).
    ASSERT_EQ(p.write_backs.size(), 1u);
    EXPECT_EQ(p.write_backs[0].key, A);
    EXPECT_EQ(p.write_backs[0].version_txn, 4u);
    EXPECT_EQ(p.write_backs[0].home, 1u);
  }

  // "T9 needs to write back B to the storage holding S2, as B is read
  // from the cache."
  {
    const TxnPlan& p = PlanOf(plan, 9);
    EXPECT_EQ(p.machine, 0u);
    ASSERT_EQ(p.reads.size(), 3u);
    EXPECT_EQ(p.reads[0].key, B);
    EXPECT_EQ(p.reads[0].kind, ReadSourceKind::kCacheLocal);
    EXPECT_EQ(p.reads[0].src_txn, 5u);
    EXPECT_TRUE(p.reads[0].invalidate_entry);  // last reader, superseded
    EXPECT_EQ(p.reads[0].entry_total_reads, 2u);  // T8 + T9
    EXPECT_EQ(p.reads[1].key, C);
    EXPECT_EQ(p.reads[1].kind, ReadSourceKind::kStorage);
    EXPECT_EQ(p.reads[1].src_txn, 5u);           // T5's written-back version
    EXPECT_EQ(p.reads[1].storage_min_epoch, 1u);  // after round-1 write-back
    EXPECT_EQ(p.reads[2].key, D);
    EXPECT_EQ(p.reads[2].kind, ReadSourceKind::kStorage);
    EXPECT_EQ(p.reads[2].src_txn, 6u);
    ASSERT_EQ(p.write_backs.size(), 1u);
    EXPECT_EQ(p.write_backs[0].key, B);
    EXPECT_EQ(p.write_backs[0].home, 1u);  // "the storage holding S2"
    EXPECT_EQ(p.write_backs[0].version_txn, 9u);
  }

  // T7 hands its G to T10 locally; T10 reads E from storage and carries
  // the write-backs of the dirty F (T8's) and G (T7's) versions.
  {
    const TxnPlan& p7 = PlanOf(plan, 7);
    ASSERT_EQ(p7.local_versions.size(), 1u);
    EXPECT_EQ(p7.local_versions[0], (LocalVersionStep{G, 10, 7}));
    EXPECT_TRUE(p7.write_backs.empty());

    const TxnPlan& p10 = PlanOf(plan, 10);
    ASSERT_EQ(p10.reads.size(), 3u);
    EXPECT_EQ(p10.reads[0].key, E);
    EXPECT_EQ(p10.reads[0].kind, ReadSourceKind::kStorage);
    EXPECT_EQ(p10.reads[0].src_txn, 4u);
    EXPECT_EQ(p10.reads[1].key, F);
    EXPECT_EQ(p10.reads[1].kind, ReadSourceKind::kLocalVersion);
    EXPECT_EQ(p10.reads[1].src_txn, 8u);
    EXPECT_EQ(p10.reads[2].key, G);
    EXPECT_EQ(p10.reads[2].kind, ReadSourceKind::kLocalVersion);
    EXPECT_EQ(p10.reads[2].src_txn, 7u);
    ASSERT_EQ(p10.write_backs.size(), 2u);
    EXPECT_EQ(p10.write_backs[0].key, F);
    EXPECT_EQ(p10.write_backs[0].version_txn, 8u);
    EXPECT_EQ(p10.write_backs[1].key, G);
    EXPECT_EQ(p10.write_backs[1].version_txn, 7u);
  }

  EXPECT_EQ(graph_.num_unsunk(), 0u);
}

TEST_F(Figure3Test, DistributedCountAndSinkWeights) {
  AddPaperTxns();
  AssignFig3();
  const SinkPlan plan = graph_.Sink(6, 1);
  // T2 and T5 wait on pushes from machine 1 -> distributed.
  EXPECT_EQ(plan.NumDistributed(), 2u);
  // Sink weights accumulated: 4 txns on machine 0, 2 on machine 1 (§3.1).
  EXPECT_DOUBLE_EQ(graph_.sink_weight(0), 4.0);
  EXPECT_DOUBLE_EQ(graph_.sink_weight(1), 2.0);
}

}  // namespace
}  // namespace tpart
