#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/random.h"
#include "net/wire.h"
#include "scheduler/plan_optimizer.h"
#include "scheduler/tpart_scheduler.h"
#include "sequencer/sequencer.h"
#include "storage/data_partition.h"
#include "workload/micro.h"
#include "workload/tpcc.h"

namespace tpart {
namespace {

TxnSpec Txn(std::vector<ObjectKey> reads, std::vector<ObjectKey> writes) {
  TxnSpec spec;
  spec.rw.reads = std::move(reads);
  spec.rw.writes = std::move(writes);
  spec.rw.Normalize();
  return spec;
}

std::vector<TxnSpec> RandomStream(std::size_t n, std::uint64_t seed,
                                  std::uint64_t key_space = 50) {
  Rng rng(seed);
  std::vector<TxnSpec> out;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<ObjectKey> reads, writes;
    for (int r = 0; r < 3; ++r) reads.push_back(rng.NextBelow(key_space));
    writes.push_back(reads[rng.NextBelow(3)]);
    TxnSpec spec = Txn(std::move(reads), std::move(writes));
    spec.id = static_cast<TxnId>(i + 1);
    out.push_back(std::move(spec));
  }
  return out;
}

TPartScheduler::Options SchedOpts(std::size_t sink_size,
                                  std::size_t machines) {
  TPartScheduler::Options o;
  o.sink_size = sink_size;
  o.graph.num_machines = machines;
  return o;
}

TEST(SchedulerTest, SinksWhenWindowReachesTwiceSinkSize) {
  TPartScheduler sched(SchedOpts(5, 2),
                       std::make_shared<HashPartitionMap>(2));
  std::size_t plans = 0;
  for (const TxnSpec& spec : RandomStream(9, 1)) {
    plans += sched.OnTxn(spec).size();
  }
  EXPECT_EQ(plans, 0u);  // 9 < 2 * 5
  TxnSpec tenth = Txn({1}, {});
  tenth.id = 10;
  const auto produced = sched.OnTxn(tenth);
  ASSERT_EQ(produced.size(), 1u);
  EXPECT_EQ(produced[0].txns.size(), 5u);
  EXPECT_EQ(sched.graph().num_unsunk(), 5u);
}

TEST(SchedulerTest, DrainEmptiesTheGraph) {
  TPartScheduler sched(SchedOpts(4, 2),
                       std::make_shared<HashPartitionMap>(2));
  for (const TxnSpec& spec : RandomStream(6, 2)) sched.OnTxn(spec);
  const auto plans = sched.Drain();
  ASSERT_EQ(plans.size(), 2u);  // 4 + 2
  EXPECT_EQ(sched.graph().num_unsunk(), 0u);
  EXPECT_EQ(sched.num_sink_rounds(), 2u);
}

TEST(SchedulerTest, PlansCoverEveryRealTxnExactlyOnce) {
  TPartScheduler sched(SchedOpts(7, 3),
                       std::make_shared<HashPartitionMap>(3));
  std::vector<SinkPlan> plans;
  for (const TxnSpec& spec : RandomStream(100, 3)) {
    for (auto& p : sched.OnTxn(spec)) plans.push_back(std::move(p));
  }
  for (auto& p : sched.Drain()) plans.push_back(std::move(p));
  std::vector<TxnId> seen;
  for (const auto& plan : plans) {
    for (const auto& tp : plan.txns) seen.push_back(tp.txn);
  }
  ASSERT_EQ(seen.size(), 100u);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], i + 1);  // total order preserved
  }
}

TEST(SchedulerTest, IndependentSchedulersEmitIdenticalPlans) {
  // §3.3: schedulers never communicate; identical input => identical
  // plans. This is the determinism property the whole design rests on.
  auto map = std::make_shared<HashPartitionMap>(4);
  TPartScheduler a(SchedOpts(10, 4), map);
  TPartScheduler b(SchedOpts(10, 4), map);
  const auto stream = RandomStream(200, 4);
  std::vector<SinkPlan> pa, pb;
  for (const TxnSpec& spec : stream) {
    for (auto& p : a.OnTxn(spec)) pa.push_back(std::move(p));
    for (auto& p : b.OnTxn(spec)) pb.push_back(std::move(p));
  }
  for (auto& p : a.Drain()) pa.push_back(std::move(p));
  for (auto& p : b.Drain()) pb.push_back(std::move(p));
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(pa[i] == pb[i]) << "plans diverge at round " << i;
  }
}

TEST(SchedulerTest, DummiesCountTowardTriggerButNotPlans) {
  TPartScheduler sched(SchedOpts(3, 2),
                       std::make_shared<HashPartitionMap>(2));
  std::vector<SinkPlan> plans;
  for (TxnId id = 1; id <= 6; ++id) {
    TxnSpec spec = id <= 2 ? Txn({1}, {1}) : MakeDummyTxn();
    spec.id = id;
    for (auto& p : sched.OnTxn(spec)) plans.push_back(std::move(p));
  }
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_EQ(plans[0].txns.size(), 2u);  // dummies discarded (§3.3)
}

TEST(SchedulerTest, TracksMaxTGraphSize) {
  TPartScheduler sched(SchedOpts(5, 2),
                       std::make_shared<HashPartitionMap>(2));
  for (const TxnSpec& spec : RandomStream(40, 5)) sched.OnTxn(spec);
  // Window oscillates in [sink_size, 2*sink_size).
  EXPECT_EQ(sched.max_tgraph_size(), 10u);
}

// ---- Plan optimisation (§4.3) ---------------------------------------------

TEST(PlanOptimizerTest, RelaysPushThroughCoLocatedReader) {
  // Writer W@m1 pushes to R1@m0 and R2@m0; optimisation keeps one push
  // and relays the second locally (the paper's T1 -> T5 via T2 example).
  SinkPlan plan;
  plan.epoch = 1;
  TxnPlan w;
  w.txn = 1;
  w.machine = 1;
  w.pushes = {PushStep{7, 2, 0, 1}, PushStep{7, 3, 0, 1}};
  TxnPlan r1;
  r1.txn = 2;
  r1.machine = 0;
  r1.reads = {ReadStep{.key = 7,
                       .kind = ReadSourceKind::kPush,
                       .src_txn = 1,
                       .src_machine = 1,
                       .provider_txn = 1}};
  TxnPlan r2;
  r2.txn = 3;
  r2.machine = 0;
  r2.reads = {ReadStep{.key = 7,
                       .kind = ReadSourceKind::kPush,
                       .src_txn = 1,
                       .src_machine = 1,
                       .provider_txn = 1}};
  plan.txns = {w, r1, r2};

  EXPECT_EQ(OptimizeSinkPlan(plan), 1u);
  EXPECT_EQ(plan.txns[0].pushes.size(), 1u);  // only the push to T2 left
  EXPECT_EQ(plan.txns[0].pushes[0].dst_txn, 2u);
  const ReadStep& opt = plan.txns[2].reads[0];
  EXPECT_EQ(opt.kind, ReadSourceKind::kLocalVersion);
  EXPECT_EQ(opt.provider_txn, 2u);
  EXPECT_EQ(opt.src_txn, 1u);  // version tag unchanged
  ASSERT_EQ(plan.txns[1].local_versions.size(), 1u);
  EXPECT_EQ(plan.txns[1].local_versions[0],
            (LocalVersionStep{7, 3, 1}));
}

TEST(PlanOptimizerTest, NoRelayAcrossMachines) {
  SinkPlan plan;
  TxnPlan w;
  w.txn = 1;
  w.machine = 1;
  w.pushes = {PushStep{7, 3, 0, 1}};
  TxnPlan r1;  // reader on a *different* machine than the later reader
  r1.txn = 2;
  r1.machine = 2;
  r1.reads = {ReadStep{.key = 7,
                       .kind = ReadSourceKind::kPush,
                       .src_txn = 1,
                       .src_machine = 1,
                       .provider_txn = 1}};
  TxnPlan r2;
  r2.txn = 3;
  r2.machine = 0;
  r2.reads = {ReadStep{.key = 7,
                       .kind = ReadSourceKind::kPush,
                       .src_txn = 1,
                       .src_machine = 1,
                       .provider_txn = 1}};
  plan.txns = {w, r1, r2};
  EXPECT_EQ(OptimizeSinkPlan(plan), 0u);
}

TEST(SchedulerTest, OptimizerReducesRemotePushesEndToEnd) {
  // Hot-key workload on 2 machines: many same-batch readers of one
  // version make relays likely.
  auto map = std::make_shared<HashPartitionMap>(2);
  TPartScheduler::Options with_opt = SchedOpts(20, 2);
  with_opt.optimize_plans = true;
  TPartScheduler sched(with_opt, map);
  Rng rng(6);
  for (TxnId id = 1; id <= 200; ++id) {
    TxnSpec spec =
        id % 10 == 1 ? Txn({}, {1}) : Txn({1, rng.NextBelow(40) + 10}, {});
    spec.id = id;
    sched.OnTxn(spec);
  }
  sched.Drain();
  EXPECT_GT(sched.num_pushes_eliminated(), 0u);
}

// ---- Golden plan digests ----------------------------------------------
//
// Fixed-seed workloads streamed through the scheduler the way the runtime
// does it (sequenced into dummy-padded batches, sink size 50). Every
// round's EncodeSinkPlan bytes fold into one FNV-1a digest, so any change
// to the T-graph, the partitioner, sinking or the plan optimizer that
// moves a single plan byte shows up here. A data-structure change must
// leave every digest as it is; only a deliberate change to the planning
// rules updates them.

struct PlanDigest {
  std::uint64_t fnv = 0xcbf29ce484222325ull;
  std::uint64_t rounds = 0;
  std::uint64_t plans = 0;

  void Add(const SinkPlan& plan) {
    for (const char c : EncodeSinkPlan(plan)) {
      fnv ^= static_cast<unsigned char>(c);
      fnv *= 0x100000001b3ull;
    }
    ++rounds;
    plans += plan.txns.size();
  }
};

PlanDigest DigestOf(const Workload& w,
                    const TPartScheduler::Options& options) {
  TPartScheduler sched(options, w.partition_map);
  Sequencer sequencer{Sequencer::Options{}};
  PlanDigest digest;
  const auto feed = [&](const TxnBatch& batch) {
    for (const TxnSpec& spec : batch.txns) {
      for (const SinkPlan& plan : sched.OnTxn(spec)) digest.Add(plan);
    }
  };
  for (const TxnSpec& request : w.requests) {
    sequencer.Submit(request);
    while (std::optional<TxnBatch> batch = sequencer.NextBatch()) {
      feed(*batch);
    }
  }
  if (sequencer.pending() > 0) {
    if (std::optional<TxnBatch> batch = sequencer.Flush()) feed(*batch);
  }
  for (const SinkPlan& plan : sched.Drain()) digest.Add(plan);
  return digest;
}

TPartScheduler::Options DigestOpts(const Workload& w) {
  TPartScheduler::Options o;
  o.sink_size = 50;
  o.graph.num_machines = w.num_machines;
  return o;
}

MicroOptions DigestMicro(double read_write_rate,
                         std::uint64_t records_per_machine) {
  MicroOptions o;
  o.num_machines = 3;
  o.records_per_machine = records_per_machine;
  o.hot_set_size = 200;
  o.num_txns = 5000;
  o.read_write_rate = read_write_rate;
  o.seed = 23;
  return o;
}

std::string Hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(PlanDigestTest, MicroPlansMatchGolden) {
  const Workload w = MakeMicroWorkload(DigestMicro(0.5, 20'000));
  const PlanDigest d = DigestOf(w, DigestOpts(w));
  EXPECT_EQ(d.plans, 5000u);
  EXPECT_EQ(Hex(d.fnv), "0xbfbcd901a37f7357") << d.rounds << " rounds";
}

TEST(PlanDigestTest, MicroFtShapedPlansMatchGolden) {
  const Workload w = MakeMicroWorkload(DigestMicro(1.0, 200'000));
  const PlanDigest d = DigestOf(w, DigestOpts(w));
  EXPECT_EQ(d.plans, 5000u);
  EXPECT_EQ(Hex(d.fnv), "0x5dc0b94977bf5e64") << d.rounds << " rounds";
}

TpccOptions DigestTpcc() {
  TpccOptions o;
  o.num_machines = 3;
  o.warehouses_per_machine = 2;
  o.num_txns = 4000;
  o.seed = 23;
  return o;
}

TEST(PlanDigestTest, TpccPlansMatchGolden) {
  const Workload w = MakeTpccWorkload(DigestTpcc());
  const PlanDigest d = DigestOf(w, DigestOpts(w));
  EXPECT_EQ(d.plans, 4000u);
  EXPECT_EQ(Hex(d.fnv), "0xd99d53a28d04dd9c") << d.rounds << " rounds";
}

// The §5.3 read-own-writes union (TPC-C has blind writes; the micro
// writes are a subset of its reads) and G-Store's always-write-back path
// are the T-graph branches the runtime workloads above do not take.
TEST(PlanDigestTest, ReadOwnWritesAndAlwaysWriteBackPlansMatchGolden) {
  const Workload tpcc = MakeTpccWorkload(DigestTpcc());
  TPartScheduler::Options own = DigestOpts(tpcc);
  own.graph.read_own_writes = true;
  EXPECT_EQ(Hex(DigestOf(tpcc, own).fnv), "0x62d8cb8f30ec0409");
  const Workload micro = MakeMicroWorkload(DigestMicro(0.5, 20'000));
  TPartScheduler::Options gstore = DigestOpts(micro);
  gstore.graph.always_write_back = true;
  EXPECT_EQ(Hex(DigestOf(micro, gstore).fnv), "0x4eda229d0b068b77");
}

}  // namespace
}  // namespace tpart
