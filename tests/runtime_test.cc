// Integration tests of the threaded runtime: the Calvin-mode and
// T-Part-mode clusters must produce exactly the serial reference's
// per-transaction outputs and final database state — determinism +
// serializability across engines.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exec/serial_executor.h"
#include "net/wire.h"
#include "runtime/channel.h"
#include "runtime/cluster.h"
#include "runtime/machine.h"
#include "scheduler/push_plan.h"
#include "storage/kv_store.h"
#include "test_time.h"
#include "txn/procedure.h"
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

// ---------------------------------------------------------------------
// Intake-time read requests: a machine requests a round's remote reads
// when the round arrives, so a plan blocked on a push does not hold back
// the requests of the plans queued behind it.
// ---------------------------------------------------------------------

ReadStep MakeRead(ObjectKey key, ReadSourceKind kind, TxnId src_txn,
                  MachineId src_machine) {
  ReadStep r;
  r.key = key;
  r.kind = kind;
  r.src_txn = src_txn;
  r.src_machine = src_machine;
  r.provider_txn = src_txn;
  return r;
}

// Procedure 200 emits field 0 of every key named in the parameters, in
// order.
ProcedureRegistry EmitReadsRegistry() {
  ProcedureRegistry registry;
  registry.Register(200, "emit_reads", [](TxnContext& ctx) {
    for (const std::int64_t key : ctx.params()) {
      Result<Record> r = ctx.Get(static_cast<ObjectKey>(key));
      if (!r.ok()) return r.status();
      ctx.EmitOutput(r->field(0));
    }
    return Status::Ok();
  });
  return registry;
}

TEST(RuntimeTest, RoundRemoteReadsGoOutBeforeEarlierPlansFinish) {
  KvStore store;
  const ProcedureRegistry registry = EmitReadsRegistry();

  std::mutex sent_mu;
  std::vector<std::pair<MachineId, Message>> sent;
  Machine m(0, 3, &store, &registry, [&](MachineId to, Message msg) {
    std::lock_guard<std::mutex> lock(sent_mu);
    sent.emplace_back(to, std::move(msg));
  });
  m.set_send_batch([&](std::vector<std::pair<MachineId, Message>>& msgs) {
    std::lock_guard<std::mutex> lock(sent_mu);
    for (auto& [to, msg] : msgs) sent.emplace_back(to, std::move(msg));
  });
  m.StartTPart();

  // Round 1: T11 awaits forward-push <10, v9> from machine 1, which
  // nobody sends yet, so the executor blocks on it. T12, behind it, reads
  // key 20 from machine 1's storage and key 30 from machine 2's cache.
  TxnPlan t11;
  t11.txn = 11;
  t11.machine = 0;
  t11.reads.push_back(MakeRead(10, ReadSourceKind::kPush, 9, 1));
  TxnPlan t12;
  t12.txn = 12;
  t12.machine = 0;
  t12.reads.push_back(MakeRead(20, ReadSourceKind::kStorage, 0, 1));
  ReadStep pull = MakeRead(30, ReadSourceKind::kCacheRemote, 5, 2);
  pull.cache_epoch = 1;
  pull.invalidate_entry = true;
  pull.entry_total_reads = 1;
  t12.reads.push_back(pull);
  SinkPlan plan;
  plan.epoch = 1;
  plan.txns = {t11, t12};
  TxnSpec s11;
  s11.id = 11;
  s11.proc = 200;
  s11.params = {10};
  s11.rw.reads = {10};
  TxnSpec s12;
  s12.id = 12;
  s12.proc = 200;
  s12.params = {20, 30};
  s12.rw.reads = {20, 30};
  Message round;
  round.type = Message::Type::kSinkPlan;
  round.epoch = 1;
  round.plan_bytes = EncodeSinkPlan(plan);
  round.specs = {s11, s12};
  m.Deliver(std::move(round));

  // Both of T12's requests leave with the round, while T11 still holds
  // the executor.
  const std::uint64_t storage_req = (std::uint64_t{12} << 10) | 0;
  const std::uint64_t pull_req = (std::uint64_t{12} << 10) | 1;
  const auto requests_out = [&] {
    std::lock_guard<std::mutex> lock(sent_mu);
    return sent.size() >= 2;
  };
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(test::ScaledUs(2'000'000));
  while (!requests_out() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(requests_out()) << m.StallDiagnostic();
  EXPECT_EQ(m.executed_plans(), 0u);

  // Release T11 and answer T12; both plans run.
  Message push;
  push.type = Message::Type::kPushVersion;
  push.key = 10;
  push.version = 9;
  push.dst_txn = 11;
  push.value = Record{100};
  m.Deliver(std::move(push));
  Message storage_resp;
  storage_resp.type = Message::Type::kStorageReadResp;
  storage_resp.req_id = storage_req;
  storage_resp.value = Record{200};
  m.Deliver(std::move(storage_resp));
  Message pull_resp;
  pull_resp.type = Message::Type::kCacheReadResp;
  pull_resp.req_id = pull_req;
  pull_resp.value = Record{300};
  m.Deliver(std::move(pull_resp));
  Message end;
  end.type = Message::Type::kPlanStreamEnd;
  end.epoch = 1;
  m.Deliver(std::move(end));
  m.JoinExecutor();
  m.Stop();

  EXPECT_EQ(m.executed_plans(), 2u);
  const std::vector<TxnResult> results = m.TakeResults();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].id, 11u);
  EXPECT_EQ(results[0].output, (std::vector<std::int64_t>{100}));
  EXPECT_EQ(results[1].id, 12u);
  EXPECT_EQ(results[1].output, (std::vector<std::int64_t>{200, 300}));
  // The requests name the read's source, version and reply slot.
  ASSERT_EQ(sent.size(), 2u);
  for (const auto& [to, req] : sent) {
    EXPECT_EQ(req.reply_to, 0u);
    if (req.type == Message::Type::kStorageReadReq) {
      EXPECT_EQ(to, 1u);
      EXPECT_EQ(req.key, 20u);
      EXPECT_EQ(req.version, 0u);
      EXPECT_EQ(req.req_id, storage_req);
    } else {
      EXPECT_EQ(req.type, Message::Type::kCacheReadReq);
      EXPECT_EQ(to, 2u);
      EXPECT_EQ(req.key, 30u);
      EXPECT_EQ(req.version, 5u);
      EXPECT_EQ(req.req_id, pull_req);
      EXPECT_TRUE(req.invalidate);
      EXPECT_EQ(req.total_reads, 1u);
    }
  }
}

// ---------------------------------------------------------------------
// One thread per machine: the loop that dispatches messages also runs
// the plans, parking a plan on a missing read instead of blocking.
// ---------------------------------------------------------------------

std::size_t ProcessThreads() {
  std::size_t n = 0;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)task;
    ++n;
  }
  return n;
}

TEST(RuntimeTest, StartTPartAddsExactlyOneThread) {
  // Any runtime helper thread (a sanitizer's, say) that the first thread
  // start spawns lazily is up before the count.
  std::thread([] {}).join();
  KvStore store;
  ProcedureRegistry registry;
  Machine m(0, 1, &store, &registry, [](MachineId, Message) {});
  const std::size_t before = ProcessThreads();
  m.StartTPart();
  const std::size_t after = ProcessThreads();
  Message end;
  end.type = Message::Type::kPlanStreamEnd;
  end.epoch = 0;  // no rounds
  m.Deliver(std::move(end));
  m.JoinExecutor();
  m.Stop();
  EXPECT_EQ(after, before + 1);
}

TEST(RuntimeTest, ParkedPlanLeavesTheMachineServing) {
  KvStore store;
  store.Upsert(40, Record{400});
  const ProcedureRegistry registry = EmitReadsRegistry();
  std::mutex sent_mu;
  std::vector<std::pair<MachineId, Message>> sent;
  Machine m(0, 3, &store, &registry, [&](MachineId to, Message msg) {
    std::lock_guard<std::mutex> lock(sent_mu);
    sent.emplace_back(to, std::move(msg));
  });
  m.set_send_batch([&](std::vector<std::pair<MachineId, Message>>& msgs) {
    std::lock_guard<std::mutex> lock(sent_mu);
    for (auto& [to, msg] : msgs) sent.emplace_back(to, std::move(msg));
  });
  // An epoch entry a peer will pull: <50, v3>, read once.
  m.cache().PublishEpochEntry(50, 3, 1, Record{500});
  m.StartTPart();

  // Round 1: T11 awaits forward-push <10, v9> from machine 1, which
  // nobody sends yet, so it parks at the head of the queue.
  TxnPlan t11;
  t11.txn = 11;
  t11.machine = 0;
  t11.reads.push_back(MakeRead(10, ReadSourceKind::kPush, 9, 1));
  SinkPlan plan;
  plan.epoch = 1;
  plan.txns = {t11};
  TxnSpec s11;
  s11.id = 11;
  s11.proc = 200;
  s11.params = {10};
  s11.rw.reads = {10};
  Message round;
  round.type = Message::Type::kSinkPlan;
  round.epoch = 1;
  round.plan_bytes = EncodeSinkPlan(plan);
  round.specs = {s11};
  m.Deliver(std::move(round));

  // While T11 is parked the machine answers a peer's storage read and
  // cache pull, and records a heartbeat.
  Message storage_req;
  storage_req.type = Message::Type::kStorageReadReq;
  storage_req.key = 40;
  storage_req.version = kInvalidTxnId;
  storage_req.reply_to = 1;
  storage_req.req_id = 77;
  m.Deliver(std::move(storage_req));
  Message pull;
  pull.type = Message::Type::kCacheReadReq;
  pull.key = 50;
  pull.version = 3;
  pull.invalidate = true;
  pull.total_reads = 1;
  pull.reply_to = 2;
  pull.req_id = 78;
  m.Deliver(std::move(pull));
  Message hb;
  hb.type = Message::Type::kHeartbeat;
  hb.req_id = 5;
  m.Deliver(std::move(hb));

  const auto answered = [&] {
    std::lock_guard<std::mutex> lock(sent_mu);
    return sent.size() >= 2 && m.heartbeat_seen() == 5;
  };
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(test::ScaledUs(2'000'000));
  while (!answered() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(answered()) << m.StallDiagnostic();
  EXPECT_EQ(m.executed_plans(), 0u);
  {
    std::lock_guard<std::mutex> lock(sent_mu);
    ASSERT_EQ(sent.size(), 2u);
    for (const auto& [to, resp] : sent) {
      if (resp.type == Message::Type::kStorageReadResp) {
        EXPECT_EQ(to, 1u);
        EXPECT_EQ(resp.req_id, 77u);
        EXPECT_EQ(resp.value.field(0), 400);
      } else {
        EXPECT_EQ(resp.type, Message::Type::kCacheReadResp);
        EXPECT_EQ(to, 2u);
        EXPECT_EQ(resp.req_id, 78u);
        EXPECT_EQ(resp.value.field(0), 500);
      }
    }
  }
  EXPECT_EQ(m.cache().num_epoch_entries(), 0u);  // its one read served

  // The push arrives: the parked plan resumes and runs.
  Message push;
  push.type = Message::Type::kPushVersion;
  push.key = 10;
  push.version = 9;
  push.dst_txn = 11;
  push.value = Record{100};
  m.Deliver(std::move(push));
  Message end;
  end.type = Message::Type::kPlanStreamEnd;
  end.epoch = 1;
  m.Deliver(std::move(end));
  m.JoinExecutor();
  m.Stop();
  EXPECT_EQ(m.executed_plans(), 1u);
  const std::vector<TxnResult> results = m.TakeResults();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].id, 11u);
  EXPECT_EQ(results[0].output, (std::vector<std::int64_t>{100}));
}

TEST(RuntimeTest, HeadParkedOnStorageProbeResumesOnAPeersWriteBack) {
  KvStore store;
  store.Upsert(60, Record{600});
  const ProcedureRegistry registry = EmitReadsRegistry();
  Machine m(0, 2, &store, &registry, [](MachineId, Message) {});
  m.set_send_batch([](std::vector<std::pair<MachineId, Message>>&) {});
  m.StartTPart();

  // Round 1: T21 reads version 8 of key 60 from local storage; machine 1
  // has not written it back yet, so T21 parks at the head.
  TxnPlan t21;
  t21.txn = 21;
  t21.machine = 0;
  t21.reads.push_back(MakeRead(60, ReadSourceKind::kStorage, 8, 0));
  SinkPlan plan;
  plan.epoch = 1;
  plan.txns = {t21};
  TxnSpec s21;
  s21.id = 21;
  s21.proc = 200;
  s21.params = {60};
  s21.rw.reads = {60};
  Message round;
  round.type = Message::Type::kSinkPlan;
  round.epoch = 1;
  round.plan_bytes = EncodeSinkPlan(plan);
  round.specs = {s21};
  m.Deliver(std::move(round));
  Message hb;
  hb.type = Message::Type::kHeartbeat;
  hb.req_id = 1;
  m.Deliver(std::move(hb));
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(test::ScaledUs(2'000'000));
  while (m.heartbeat_seen() != 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(m.heartbeat_seen(), 1u) << m.StallDiagnostic();
  // Give the loop time to probe (and miss) a few times.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(m.executed_plans(), 0u);

  // Machine 1's write-back makes v8 current: the head re-probes and runs.
  Message wb;
  wb.type = Message::Type::kWriteBackApply;
  wb.key = 60;
  wb.version = 8;
  wb.replaces = kInvalidTxnId;
  wb.value = Record{800};
  wb.awaits = 0;
  wb.epoch = 1;
  m.Deliver(std::move(wb));
  Message end;
  end.type = Message::Type::kPlanStreamEnd;
  end.epoch = 1;
  m.Deliver(std::move(end));
  m.JoinExecutor();
  m.Stop();
  EXPECT_EQ(m.executed_plans(), 1u);
  const std::vector<TxnResult> results = m.TakeResults();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].id, 21u);
  EXPECT_EQ(results[0].output, (std::vector<std::int64_t>{800}));
  // The misses while parked served nothing; the one hit is the only read.
  EXPECT_EQ(m.storage().reads_served(), 1u);
  EXPECT_EQ(m.storage().write_backs_applied(), 1u);
}

// ---------------------------------------------------------------------
// The loop owns the machine's state: other threads reach a running
// machine only through its inbound queue and its status block.
// ---------------------------------------------------------------------

Message PushMsg(ObjectKey key, TxnId version, TxnId dst, std::int64_t value) {
  Message push;
  push.type = Message::Type::kPushVersion;
  push.key = key;
  push.version = version;
  push.dst_txn = dst;
  push.value = Record{value};
  return push;
}

// Round 1 for machine 0: each listed transaction reads one key from the
// push of version `src`, and emits it.
struct PushRead {
  TxnId txn;
  ObjectKey key;
  TxnId src;
};
Message PushReadRound(const std::vector<PushRead>& reads) {
  SinkPlan plan;
  plan.epoch = 1;
  Message round;
  round.type = Message::Type::kSinkPlan;
  round.epoch = 1;
  for (const PushRead& r : reads) {
    TxnPlan p;
    p.txn = r.txn;
    p.machine = 0;
    p.reads.push_back(MakeRead(r.key, ReadSourceKind::kPush, r.src, 1));
    plan.txns.push_back(p);
    TxnSpec spec;
    spec.id = r.txn;
    spec.proc = 200;
    spec.params = {static_cast<std::int64_t>(r.key)};
    spec.rw.reads = {r.key};
    round.specs.push_back(spec);
  }
  round.plan_bytes = EncodeSinkPlan(plan);
  return round;
}

// Waits until the loop has published a diagnostic containing `text`.
bool AwaitDiagnostic(const Machine& m, const std::string& text) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(test::ScaledUs(2'000'000));
  while (m.StallDiagnostic().find(text) == std::string::npos) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(RuntimeTest, FenceReturnsAfterEveryEarlierMessageIsApplied) {
  KvStore store;
  const ProcedureRegistry registry = EmitReadsRegistry();
  Machine m(0, 2, &store, &registry, [](MachineId, Message) {});
  m.set_send_batch([](std::vector<std::pair<MachineId, Message>>&) {});
  m.StartTPart();
  const auto timeout = std::chrono::microseconds(test::ScaledUs(2'000'000));

  // A push delivered before the fence is in the cache behind it.
  m.Deliver(PushMsg(10, 9, 11, 100));
  ASSERT_TRUE(m.FenceService(timeout).ok());
  EXPECT_EQ(m.cache().num_version_entries(), 1u);

  // Round 1: T11 reads that push and runs; T12 awaits push <20, v8>,
  // which nobody sends yet, and parks. The loop publishes its progress
  // when it blocks: an empty queue with the round still in progress means
  // the head is parked. A fence still returns.
  m.Deliver(PushReadRound({{11, 10, 9}, {12, 20, 8}}));
  ASSERT_TRUE(AwaitDiagnostic(m, "work=0 rounds_in_progress=1"))
      << m.StallDiagnostic();
  ASSERT_TRUE(m.FenceService(timeout).ok()) << m.StallDiagnostic();
  EXPECT_EQ(m.executed_plans(), 1u);

  m.Deliver(PushMsg(20, 8, 12, 200));
  Message end;
  end.type = Message::Type::kPlanStreamEnd;
  end.epoch = 1;
  m.Deliver(std::move(end));
  m.JoinExecutor();
  m.Stop();
  const std::vector<TxnResult> results = m.TakeResults();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].output, (std::vector<std::int64_t>{100}));
  EXPECT_EQ(results[1].output, (std::vector<std::int64_t>{200}));
  EXPECT_EQ(m.cache().num_version_entries(), 0u);
}

TEST(RuntimeTest, AbortReleasesCreditAndJoinWaiters) {
  KvStore store;
  const ProcedureRegistry registry = EmitReadsRegistry();
  Machine m(0, 2, &store, &registry, [](MachineId, Message) {});
  m.set_send_batch([](std::vector<std::pair<MachineId, Message>>&) {});
  m.set_epoch_queue_capacity(1);
  m.StartTPart();

  // One round in flight, holding the only credit; its head plan parks on
  // a push nobody sends.
  ASSERT_EQ(m.AcquireEpochCreditFor(std::chrono::microseconds(0)),
            Machine::CreditGrant::kGranted);
  m.Deliver(PushReadRound({{11, 10, 9}}));
  ASSERT_TRUE(AwaitDiagnostic(m, "work=0 rounds_in_progress=1"))
      << m.StallDiagnostic();

  std::atomic<bool> credit_done{false};
  std::atomic<bool> join_done{false};
  Machine::CreditGrant grant = Machine::CreditGrant::kTimedOut;
  std::thread credit([&] {
    grant = m.AcquireEpochCreditFor(
        std::chrono::microseconds(test::ScaledUs(60'000'000)));
    credit_done = true;
  });
  std::thread join([&] {
    m.JoinExecutor();
    join_done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(credit_done.load()) << "no credit was free";
  EXPECT_FALSE(join_done.load()) << "the head plan had not run";

  m.AbortPendingWaits();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(test::ScaledUs(2'000'000));
  while (!(credit_done && join_done) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(credit_done.load()) << m.StallDiagnostic();
  EXPECT_TRUE(join_done.load()) << m.StallDiagnostic();
  credit.join();
  join.join();
  EXPECT_EQ(grant, Machine::CreditGrant::kGrantedAfterWait);
  m.Stop();
}

TEST(RuntimeTest, ForeignReadersDuringACrashRun) {
  MicroOptions o;
  o.num_machines = 3;
  o.records_per_machine = 200;
  o.hot_set_size = 25;
  o.num_txns = 405;
  const Workload w = MakeMicroWorkload(o);
  const auto [serial_results, serial_state] = SerialReference(w);
  LocalClusterOptions opts = SmallClusterOpts();
  opts.crash.events.push_back({/*machine=*/1, /*at_epoch=*/3});
  opts.detector.heartbeat_interval_us = test::ScaledUs(2000);
  opts.detector.deadline_us = test::ScaledUs(100000);
  LocalCluster cluster(&w, opts);
  std::vector<Machine*> machines;
  for (MachineId m = 0; m < 3; ++m) machines.push_back(&cluster.machine(m));

  // Everything another thread may ask a running machine, in a loop until
  // the run returns. Under TSan this catches any read of loop-owned
  // state that bypasses the status block.
  std::atomic<bool> done{false};
  std::uint64_t probes = 0;
  std::uint64_t malformed = 0;
  std::thread reader([&] {
    do {
      for (const Machine* m : machines) {
        if (m->StallDiagnostic().find(" credits_in_flight=") ==
            std::string::npos) {
          ++malformed;
        }
        (void)m->epochs_in_flight();
        (void)m->crashed();
        (void)m->executed_plans();
      }
      ++probes;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    } while (!done.load());
  });
  const ClusterRunOutcome out = cluster.RunTPart();
  done = true;
  reader.join();

  EXPECT_TRUE(out.fault.ok()) << out.fault.ToString();
  EXPECT_EQ(out.recovery.crashes_injected, 1u);
  EXPECT_GT(probes, 0u);
  EXPECT_EQ(malformed, 0u);
  ExpectSameResults(serial_results, out.results);
  EXPECT_EQ(cluster.store().Snapshot(), serial_state);
}

// ---------------------------------------------------------------------
// Per-machine round slices: a machine receives a slice of every round,
// empty or not, holding only its own plans, each paired with its spec.
// ---------------------------------------------------------------------

TxnSpec NoopSpec(TxnId id) {
  TxnSpec spec;
  spec.id = id;
  spec.proc = 201;
  return spec;
}

TxnPlan NoopPlan(TxnId id, MachineId machine) {
  TxnPlan p;
  p.txn = id;
  p.machine = machine;
  return p;
}

ProcedureRegistry NoopRegistry() {
  ProcedureRegistry registry;
  registry.Register(201, "noop", [](TxnContext&) { return Status::Ok(); });
  return registry;
}

TEST(RuntimeTest, EmptySliceStillCarriesItsRound) {
  // Round 1 runs only on machine 1; round 2 runs T2 here and T3 on
  // machine 2. Machine 0 executes T2 only once round 1's (empty) slice
  // arrived, because rounds enter the FIFO in epoch order.
  SinkPlan round1;
  round1.epoch = 1;
  round1.txns = {NoopPlan(1, 1)};
  SinkPlan round2;
  round2.epoch = 2;
  round2.txns = {NoopPlan(2, 0), NoopPlan(3, 2)};
  std::vector<Message> slices1 =
      SliceSinkPlan(round1, {NoopSpec(1)}, /*num_machines=*/3);
  std::vector<Message> slices2 =
      SliceSinkPlan(round2, {NoopSpec(2), NoopSpec(3)}, 3);
  ASSERT_EQ(slices1.size(), 3u);
  EXPECT_TRUE(slices1[0].specs.empty());

  KvStore store;
  const ProcedureRegistry registry = NoopRegistry();
  Machine m(0, 3, &store, &registry, [](MachineId, Message) {});
  m.StartTPart();
  m.Deliver(std::move(slices2[0]));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(m.executed_plans(), 0u) << "round 2 ran ahead of round 1";
  m.Deliver(std::move(slices1[0]));
  Message end;
  end.type = Message::Type::kPlanStreamEnd;
  end.epoch = 2;
  m.Deliver(std::move(end));
  m.JoinExecutor();
  m.Stop();
  const std::vector<TxnResult> results = m.TakeResults();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].id, 2u);
}

// A crash keeps every round the machine received: Recover() re-runs the
// plans that had run and then finishes the rest of its request log, with
// nothing re-sent.
TEST(RuntimeTest, RecoverFinishesReceivedRoundsFromTheMachinesOwnLog) {
  KvStore store;
  const ProcedureRegistry registry = NoopRegistry();
  Machine m(0, 1, &store, &registry, [](MachineId, Message) {});
  // Rounds 1-3 hold T1-T2, T3-T4 and T5-T6; all of them and the stream
  // end are in the inbox before the loop starts.
  for (SinkEpoch e = 1; e <= 3; ++e) {
    const TxnId a = 2 * e - 1;
    const TxnId b = 2 * e;
    SinkPlan round;
    round.epoch = e;
    round.txns = {NoopPlan(a, 0), NoopPlan(b, 0)};
    m.Deliver(std::move(SliceSinkPlan(round, {NoopSpec(a), NoopSpec(b)},
                                      /*num_machines=*/1)[0]));
  }
  Message end;
  end.type = Message::Type::kPlanStreamEnd;
  end.epoch = 3;
  m.Deliver(std::move(end));
  Machine::CrashPoint point;
  point.after_txns = 3;  // mid-round 2
  m.ArmCrash(point);
  m.StartTPart();

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(test::ScaledUs(2'000'000));
  while (!m.crashed() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(m.crashed()) << m.StallDiagnostic();
  const Result<std::size_t> replayed = m.Recover([] {});
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(*replayed, 3u);

  std::atomic<bool> joined{false};
  std::thread join([&] {
    m.JoinExecutor();
    joined = true;
  });
  const auto join_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::microseconds(test::ScaledUs(2'000'000));
  while (!joined.load() && std::chrono::steady_clock::now() < join_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool finished = joined.load();
  const std::string diag = m.StallDiagnostic();
  if (!finished) m.AbortPendingWaits();  // releases the join
  join.join();
  m.Stop();
  EXPECT_TRUE(finished) << "the received rounds never finished: " << diag;
  std::vector<TxnId> ids;
  for (const TxnResult& r : m.TakeResults()) ids.push_back(r.id);
  EXPECT_EQ(ids, (std::vector<TxnId>{1, 2, 3, 4, 5, 6}));
}

// Delivers one round-1 slice holding T7's plan (for `plan_machine`) with
// `specs` to machine 0, then ends the stream.
void DeliverSlice(MachineId plan_machine, std::vector<TxnSpec> specs) {
  KvStore store;
  const ProcedureRegistry registry = NoopRegistry();
  Machine m(0, 2, &store, &registry, [](MachineId, Message) {});
  m.StartTPart();
  SinkPlan plan;
  plan.epoch = 1;
  plan.txns = {NoopPlan(7, plan_machine)};
  Message slice;
  slice.type = Message::Type::kSinkPlan;
  slice.epoch = 1;
  slice.plan_bytes = EncodeSinkPlan(plan);
  slice.specs = std::move(specs);
  m.Deliver(std::move(slice));
  Message end;
  end.type = Message::Type::kPlanStreamEnd;
  end.epoch = 1;
  m.Deliver(std::move(end));
  m.JoinExecutor();
  m.Stop();
}

TEST(RuntimeDeathTest, SliceMustPairEachOwnPlanWithItsSpec) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(DeliverSlice(0, {}), "slice carries 0 specs for 1 plans");
  EXPECT_DEATH(DeliverSlice(0, {NoopSpec(7), NoopSpec(8)}),
               "slice carries 2 specs for 1 plans");
  EXPECT_DEATH(DeliverSlice(0, {NoopSpec(8)}),
               "pairs spec T8 with the plan of T7");
  EXPECT_DEATH(DeliverSlice(1, {NoopSpec(7)}),
               "slice for machine 0 holds T7's plan for machine 1");
}

// ---------------------------------------------------------------------
// The inbox of machines and coordinator replicas (runtime/channel.h).
// ---------------------------------------------------------------------

Message Numbered(std::uint64_t n) {
  Message m;
  m.type = Message::Type::kPushVersion;
  m.req_id = n;
  return m;
}

TEST(ChannelTest, TakeAllHandsOverEverythingPendingInOrder) {
  Channel ch;
  std::vector<Message> batch;
  EXPECT_FALSE(ch.TakeAll(batch));
  for (std::uint64_t i = 0; i < 5; ++i) ch.Send(Numbered(i));
  EXPECT_EQ(ch.size(), 5u);
  ASSERT_TRUE(ch.TakeAll(batch));
  ASSERT_EQ(batch.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(batch[i].req_id, i);
  EXPECT_EQ(ch.size(), 0u);
  EXPECT_EQ(ch.high_water(), 5u);
  batch.clear();
  EXPECT_FALSE(ch.TakeAll(batch));
  ch.Send(Numbered(7));
  ASSERT_TRUE(ch.TakeAll(batch));
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].req_id, 7u);
  EXPECT_EQ(ch.high_water(), 5u);
}

// The production shape: several producers sending to one consumer that
// alternates polls and blocking waits. Run under TSan this checks the
// wake-up handshake and the buffer swap.
TEST(ChannelTest, PerProducerFifoUnderConcurrentSenders) {
  constexpr std::uint64_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 25000;
  Channel ch;
  std::vector<std::thread> producers;
  for (std::uint64_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ch, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        ch.Send(Numbered((p << 32) | i));
      }
    });
  }
  std::vector<std::uint64_t> next(kProducers, 0);
  std::vector<Message> batch;
  std::uint64_t received = 0;
  std::string reordered;  // the first message out of its producer's order
  for (bool poll = true;
       received < kProducers * kPerProducer && reordered.empty();
       poll = !poll) {
    if (poll ? !ch.TakeAll(batch) : !ch.WaitTakeAll(batch)) continue;
    for (const Message& m : batch) {
      const std::uint64_t p = m.req_id >> 32;
      if (p >= kProducers || (m.req_id & 0xffffffffull) != next[p]) {
        reordered = "message " + std::to_string(m.req_id) + " after " +
                    std::to_string(received) + " received";
        break;
      }
      ++next[p];
      ++received;
    }
    batch.clear();
  }
  for (auto& t : producers) t.join();
  EXPECT_TRUE(reordered.empty()) << reordered;
  EXPECT_EQ(ch.size(), 0u);
  EXPECT_FALSE(ch.TakeAll(batch));
}

TEST(ChannelTest, BlockedWaitIsWokenByALateSend) {
  Channel ch;
  std::thread sender([&ch] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ch.Send(Numbered(42));
  });
  std::vector<Message> batch;
  const bool got = ch.WaitTakeAll(batch);
  sender.join();
  ASSERT_TRUE(got);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].req_id, 42u);
}

TEST(ChannelTest, WaitTakeAllTimesOutThenDelivers) {
  Channel ch;
  std::vector<Message> batch;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(ch.WaitTakeAll(batch, start + std::chrono::milliseconds(20)));
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(20));
  EXPECT_TRUE(batch.empty());
  ch.Send(Numbered(7));
  ASSERT_TRUE(ch.WaitTakeAll(
      batch, std::chrono::steady_clock::now() + std::chrono::seconds(5)));
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].req_id, 7u);
}

}  // namespace
}  // namespace tpart
