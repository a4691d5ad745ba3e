// Coordinator-fault-tolerance tests (DESIGN §4i): the replicated request
// log, standby election after a leader crash-stop, and deterministic
// rebuild of the coordinator's T-graph and sink-epoch state from the
// committed log. A streaming run whose coordinator dies mid-stream must
// fail over to a standby and finish with byte-identical committed results
// and final store state to the crash-free run — on every transport, alone
// and composed with worker crashes, network faults, and stragglers. The
// straggler-aware failure detector and the executor stall diagnostic are
// covered here too.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/wire.h"
#include "obs/flight_recorder.h"
#include "runtime/channel.h"
#include "runtime/cluster.h"
#include "runtime/coordinator.h"
#include "runtime/machine.h"
#include "scheduler/push_plan.h"
#include "storage/kv_store.h"
#include "txn/procedure.h"
#include "test_time.h"
#include "workload/micro.h"

namespace tpart {
namespace {

MicroOptions SmallMicro() {
  MicroOptions o;
  o.num_machines = 3;
  o.records_per_machine = 200;
  o.hot_set_size = 25;
  o.num_txns = 405;
  return o;
}

LocalClusterOptions StreamingOpts(TransportKind kind) {
  LocalClusterOptions opts;
  opts.scheduler.sink_size = 20;
  opts.transport.kind = kind;
  return opts;
}

LocalClusterOptions FailoverOpts(TransportKind kind, SinkEpoch at_epoch,
                                 std::size_t standbys = 1) {
  LocalClusterOptions opts = StreamingOpts(kind);
  opts.coordinator.standbys = standbys;
  opts.crash.coordinator_at.push_back(at_epoch);
  return opts;
}

void AddNetFaults(LocalClusterOptions& opts) {
  opts.transport.faults.seed = 0xC0FFEE;
  opts.transport.faults.drop_prob = 0.05;
  opts.transport.faults.duplicate_prob = 0.05;
  opts.transport.faults.delay_prob = 0.10;
  opts.transport.faults.max_delay_us = 1500;
  opts.transport.retry_timeout_us = 1000;
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
};

RunSnapshot RunOnce(const Workload& w, const LocalClusterOptions& opts) {
  LocalCluster cluster(&w, opts);
  RunSnapshot snap;
  snap.out = cluster.RunTPart();
  snap.state = cluster.store().Snapshot();
  return snap;
}

void ExpectFailedOver(const ClusterRunOutcome& out, std::uint64_t crashes) {
  EXPECT_TRUE(out.fault.ok()) << out.fault.ToString();
  EXPECT_EQ(out.failover.coordinator_crashes, crashes);
  EXPECT_EQ(out.failover.elections_won, crashes);
  EXPECT_GT(out.failover.detection_latency_us, 0u);
  EXPECT_GT(out.failover.election_us, 0u);
  EXPECT_GT(out.failover.replan_us, 0u);
  EXPECT_GE(out.failover.plan_stream_gap_us, out.failover.replan_us);
  EXPECT_GT(out.failover.replayed_batches, 0u);
  EXPECT_GT(out.failover.catchup_rounds, 0u);
}

// ---------------------------------------------------------------------
// Replication without failure: the quorum-committed log is pure overhead
// in the happy path — results must not change.
// ---------------------------------------------------------------------

TEST(FailoverTest, HealthyStandbysPreserveResults) {
  const Workload w = MakeMicroWorkload(SmallMicro());
  const RunSnapshot ref = RunOnce(w, StreamingOpts(TransportKind::kDirect));

  LocalClusterOptions opts = StreamingOpts(TransportKind::kDirect);
  opts.coordinator.standbys = 1;
  const RunSnapshot got = RunOnce(w, opts);
  EXPECT_TRUE(got.out.fault.ok()) << got.out.fault.ToString();
  ExpectSameResults(ref.out.results, got.out.results);
  EXPECT_EQ(got.state, ref.state);
  // Every sequenced batch went through the replicated log and won its
  // quorum; nothing crashed, nobody was elected.
  EXPECT_EQ(got.out.failover.committed_batches, ref.out.pipeline.batches);
  EXPECT_GE(got.out.failover.log_appends, got.out.failover.committed_batches);
  EXPECT_GE(got.out.failover.log_acks, got.out.failover.committed_batches);
  EXPECT_EQ(got.out.failover.coordinator_crashes, 0u);
  EXPECT_EQ(got.out.failover.elections_won, 0u);
  EXPECT_EQ(got.out.failover.leader, 0u);
}

// ---------------------------------------------------------------------
// Leader crash: a standby takes over and the committed prefix plus the
// deterministically regenerated suffix equal the crash-free run.
// ---------------------------------------------------------------------

TEST(FailoverTest, LeaderCrashMatchesCrashFreeRun) {
  const Workload w = MakeMicroWorkload(SmallMicro());
  const RunSnapshot ref = RunOnce(w, StreamingOpts(TransportKind::kDirect));

  const RunSnapshot got =
      RunOnce(w, FailoverOpts(TransportKind::kDirect, 3));
  ExpectSameResults(ref.out.results, got.out.results);
  EXPECT_EQ(got.state, ref.state)
      << "failed-over final store diverged from the crash-free run";
  EXPECT_EQ(got.out.committed, ref.out.committed);
  EXPECT_EQ(got.out.aborted, ref.out.aborted);
  ExpectFailedOver(got.out, 1);
  // The single standby (replica 1) is the only possible winner.
  EXPECT_EQ(got.out.failover.leader, 1u);
  EXPECT_EQ(got.out.failover.dueling_claims, 0u);
}

TEST(FailoverTest, FailoverOnEveryTransport) {
  const Workload w = MakeMicroWorkload(SmallMicro());
  const RunSnapshot ref = RunOnce(w, StreamingOpts(TransportKind::kDirect));

  for (TransportKind kind : {TransportKind::kDirect,
                             TransportKind::kInProcess,
                             TransportKind::kTcp}) {
    const RunSnapshot got = RunOnce(w, FailoverOpts(kind, 4));
    const std::string label =
        "transport " + std::to_string(static_cast<int>(kind));
    ExpectSameResults(ref.out.results, got.out.results);
    EXPECT_EQ(got.state, ref.state) << label;
    ExpectFailedOver(got.out, 1);
  }
}

TEST(FailoverTest, ComposedWithWorkerCrashAndNetFaults) {
  const Workload w = MakeMicroWorkload(SmallMicro());
  const RunSnapshot ref = RunOnce(w, StreamingOpts(TransportKind::kDirect));

  struct Case {
    TransportKind kind;
    bool network_faults;
  };
  const Case cases[] = {
      {TransportKind::kDirect, false},
      {TransportKind::kInProcess, true},
      {TransportKind::kTcp, false},
  };
  for (const Case& c : cases) {
    // Coordinator and worker die at the same sink epoch: the watchdog
    // rebuilds the worker from its logs while the standby rebuilds the
    // coordinator from the committed request log.
    LocalClusterOptions opts = FailoverOpts(c.kind, 5);
    opts.crash.events.push_back({1, 5});
    opts.detector.heartbeat_interval_us = test::ScaledUs(2000);
    opts.detector.deadline_us = test::ScaledUs(100000);
    if (c.network_faults) AddNetFaults(opts);
    const std::string label =
        "transport " + std::to_string(static_cast<int>(c.kind)) +
        (c.network_faults ? " with net faults" : "");
    const RunSnapshot got = RunOnce(w, opts);
    ExpectSameResults(ref.out.results, got.out.results);
    EXPECT_EQ(got.state, ref.state) << label;
    ExpectFailedOver(got.out, 1);
    EXPECT_EQ(got.out.recovery.crashes_injected, 1u) << label;
    EXPECT_EQ(got.out.recovery.crashed_machine, 1) << label;
  }
}

TEST(FailoverTest, TwoLeaderCrashesWithThreeReplicas) {
  const Workload w = MakeMicroWorkload(SmallMicro());
  const RunSnapshot ref = RunOnce(w, StreamingOpts(TransportKind::kDirect));

  LocalClusterOptions opts = FailoverOpts(TransportKind::kDirect, 3,
                                          /*standbys=*/2);
  opts.crash.coordinator_at.push_back(7);
  const RunSnapshot got = RunOnce(w, opts);
  ExpectSameResults(ref.out.results, got.out.results);
  EXPECT_EQ(got.state, ref.state);
  ExpectFailedOver(got.out, 2);
}

TEST(FailoverTest, FailoverIsDeterministicAcrossRuns) {
  const Workload w = MakeMicroWorkload(SmallMicro());
  const LocalClusterOptions opts = FailoverOpts(TransportKind::kInProcess, 4);
  const RunSnapshot first = RunOnce(w, opts);
  const RunSnapshot second = RunOnce(w, opts);
  ExpectSameResults(first.out.results, second.out.results);
  EXPECT_EQ(first.state, second.state);
  EXPECT_EQ(first.out.failover.coordinator_crashes,
            second.out.failover.coordinator_crashes);
}

// ---------------------------------------------------------------------
// The full chaos matrix from one seed: three worker crashes, a
// straggler, a coordinator crash, and network faults, all composed.
// ---------------------------------------------------------------------

TEST(FailoverTest, SeededChaosAddsCoordinatorEventOnlyWithStandbys) {
  LocalClusterOptions without = StreamingOpts(TransportKind::kDirect);
  const std::string s0 = ApplySeededChaos(42, 3, 20, without);
  EXPECT_TRUE(without.crash.coordinator_at.empty());
  EXPECT_EQ(s0.find("seq@e"), std::string::npos) << s0;

  LocalClusterOptions with = StreamingOpts(TransportKind::kDirect);
  with.coordinator.standbys = 1;
  const std::string s1 = ApplySeededChaos(42, 3, 20, with);
  ASSERT_EQ(with.crash.coordinator_at.size(), 1u);
  EXPECT_NE(s1.find("seq@e"), std::string::npos) << s1;
  // Drawn after every worker event: the worker schedule for a fixed seed
  // is independent of the standby count.
  EXPECT_EQ(with.crash.events, without.crash.events);
  EXPECT_EQ(with.straggler.machine, without.straggler.machine);
  // The leader dies strictly inside the run, after the first crash arms.
  ASSERT_FALSE(with.crash.events.empty());
  EXPECT_GT(with.crash.coordinator_at[0], with.crash.events[0].at_epoch);
}

TEST(FailoverTest, SeededChaosMatrixWithCoordinatorEventMatchesReference) {
  const Workload w = MakeMicroWorkload(SmallMicro());
  const RunSnapshot ref = RunOnce(w, StreamingOpts(TransportKind::kDirect));
  const SinkEpoch span = static_cast<SinkEpoch>(ref.out.pipeline.plans);
  ASSERT_GE(span, 12u);

  LocalClusterOptions opts = StreamingOpts(TransportKind::kInProcess);
  opts.coordinator.standbys = 1;
  opts.detector.heartbeat_interval_us = test::ScaledUs(2000);
  opts.detector.deadline_us = test::ScaledUs(100000);
  const std::string schedule = ApplySeededChaos(7, w.num_machines, span, opts);
  ASSERT_EQ(opts.crash.coordinator_at.size(), 1u) << schedule;
  AddNetFaults(opts);
  const RunSnapshot got = RunOnce(w, opts);
  EXPECT_TRUE(got.out.fault.ok())
      << schedule << ": " << got.out.fault.ToString();
  ExpectSameResults(ref.out.results, got.out.results);
  EXPECT_EQ(got.state, ref.state) << schedule;
  EXPECT_EQ(got.out.recovery.crashes_injected, 3u) << schedule;
  ExpectFailedOver(got.out, 1);
}

// ---------------------------------------------------------------------
// Straggler-aware failure detection: injected delay above the base
// deadline must widen that machine's deadline, not kill it.
// ---------------------------------------------------------------------

TEST(FailoverTest, StragglerBeyondBaseDeadlineIsNotDeclaredDead) {
  const Workload w = MakeMicroWorkload(SmallMicro());
  const RunSnapshot ref = RunOnce(w, StreamingOpts(TransportKind::kDirect));

  LocalClusterOptions opts = StreamingOpts(TransportKind::kDirect);
  opts.detector.enabled = true;  // watchdog on, no crash scheduled
  opts.detector.heartbeat_interval_us = test::ScaledUs(2000);
  opts.detector.deadline_us = test::ScaledUs(50000);
  opts.straggler.machine = 1;
  // The freeze exceeds the base deadline: without the straggler-aware
  // widening this is a guaranteed false positive (and, with no crash
  // scheduled, a fatal kUnavailable fault).
  opts.straggler.delay_us = test::ScaledUs(75000);
  opts.straggler.period_us = test::ScaledUs(400000);
  const RunSnapshot got = RunOnce(w, opts);
  EXPECT_TRUE(got.out.fault.ok()) << got.out.fault.ToString();
  EXPECT_EQ(got.out.recovery.crashes_injected, 0u);
  ExpectSameResults(ref.out.results, got.out.results);
  EXPECT_EQ(got.state, ref.state);
}

// ---------------------------------------------------------------------
// Executor stall diagnostic: a live machine blocked awaiting a version
// that never arrived reports its state instead of staying opaque.
// ---------------------------------------------------------------------

TEST(FailoverTest, StallDiagnosticReportsLiveExecutorState) {
  KvStore store;
  store.Upsert(5, Record{50});
  ProcedureRegistry registry;
  registry.Register(200, "read_two", [](TxnContext& ctx) {
    (void)ctx.Get(5);
    (void)ctx.Get(6);
    return Status::Ok();
  });
  std::mutex sent_mu;
  std::vector<std::pair<MachineId, Message>> sent;
  Machine m(0, 2, &store, &registry,
            [&](std::vector<std::pair<MachineId, Message>>& msgs) {
              std::lock_guard<std::mutex> lock(sent_mu);
              for (auto& [to, msg] : msgs) {
                sent.emplace_back(to, std::move(msg));
              }
            });
  m.StartTPart();

  // One round whose plan awaits forward-push <5, v7> from machine 1 — a
  // push nobody has sent: the executor blocks inside the gather phase —
  // and reads key 6 from machine 1's storage, requested on arrival.
  TxnPlan plan;
  plan.txn = 1;
  plan.machine = 0;
  ReadStep r;
  r.key = 5;
  r.kind = ReadSourceKind::kPush;
  r.src_txn = 7;
  r.src_machine = 1;
  r.provider_txn = 7;
  plan.reads.push_back(r);
  r.key = 6;
  r.kind = ReadSourceKind::kStorage;
  r.src_txn = 0;
  r.provider_txn = 0;
  plan.reads.push_back(r);
  TxnSpec spec;
  spec.id = 1;
  spec.proc = 200;
  spec.rw.reads = {5, 6};
  SinkPlan sink;
  sink.epoch = 1;
  sink.txns.push_back(plan);
  Message round;
  round.type = Message::Type::kSinkPlan;
  round.epoch = 1;
  round.plan_bytes = EncodeSinkPlan(sink);
  round.specs.push_back(spec);
  m.Deliver(std::move(round));
  // The loop publishes its progress when it blocks, after the round was
  // taken in: the next round it expects is round 2.
  const auto taken_in = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(test::ScaledUs(2'000'000));
  std::string diag = m.StallDiagnostic();
  while (diag.find("next_epoch=2") == std::string::npos &&
         std::chrono::steady_clock::now() < taken_in) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    diag = m.StallDiagnostic();
  }

  // The work queue is drained (the executor holds the item) but nothing
  // has executed: the diagnostic pinpoints a live machine wedged
  // mid-round rather than a dead or backlogged one.
  EXPECT_NE(diag.find("machine 0"), std::string::npos) << diag;
  EXPECT_NE(diag.find("state=live"), std::string::npos) << diag;
  EXPECT_NE(diag.find("work=0"), std::string::npos) << diag;
  EXPECT_NE(diag.find("executed=0"), std::string::npos) << diag;
  EXPECT_NE(diag.find("next_epoch=2"), std::string::npos) << diag;
  // The round's read request went out to machine 1 before the loop
  // blocked, and no reply is waiting.
  EXPECT_NE(diag.find("responses_pending=0"), std::string::npos) << diag;
  {
    std::lock_guard<std::mutex> lock(sent_mu);
    ASSERT_EQ(sent.size(), 1u);
    EXPECT_EQ(sent[0].first, 1u);
    EXPECT_EQ(sent[0].second.type, Message::Type::kStorageReadReq);
    EXPECT_EQ(sent[0].second.key, 6u);
    EXPECT_EQ(sent[0].second.req_id, (std::uint64_t{1} << 10) | 1);
  }
  // Fence state rides along (no term witnessed, nothing dropped) ...
  EXPECT_NE(diag.find("fence_term=0"), std::string::npos) << diag;
  EXPECT_NE(diag.find("fenced=0"), std::string::npos) << diag;
  // ... and the cluster-installed context hook (per-link retry backlog,
  // suspicion levels) is appended verbatim.
  m.set_diagnostic_context([] { return std::string(" fd{m1 phi=0.1}"); });
  EXPECT_NE(m.StallDiagnostic().find("fd{m1 phi=0.1}"), std::string::npos);
  m.set_diagnostic_context(nullptr);

  // The storage reply arrives and waits for the plan, which still blocks
  // on the push: the reply came, so the wedge is elsewhere.
  Message resp;
  resp.type = Message::Type::kStorageReadResp;
  resp.req_id = (std::uint64_t{1} << 10) | 1;
  resp.value = Record{60};
  m.Deliver(std::move(resp));
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(test::ScaledUs(2'000'000));
  std::string after = m.StallDiagnostic();
  while (after.find("responses_pending=1") == std::string::npos &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    after = m.StallDiagnostic();
  }
  EXPECT_NE(after.find("responses_pending=1"), std::string::npos) << after;
  EXPECT_NE(after.find("executed=0"), std::string::npos) << after;

  // Deliver the push; the executor unblocks and the round drains.
  Message push;
  push.type = Message::Type::kPushVersion;
  push.key = 5;
  push.version = 7;
  push.dst_txn = 1;
  push.value = Record{70};
  m.Deliver(std::move(push));
  Message end;
  end.type = Message::Type::kPlanStreamEnd;
  end.epoch = 1;
  m.Deliver(std::move(end));
  m.JoinExecutor();
  EXPECT_EQ(m.TakeResults().size(), 1u);
  m.Stop();
}

// ---------------------------------------------------------------------
// Zombie-leader fencing (DESIGN §4j): a leader that merely paused is
// revived after its successor's election and replays its in-flight
// traffic — a stale round, a stale plan-stream end marker, and a stale
// log append. Every machine and replica must drop the stale-term
// messages (a stale end marker would truncate the plan stream and
// silently diverge), leaving the run byte-identical to fault-free.
// ---------------------------------------------------------------------

TEST(FailoverTest, ZombieLeaderRevivalIsFenced) {
  const Workload w = MakeMicroWorkload(SmallMicro());
  const RunSnapshot ref = RunOnce(w, StreamingOpts(TransportKind::kDirect));

  for (TransportKind kind : {TransportKind::kDirect,
                             TransportKind::kInProcess,
                             TransportKind::kTcp}) {
    LocalClusterOptions opts = FailoverOpts(kind, 4);
    opts.crash.coordinator_revive_at = {7};
    const std::string label =
        "transport " + std::to_string(static_cast<int>(kind));
    const RunSnapshot got = RunOnce(w, opts);
    ExpectSameResults(ref.out.results, got.out.results);
    EXPECT_EQ(got.state, ref.state)
        << label << ": zombie traffic leaked through the term fence";
    ExpectFailedOver(got.out, 1);
    EXPECT_EQ(got.out.failover.zombie_revivals, 1u) << label;
    // The revival injects a stale round + a stale end marker to every
    // machine (it waits until all of them have witnessed the new term),
    // and a stale append to the successor replica.
    EXPECT_GE(got.out.failover.fenced_messages, 2 * w.num_machines) << label;
    EXPECT_GE(got.out.failover.fenced_appends, 1u) << label;
  }
}

TEST(FailoverTest, ZombieRevivalComposedWithWorkerCrashAndNetFaults) {
  const Workload w = MakeMicroWorkload(SmallMicro());
  const RunSnapshot ref = RunOnce(w, StreamingOpts(TransportKind::kDirect));

  LocalClusterOptions opts = FailoverOpts(TransportKind::kInProcess, 5);
  opts.crash.coordinator_revive_at = {8};
  opts.crash.events.push_back({1, 5});
  opts.detector.heartbeat_interval_us = test::ScaledUs(2000);
  opts.detector.deadline_us = test::ScaledUs(100000);
  AddNetFaults(opts);
  const RunSnapshot got = RunOnce(w, opts);
  ExpectSameResults(ref.out.results, got.out.results);
  EXPECT_EQ(got.state, ref.state);
  ExpectFailedOver(got.out, 1);
  EXPECT_EQ(got.out.recovery.crashes_injected, 1u);
  EXPECT_EQ(got.out.failover.zombie_revivals, 1u);
  EXPECT_GE(got.out.failover.fenced_messages, 2 * w.num_machines);
}

// ---------------------------------------------------------------------
// Replication under reordering: the link layer delivers exactly once but
// a dropped packet's retry can land after its successors. Out-of-order
// appends must park (unapplied, unacked) until the gap fills, then apply
// in log order.
// ---------------------------------------------------------------------

TEST(FailoverTest, OutOfOrderAppendsParkUntilGapFills) {
  CoordinatorOptions copts;
  copts.standbys = 1;
  copts.election_timeout_us = 10'000'000;  // no elections during the test
  std::mutex mu;
  std::vector<Message> sent;
  CoordinatorReplicaSet set(copts, /*num_machines=*/2,
                            [&](MachineId, MachineId, Message m) {
                              std::lock_guard<std::mutex> lock(mu);
                              sent.push_back(std::move(m));
                            });
  set.Start();
  // Replicas sit at endpoints [2, 4): 2 is the leader, 3 the standby.
  const auto append = [&](std::uint64_t index) {
    Message m;
    m.type = Message::Type::kLogAppend;
    m.req_id = index;
    m.txn = static_cast<TxnId>(100 + index);
    m.epoch = 1;
    m.reply_to = 2;
    set.Deliver(1, std::move(m));
  };
  const auto acked = [&] {
    std::lock_guard<std::mutex> lock(mu);
    std::vector<std::uint64_t> got;
    for (const Message& m : sent) {
      if (m.type == Message::Type::kLogAck && m.key == 0) {
        got.push_back(m.req_id);
      }
    }
    return got;
  };
  // Indices 2 and 1 arrive before 0: neither may apply or ack.
  append(2);
  append(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_TRUE(acked().empty());
  // The gap-filling entry releases the whole parked run, in log order.
  append(0);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (acked().size() < 3 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(acked(), (std::vector<std::uint64_t>{0, 1, 2}));
  set.Shutdown();
}

// ---------------------------------------------------------------------
// Replicated-log safety, driven directly through the replica set: the
// committed prefix survives a leader crash, the new leader keeps
// accepting, a restarted replica catches up, and replicas agree after
// repeated crash/elect rounds.
// ---------------------------------------------------------------------

TxnBatch TaggedBatch(std::uint64_t tag) {
  TxnBatch b;
  b.batch_id = tag;
  TxnSpec spec;
  spec.id = tag;
  b.txns.push_back(spec);
  return b;
}

std::vector<std::uint64_t> Tags(const std::vector<TxnBatch>& log) {
  std::vector<std::uint64_t> out;
  for (const TxnBatch& b : log) out.push_back(b.batch_id);
  return out;
}

std::vector<std::uint64_t> TagRange(std::uint64_t first, std::uint64_t last) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t t = first; t <= last; ++t) out.push_back(t);
  return out;
}

// A replica ensemble whose replica-to-replica traffic is wired straight
// back through Deliver(); traffic addressed to worker machines is dropped,
// and so are log appends while `drop_appends` is set, or appends to
// replica `drop_appends_to` alone.
struct LoopbackEnsemble {
  static constexpr std::size_t kMachines = 2;
  static constexpr std::size_t kNoReplica = ~std::size_t{0};

  static CoordinatorOptions Options(std::size_t standbys) {
    CoordinatorOptions o;
    o.standbys = standbys;
    o.election_timeout_us = test::ScaledUs(20000);
    // Rank gaps far above scheduling jitter: the lowest-ranked standby
    // always claims first.
    o.backoff_base_us = test::ScaledUs(10000);
    return o;
  }

  explicit LoopbackEnsemble(std::size_t standbys)
      : set(Options(standbys), kMachines,
            [this](MachineId, MachineId to, Message m) {
              if (to < kMachines) return;
              const std::size_t r = to - kMachines;
              if (m.type == Message::Type::kLogAppend &&
                  (drop_appends || r == drop_appends_to)) {
                ++appends_dropped;
                return;
              }
              set.Deliver(r, std::move(m));
            }) {
    set.Start();
  }

  void Append(std::uint64_t first, std::uint64_t last) {
    for (std::uint64_t t = first; t <= last; ++t) {
      const Result<bool> appended = set.LeaderAppend(TaggedBatch(t));
      ASSERT_TRUE(appended.ok())
          << "batch " << t << ": " << appended.status().ToString();
      ASSERT_TRUE(*appended) << "batch " << t;
    }
  }

  // Crash-stops the leader and runs the failover LocalCluster::RunTPart
  // performs: wait out the election, sync the claim across the ensemble,
  // then rejoin the crashed replica as a standby.
  void FailOver() {
    const std::size_t crashed = set.leader();
    set.CrashLeader();
    ASSERT_TRUE(set.WaitElected(std::chrono::seconds(30)).ok());
    ASSERT_TRUE(set.SyncNewLeader(std::chrono::seconds(30)).ok());
    EXPECT_NE(set.leader(), crashed);
    set.RestartReplica(crashed);
  }

  std::atomic<bool> drop_appends{false};
  std::atomic<std::size_t> drop_appends_to{kNoReplica};
  std::atomic<std::size_t> appends_dropped{0};
  CoordinatorReplicaSet set;
};

TEST(FailoverTest, ReplicaSetCommittedPrefixSurvivesLeaderCrash) {
  LoopbackEnsemble ens(/*standbys=*/2);
  ens.Append(1, 4);
  ASSERT_EQ(Tags(ens.set.CommittedLog()), TagRange(1, 4));
  ens.FailOver();
  EXPECT_GE(ens.set.term(), 2u);
  // The new leader's log is the committed prefix, in order.
  EXPECT_EQ(Tags(ens.set.CommittedLog()), TagRange(1, 4));
}

TEST(FailoverTest, ReplicaSetShortLogClaimantAdoptsCommittedSuffix) {
  // Replica 1 misses every append while batches 1-3 commit through
  // replica 2. On failover the lowest-ranked standby, replica 1, claims
  // with an empty log while replica 2 is already a candidate with the
  // full one. Replica 2 must stand down and ship its suffix, and the new
  // leader must adopt it before the failover completes.
  LoopbackEnsemble ens(/*standbys=*/2);
  ens.drop_appends_to = 1;
  ens.Append(1, 3);
  ens.drop_appends_to = LoopbackEnsemble::kNoReplica;
  ens.FailOver();
  EXPECT_EQ(ens.set.leader(), 1u);
  EXPECT_EQ(Tags(ens.set.CommittedLog()), TagRange(1, 3));
}

TEST(FailoverTest, ReplicaSetNewLeaderKeepsAccepting) {
  LoopbackEnsemble ens(/*standbys=*/2);
  ens.Append(1, 1);
  ens.FailOver();
  ens.Append(2, 3);
  EXPECT_EQ(Tags(ens.set.CommittedLog()), TagRange(1, 3));
}

TEST(FailoverTest, ReplicaSetRestartedReplicaCatchesUp) {
  // Two replicas. The leader appends a batch the standby never receives
  // and crash-stops before it commits. Restarted as a standby, the old
  // leader must drop that uncommitted tail and take the new leader's
  // history; the next failover makes it leader again, so its log is read
  // back directly.
  LoopbackEnsemble ens(/*standbys=*/1);
  ens.Append(1, 2);
  ens.drop_appends = true;
  std::thread stuck([&] {
    const Result<bool> appended = ens.set.LeaderAppend(TaggedBatch(99));
    ASSERT_TRUE(appended.ok()) << appended.status().ToString();
    EXPECT_FALSE(*appended);
  });
  // Wait for the standby's copy to be dropped, not just for the leader's
  // log to grow: the leader appends before it sends, and an append sent
  // after the flag clears would reach the standby after all.
  while (ens.appends_dropped.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ens.drop_appends = false;
  ens.FailOver();
  stuck.join();
  EXPECT_EQ(ens.set.leader(), 1u);
  ens.Append(3, 4);
  ens.FailOver();
  EXPECT_EQ(ens.set.leader(), 0u);
  EXPECT_EQ(Tags(ens.set.CommittedLog()), TagRange(1, 4));
}

TEST(FailoverTest, ReplicaSetAppendWithoutQuorumTimesOut) {
  // The standby never receives the append, so its quorum cannot form: a
  // bounded append reports that, naming what it waited for, instead of
  // blocking admission forever.
  LoopbackEnsemble ens(/*standbys=*/1);
  ens.Append(1, 1);
  ens.drop_appends = true;
  const Result<bool> appended = ens.set.LeaderAppend(
      TaggedBatch(2), std::chrono::microseconds(test::ScaledUs(50000)));
  ASSERT_FALSE(appended.ok());
  EXPECT_EQ(appended.status().code(), StatusCode::kUnavailable);
  const std::string& msg = appended.status().message();
  EXPECT_NE(msg.find("log append 1 (term 1) has 0 of 1 standby acks"),
            std::string::npos)
      << msg;
  EXPECT_NE(msg.find("down replicas: none"), std::string::npos) << msg;
}

TEST(FailoverTest, ReplicaSetReplicasAgreeAfterRepeatedFailovers) {
  // With two replicas leadership alternates, so each round reads back the
  // log of the replica that was a standby (and, from the second round on,
  // restarted) during the round before.
  LoopbackEnsemble ens(/*standbys=*/1);
  std::uint64_t tag = 1;
  for (int round = 0; round < 4; ++round) {
    ens.Append(tag, tag + 2);
    tag += 3;
    ens.FailOver();
    EXPECT_EQ(Tags(ens.set.CommittedLog()), TagRange(1, tag - 1))
        << "round " << round << ", leader " << ens.set.leader();
  }
  EXPECT_EQ(ens.set.term(), 5u);
}

// ---------------------------------------------------------------------
// Flight recorder: a coordinator failover dumps a post-mortem whose tail
// carries the election and term-start markers.
// ---------------------------------------------------------------------

TEST(FailoverTest, CoordinatorFailoverProducesLoadablePostmortem) {
#if defined(TPART_TRACING_DISABLED)
  GTEST_SKIP() << "instrumentation compiled out (TPART_DISABLE_TRACING)";
#endif
  obs::FlightRecorder rec;
  obs::InstallGlobalFlightRecorder(&rec);
  const Workload w = MakeMicroWorkload(SmallMicro());
  const RunSnapshot got =
      RunOnce(w, FailoverOpts(TransportKind::kDirect, 5, /*standbys=*/2));
  obs::InstallGlobalFlightRecorder(nullptr);
  ExpectFailedOver(got.out, 1);

  ASSERT_GE(rec.dumps(), 1u);
  const std::string json = rec.last_dump_json();
  EXPECT_EQ(json.compare(0, 16, "{\"traceEvents\":["), 0)
      << json.substr(0, 200);
  EXPECT_NE(json.find("],\"displayTimeUnit\":\"ms\"}"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"crash_stop\""), std::string::npos)
      << "leader crash-stop marker missing";
  EXPECT_NE(json.find("\"name\":\"election_won\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"term_start\""), std::string::npos);
  EXPECT_NE(json.find("\"reason\":\"failover\""), std::string::npos);
  // Causal order in the merged, time-sorted dump: crash before election
  // before the new term.
  const std::size_t crash_at = json.find("\"name\":\"crash_stop\"");
  const std::size_t won_at = json.find("\"name\":\"election_won\"");
  const std::size_t term_at = json.find("\"name\":\"term_start\"");
  EXPECT_LT(crash_at, won_at);
  EXPECT_LT(won_at, term_at);
}

// Satellite of the live-observability plane: each failover phase lands
// one observation in the phase histograms, so multi-failover runs
// aggregate into p50/p99 instead of overwriting a last-value gauge.
TEST(FailoverTest, PhaseDurationsLandInHistograms) {
  const Workload w = MakeMicroWorkload(SmallMicro());
  const RunSnapshot got = RunOnce(
      w, FailoverOpts(TransportKind::kDirect, 4, /*standbys=*/1));
  ExpectFailedOver(got.out, 1);
  const FailoverStats& f = got.out.failover;
  EXPECT_EQ(f.phase_detection_us.count(), 1u);
  EXPECT_EQ(f.phase_election_us.count(), 1u);
  EXPECT_EQ(f.phase_replan_us.count(), 1u);
  EXPECT_EQ(f.phase_plan_stream_gap_us.count(), 1u);
  // The histogram observations mirror the last-failover scalars.
  EXPECT_EQ(f.phase_detection_us.max_value(), f.detection_latency_us);
  EXPECT_EQ(f.phase_replan_us.max_value(), f.replan_us);
  EXPECT_GE(f.phase_plan_stream_gap_us.max_value(), f.replan_us);
}

// ---------------------------------------------------------------------
// FailoverStats surfaces.
// ---------------------------------------------------------------------

TEST(FailoverTest, FailoverStatsSummaryReportsElections) {
  FailoverStats stats;
  stats.committed_batches = 12;
  stats.log_appends = 12;
  stats.log_acks = 12;
  std::string s = stats.Summary();
  EXPECT_NE(s.find("replicas_committed_batches=12"), std::string::npos) << s;
  EXPECT_EQ(s.find("elections="), std::string::npos) << s;
  stats.coordinator_crashes = 1;
  stats.elections_won = 1;
  stats.detection_latency_us = 21000;
  stats.replan_us = 900;
  s = stats.Summary();
  EXPECT_NE(s.find("elections=1"), std::string::npos) << s;
  EXPECT_NE(s.find("detection_us=21000"), std::string::npos) << s;
}

}  // namespace
}  // namespace tpart
