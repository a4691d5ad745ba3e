// Transport-layer tests: every wire substrate (serialized in-process
// delivery, loopback TCP, and both under seeded fault injection) must
// produce exactly the results and final state of the serial reference
// and of the direct in-memory path — the version CC makes outcomes
// interleaving-independent, so any divergence is a transport bug.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exec/serial_executor.h"
#include "net/transport.h"
#include "net/wire.h"
#include "runtime/cluster.h"
#include "test_threads.h"
#include "test_time.h"
#include "workload/micro.h"
#include "workload/tpcc.h"

namespace tpart {
namespace {

std::pair<std::vector<TxnResult>, std::vector<std::pair<ObjectKey, Record>>>
SerialReference(const Workload& w) {
  auto map = std::make_shared<HashPartitionMap>(1);
  PartitionedStore store(1, map);
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

MicroOptions SmallMicro() {
  MicroOptions o;
  o.num_machines = 3;
  o.records_per_machine = 200;
  o.hot_set_size = 25;
  o.num_txns = 400;
  return o;
}

LocalClusterOptions OptsFor(TransportKind kind) {
  LocalClusterOptions opts;
  opts.scheduler.sink_size = 20;
  opts.transport.kind = kind;
  return opts;
}

// Run both engines over `opts.transport` and check them against the
// serial reference. Returns the T-Part run's transport stats.
TransportStats CheckTransportMatchesSerial(const Workload& w,
                                           LocalClusterOptions opts) {
  const auto [serial_results, serial_state] = SerialReference(w);

  LocalCluster cluster(&w, opts);
  const ClusterRunOutcome tpart = cluster.RunTPart();
  ExpectSameResults(serial_results, tpart.results);
  EXPECT_EQ(cluster.store().Snapshot(), serial_state)
      << "T-Part final state diverged from serial";
  EXPECT_EQ(tpart.committed + tpart.aborted, serial_results.size());

  const ClusterRunOutcome calvin = cluster.RunCalvin();
  ExpectSameResults(serial_results, calvin.results);
  EXPECT_EQ(cluster.store().Snapshot(), serial_state)
      << "Calvin final state diverged from serial";
  return tpart.transport;
}

// Records the req_id of every message each sink receives, and how many
// calls delivered them. A sink may run on several threads at once (a
// sender and the retry thread, or TCP reader threads), so it appends
// under a lock that reads take too.
class SinkLog {
 public:
  explicit SinkLog(std::size_t machines) : ids_(machines), calls_(machines) {}

  std::vector<Transport::DeliverFn> Sinks() {
    std::vector<Transport::DeliverFn> sinks;
    for (std::size_t m = 0; m < ids_.size(); ++m) {
      sinks.push_back([this, m](std::vector<Message>& msgs) {
        std::lock_guard<std::mutex> lock(mu_);
        ++calls_[m];
        for (const Message& msg : msgs) ids_[m].push_back(msg.req_id);
      });
    }
    return sinks;
  }

  std::vector<std::uint64_t> Ids(std::size_t m) const {
    std::lock_guard<std::mutex> lock(mu_);
    return ids_[m];
  }

  std::size_t Calls(std::size_t m) const {
    std::lock_guard<std::mutex> lock(mu_);
    return calls_[m];
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::vector<std::uint64_t>> ids_;
  std::vector<std::size_t> calls_;
};

void IgnoreAll(std::vector<Message>&) {}

Message Push(std::uint64_t id) {
  Message msg;
  msg.type = Message::Type::kPushVersion;
  msg.key = id;
  msg.req_id = id;
  return msg;
}

TEST(TransportTest, SerializedInProcessMatchesSerial) {
  const Workload w = MakeMicroWorkload(SmallMicro());
  const TransportStats stats =
      CheckTransportMatchesSerial(w, OptsFor(TransportKind::kInProcess));
  // The wire path really ran: messages were serialized into packets.
  EXPECT_GT(stats.messages_sent, 0u);
  EXPECT_GT(stats.packets_out, 0u);
  EXPECT_GT(stats.bytes_out, 0u);
  EXPECT_EQ(stats.messages_delivered, stats.messages_sent);
}

TEST(TransportTest, TcpLoopbackMatchesSerial) {
  const Workload w = MakeMicroWorkload(SmallMicro());
  const TransportStats stats =
      CheckTransportMatchesSerial(w, OptsFor(TransportKind::kTcp));
  EXPECT_GT(stats.packets_out, 0u);
  EXPECT_EQ(stats.messages_delivered, stats.messages_sent);
}

TEST(TransportTest, TcpTpccWithAbortsMatchesSerial) {
  TpccOptions o;
  o.num_machines = 3;
  o.warehouses_per_machine = 1;
  o.customers_per_district = 20;
  o.num_items = 100;
  o.num_txns = 300;
  o.abort_prob = 0.05;
  CheckTransportMatchesSerial(MakeTpccWorkload(o),
                              OptsFor(TransportKind::kTcp));
}

TEST(TransportTest, AllTransportsByteIdenticalOutcomes) {
  // Direct, serialized in-process, and TCP must agree result-for-result
  // and byte-for-byte on final state.
  const Workload w = MakeMicroWorkload(SmallMicro());

  LocalCluster direct(&w, OptsFor(TransportKind::kDirect));
  const ClusterRunOutcome ref = direct.RunTPart();
  const auto ref_state = direct.store().Snapshot();

  for (TransportKind kind :
       {TransportKind::kInProcess, TransportKind::kTcp}) {
    LocalCluster cluster(&w, OptsFor(kind));
    const ClusterRunOutcome got = cluster.RunTPart();
    ExpectSameResults(ref.results, got.results);
    EXPECT_EQ(cluster.store().Snapshot(), ref_state)
        << "transport kind " << static_cast<int>(kind);
  }
}

TEST(TransportTest, FaultyInProcessCommitsEverything) {
  const Workload w = MakeMicroWorkload(SmallMicro());
  LocalClusterOptions opts = OptsFor(TransportKind::kInProcess);
  opts.transport.faults.seed = 0xBADBEE;
  opts.transport.faults.drop_prob = 0.05;
  opts.transport.faults.duplicate_prob = 0.05;
  opts.transport.faults.delay_prob = 0.10;
  opts.transport.faults.max_delay_us = 1500;
  opts.transport.retry_timeout_us = 1000;

  const TransportStats stats = CheckTransportMatchesSerial(w, opts);
  // The faults really fired and the reliability layer really worked.
  EXPECT_GT(stats.faults_dropped, 0u);
  EXPECT_GT(stats.faults_duplicated, 0u);
  EXPECT_GT(stats.faults_delayed, 0u);
  EXPECT_GT(stats.retries, 0u);
  EXPECT_GT(stats.duplicates_dropped, 0u);
  EXPECT_EQ(stats.messages_delivered, stats.messages_sent);
}

TEST(TransportTest, BatchedFramingByteIdenticalUnderFaults) {
  // The batched-round-frame property: executors hand the transport one
  // coalesced per-destination batch frame per publish phase, and under a
  // seeded fault schedule (whose resend unit is then the whole frame)
  // both engines still match the serial reference result for result and
  // byte for byte — batching only changes wire framing, never outcomes.
  const Workload w = MakeMicroWorkload(SmallMicro());
  LocalClusterOptions opts = OptsFor(TransportKind::kInProcess);
  opts.transport.faults.seed = 0xFA57;
  opts.transport.faults.drop_prob = 0.04;
  opts.transport.faults.duplicate_prob = 0.04;
  opts.transport.faults.delay_prob = 0.08;
  opts.transport.faults.max_delay_us = 1200;
  opts.transport.retry_timeout_us = 1000;

  const TransportStats got = CheckTransportMatchesSerial(w, opts);
  // Batching really happened: multi-message frames went out, each
  // carrying at least two messages.
  EXPECT_GT(got.batches_sent, 0u);
  EXPECT_GE(got.batched_messages, 2 * got.batches_sent);
  EXPECT_EQ(got.messages_delivered, got.messages_sent);
}

TEST(TransportTest, FaultyTcpCommitsEverything) {
  const Workload w = MakeMicroWorkload(SmallMicro());
  LocalClusterOptions opts = OptsFor(TransportKind::kTcp);
  opts.transport.faults.seed = 0x7C9;
  opts.transport.faults.drop_prob = 0.03;
  opts.transport.faults.duplicate_prob = 0.03;
  opts.transport.faults.delay_prob = 0.05;
  opts.transport.retry_timeout_us = 1000;

  const TransportStats stats = CheckTransportMatchesSerial(w, opts);
  EXPECT_GT(stats.faults_dropped, 0u);
  EXPECT_GT(stats.retries, 0u);
}

TEST(TransportTest, FaultsUpgradeDirectToSerialized) {
  // kDirect cannot inject packet faults; MakeTransport upgrades it.
  TransportOptions options;
  options.kind = TransportKind::kDirect;
  options.faults.drop_prob = 0.1;
  auto transport = MakeTransport(options);
  SinkLog log(2);
  transport->Start(log.Sinks());
  for (int i = 0; i < 50; ++i) transport->Send(0, 1, Push(1));
  ASSERT_TRUE(transport->Flush().ok());
  EXPECT_EQ(log.Ids(1).size(), 50u);
  const TransportStats stats = transport->stats();
  EXPECT_GT(stats.packets_out, 0u);  // serialized, not direct
  EXPECT_GT(stats.faults_dropped, 0u);
  transport->Stop();
}

TEST(TransportTest, LosslessInProcessSendReturnsDeliveredAndAcked) {
  // The in-process network delivers on the sending thread and the
  // receiver acks on the spot, so a send returns with its messages in the
  // sink and its packet acked: nothing is left for a flush or a retry.
  // The long retry timeout keeps the retry thread out of the picture.
  TransportOptions options;
  options.kind = TransportKind::kInProcess;
  options.retry_timeout_us = 200'000;
  auto transport = MakeTransport(options);
  SinkLog log(3);
  transport->Start(log.Sinks());

  transport->Send(0, 1, Push(1));
  EXPECT_EQ(log.Ids(1), (std::vector<std::uint64_t>{1}));
  TransportStats stats = transport->stats();
  EXPECT_EQ(stats.acks_sent, 1u);
  EXPECT_EQ(stats.packets_out, 2u);  // one data packet, one ack
  EXPECT_EQ(transport->LinkDiagnostic(), "unacked_total=0");

  // Two messages per destination: one batch frame each.
  std::vector<std::pair<MachineId, Message>> batch;
  batch.emplace_back(1, Push(2));
  batch.emplace_back(2, Push(3));
  batch.emplace_back(1, Push(4));
  batch.emplace_back(2, Push(5));
  transport->SendBatch(0, batch);
  EXPECT_EQ(log.Ids(1), (std::vector<std::uint64_t>{1, 2, 4}));
  EXPECT_EQ(log.Ids(2), (std::vector<std::uint64_t>{3, 5}));
  stats = transport->stats();
  EXPECT_EQ(stats.batches_sent, 2u);
  EXPECT_EQ(stats.acks_sent, 3u);
  EXPECT_EQ(stats.packets_out, 6u);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(transport->LinkDiagnostic(), "unacked_total=0");
  transport->Stop();
}

TEST(TransportTest, DirectSendBatchCallsEachSinkOnceInSendOrder) {
  // Each destination's share of a burst reaches its sink in one call, in
  // the order it was sent, however the burst interleaves destinations;
  // each share of more than one message counts as a batch.
  auto transport = MakeTransport(TransportOptions{});
  SinkLog log(3);
  transport->Start(log.Sinks());
  std::vector<std::pair<MachineId, Message>> batch;
  batch.emplace_back(1, Push(1));
  batch.emplace_back(2, Push(2));
  batch.emplace_back(0, Push(3));
  batch.emplace_back(1, Push(4));
  batch.emplace_back(2, Push(5));
  batch.emplace_back(1, Push(6));
  batch.emplace_back(0, Push(7));
  transport->SendBatch(0, batch);
  EXPECT_EQ(log.Ids(0), (std::vector<std::uint64_t>{3, 7}));
  EXPECT_EQ(log.Ids(1), (std::vector<std::uint64_t>{1, 4, 6}));
  EXPECT_EQ(log.Ids(2), (std::vector<std::uint64_t>{2, 5}));
  for (std::size_t m = 0; m < 3; ++m) EXPECT_EQ(log.Calls(m), 1u) << m;
  TransportStats stats = transport->stats();
  EXPECT_EQ(stats.messages_sent, 7u);
  EXPECT_EQ(stats.messages_delivered, 7u);
  EXPECT_EQ(stats.batches_sent, 3u);
  EXPECT_EQ(stats.batched_messages, 7u);

  // A single send, and a burst's one-message share, are no batch.
  transport->Send(2, 1, Push(8));
  batch.clear();
  batch.emplace_back(2, Push(9));
  batch.emplace_back(0, Push(10));
  batch.emplace_back(0, Push(11));
  transport->SendBatch(1, batch);
  EXPECT_EQ(log.Ids(0), (std::vector<std::uint64_t>{3, 7, 10, 11}));
  EXPECT_EQ(log.Ids(1), (std::vector<std::uint64_t>{1, 4, 6, 8}));
  EXPECT_EQ(log.Ids(2), (std::vector<std::uint64_t>{2, 5, 9}));
  for (std::size_t m = 0; m < 3; ++m) EXPECT_EQ(log.Calls(m), 2u) << m;
  stats = transport->stats();
  EXPECT_EQ(stats.messages_sent, 11u);
  EXPECT_EQ(stats.batches_sent, 4u);
  EXPECT_EQ(stats.batched_messages, 9u);
  transport->Stop();
}

TEST(TransportTest, LosslessInProcessBatchReachesEachSinkInOneCall) {
  // A batch frame's messages reach the receiver's sink in one call, as
  // does a self-addressed share, which round-trips the batch codec.
  TransportOptions options;
  options.kind = TransportKind::kInProcess;
  options.retry_timeout_us = 200'000;
  auto transport = MakeTransport(options);
  SinkLog log(2);
  transport->Start(log.Sinks());
  std::vector<std::pair<MachineId, Message>> batch;
  batch.emplace_back(1, Push(1));
  batch.emplace_back(0, Push(2));
  batch.emplace_back(1, Push(3));
  batch.emplace_back(0, Push(4));
  batch.emplace_back(1, Push(5));
  transport->SendBatch(0, batch);
  EXPECT_EQ(log.Ids(1), (std::vector<std::uint64_t>{1, 3, 5}));
  EXPECT_EQ(log.Calls(1), 1u);
  EXPECT_EQ(log.Ids(0), (std::vector<std::uint64_t>{2, 4}));
  EXPECT_EQ(log.Calls(0), 1u);
  const TransportStats stats = transport->stats();
  EXPECT_EQ(stats.batches_sent, 2u);
  EXPECT_EQ(stats.batched_messages, 5u);
  transport->Stop();
}

TEST(TransportTest, TcpOpposingFloodsAckFromReaderThreadsIntoBusyWriters) {
  // Each reader thread acks through the writer queue of the connection
  // back, which the other flood keeps busy. Every message still arrives
  // exactly once, in order, and the flush completes.
  constexpr std::uint64_t kPerSide = 2000;
  TransportOptions options;
  options.kind = TransportKind::kTcp;
  auto transport = MakeTransport(options);
  SinkLog log(2);
  transport->Start(log.Sinks());
  const auto flood = [&](MachineId from, MachineId to) {
    for (std::uint64_t i = 0; i < kPerSide; ++i) {
      transport->Send(from, to, Push(i));
    }
  };
  std::thread forward(flood, 0, 1);
  std::thread backward(flood, 1, 0);
  forward.join();
  backward.join();
  const Status flushed = transport->Flush();
  EXPECT_TRUE(flushed.ok()) << flushed.ToString();
  std::vector<std::uint64_t> expected(kPerSide);
  for (std::uint64_t i = 0; i < kPerSide; ++i) expected[i] = i;
  EXPECT_EQ(log.Ids(0), expected);
  EXPECT_EQ(log.Ids(1), expected);
  EXPECT_EQ(transport->stats().messages_delivered, 2 * kPerSide);
  transport->Stop();
}

TEST(TransportTest, ThreadsStartedAreTheRetryThreadAndTheSocketEnds) {
  // Any runtime helper thread (a sanitizer's, say) that the first thread
  // start spawns lazily is up before the count.
  std::thread([] {}).join();
  constexpr std::size_t kMachines = 3;
  for (TransportKind kind : {TransportKind::kInProcess, TransportKind::kTcp}) {
    TransportOptions options;
    options.kind = kind;
    auto transport = MakeTransport(options);
    std::vector<Transport::DeliverFn> sinks(kMachines, IgnoreAll);
    const std::size_t before = test::SettledProcessThreads();
    transport->Start(std::move(sinks));
    const std::size_t started = test::SettledProcessThreads() - before;
    transport->Stop();
    // In-process: the retry thread alone. TCP: a writer and a reader per
    // ordered pair of machines, plus the retry thread.
    const std::size_t want = kind == TransportKind::kTcp
                                 ? 1 + 2 * kMachines * (kMachines - 1)
                                 : 1;
    EXPECT_EQ(started, want) << "transport kind " << static_cast<int>(kind);
  }
}

TEST(TransportTest, FlushOverASeveredLinkTimesOutNamingTheLink) {
  // A sever window that never heals: the packet is retried but never
  // acked, so Flush() gives up at its deadline and names the link
  // instead of hanging.
  TransportOptions options;
  options.kind = TransportKind::kInProcess;
  options.retry_timeout_us = 1000;
  PartitionEvent cut;
  cut.group_a = {0};
  cut.group_b = {1};
  options.faults.partition.partitions.push_back(cut);
  auto transport = MakeTransport(options);
  std::vector<Transport::DeliverFn> sinks(2, IgnoreAll);
  transport->Start(std::move(sinks));
  Message msg;
  msg.type = Message::Type::kPushVersion;
  msg.key = 1;
  transport->Send(0, 1, msg);
  const Status flushed = transport->Flush(std::chrono::milliseconds(50));
  EXPECT_EQ(flushed.code(), StatusCode::kUnavailable) << flushed.ToString();
  EXPECT_NE(flushed.message().find("link[0->1]"), std::string::npos)
      << flushed.message();
  // The age counts from the first send, not the latest retry: the packet
  // has been unacked for at least the 50 ms the flush waited.
  const std::string field = "oldest_unacked_us=";
  const std::size_t at = flushed.message().find(field);
  ASSERT_NE(at, std::string::npos) << flushed.message();
  EXPECT_GE(std::stoull(flushed.message().substr(at + field.size())),
            50'000u)
      << flushed.message();
  transport->Stop();
}

TEST(TransportTest, FlushWaitsOnlyForEarlierSendsWhileAnotherLinkKeepsSending) {
  // Half of all data and ack packets drop, so a link that keeps sending
  // always has packets waiting for a retry. Flush() must still return
  // once the packets sent before it are acked.
  TransportOptions options;
  options.kind = TransportKind::kInProcess;
  options.retry_timeout_us = 1000;
  options.faults.drop_prob = 0.5;
  auto transport = MakeTransport(options);
  std::vector<Transport::DeliverFn> sinks(3, IgnoreAll);
  transport->Start(std::move(sinks));
  Message msg;
  msg.type = Message::Type::kPushVersion;
  msg.key = 1;
  for (int i = 0; i < 20; ++i) transport->Send(0, 1, msg);
  std::atomic<bool> stop{false};
  std::thread live_sender([&] {
    while (!stop.load()) {
      transport->Send(2, 1, msg);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  const Status flushed =
      transport->Flush(std::chrono::microseconds(test::ScaledUs(2'000'000)));
  stop.store(true);
  live_sender.join();
  EXPECT_TRUE(flushed.ok()) << flushed.ToString();
  transport->Stop();
}

TEST(TransportTest, StatsSummaryMentionsTransport) {
  TransportStats stats;
  stats.messages_sent = 3;
  stats.retries = 1;
  const std::string s = stats.Summary();
  EXPECT_NE(s.find("msgs="), std::string::npos);
  EXPECT_NE(s.find("retries="), std::string::npos);
}

}  // namespace
}  // namespace tpart
