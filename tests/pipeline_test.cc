// Streaming-pipeline tests: RunTPart runs admission, scheduling,
// dissemination, and execution as concurrent bounded stages, with
// requests pulled incrementally and plans shipped as wire messages. The
// stream must produce byte-identical results and final state to the
// serial reference — on every transport, under fault injection, and with
// the stage queues squeezed to capacity 1.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "exec/serial_executor.h"
#include "runtime/cluster.h"
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
  // Not a multiple of the sequencer batch size, so the admission stage's
  // final Flush() really pads with dummies (§3.3).
  o.num_txns = 405;
  return o;
}

LocalClusterOptions StreamingOpts(TransportKind kind) {
  LocalClusterOptions opts;
  opts.scheduler.sink_size = 20;
  opts.transport.kind = kind;
  return opts;
}

// Runs the workload through the stream and checks results and final
// state against the serial reference.
ClusterRunOutcome CheckStreamingMatchesSerial(const Workload& w,
                                              LocalClusterOptions opts) {
  const auto [serial_results, serial_state] = SerialReference(w);
  LocalCluster stream(&w, opts);
  const ClusterRunOutcome stream_out = stream.RunTPart();
  ExpectSameResults(serial_results, stream_out.results);
  EXPECT_EQ(stream.store().Snapshot(), serial_state)
      << "streaming final state diverged from serial";
  return stream_out;
}

TEST(PipelineTest, StreamingMatchesSerialMicro) {
  const Workload w = MakeMicroWorkload(SmallMicro());
  const ClusterRunOutcome out =
      CheckStreamingMatchesSerial(w, StreamingOpts(TransportKind::kDirect));

  const PipelineStats& p = out.pipeline;
  EXPECT_EQ(p.admitted, w.requests.size());
  EXPECT_GT(p.dummies, 0u);  // 405 % 20 != 0, the tail was padded
  EXPECT_GT(p.batches, 0u);
  EXPECT_GT(p.plans, 0u);
  EXPECT_GT(p.admission_seconds, 0.0);
  EXPECT_GT(p.AdmissionRate(), 0.0);
  // Every real transaction's admission->result latency was closed out.
  EXPECT_EQ(p.admit_to_commit_us.count(), out.results.size());
}

TEST(PipelineTest, StreamingByteIdenticalOnEveryTransport) {
  const Workload w = MakeMicroWorkload(SmallMicro());

  LocalCluster ref(&w, StreamingOpts(TransportKind::kDirect));
  const ClusterRunOutcome ref_out = ref.RunTPart();
  const auto ref_state = ref.store().Snapshot();

  for (TransportKind kind :
       {TransportKind::kInProcess, TransportKind::kTcp}) {
    LocalCluster cluster(&w, StreamingOpts(kind));
    const ClusterRunOutcome got = cluster.RunTPart();
    ExpectSameResults(ref_out.results, got.results);
    EXPECT_EQ(cluster.store().Snapshot(), ref_state)
        << "transport kind " << static_cast<int>(kind);
    // Plans really crossed the wire: the serialized transports count the
    // kSinkPlan/kPlanStreamEnd traffic like any other message.
    EXPECT_GT(got.transport.messages_sent, 0u);
    EXPECT_GT(got.transport.bytes_out, 0u);
  }
}

TEST(PipelineTest, StreamingTpccWithAbortsOverTcp) {
  TpccOptions o;
  o.num_machines = 3;
  o.warehouses_per_machine = 1;
  o.customers_per_district = 20;
  o.num_items = 100;
  o.num_txns = 300;
  o.abort_prob = 0.05;
  const ClusterRunOutcome out = CheckStreamingMatchesSerial(
      MakeTpccWorkload(o), StreamingOpts(TransportKind::kTcp));
  EXPECT_GT(out.aborted, 0u);  // aborts actually exercised the §5.3 path
}

TEST(PipelineTest, StreamingSurvivesFaultyTransport) {
  const Workload w = MakeMicroWorkload(SmallMicro());
  LocalClusterOptions opts = StreamingOpts(TransportKind::kInProcess);
  opts.transport.faults.seed = 0xBADBEE;
  opts.transport.faults.drop_prob = 0.05;
  opts.transport.faults.duplicate_prob = 0.05;
  opts.transport.faults.delay_prob = 0.10;
  opts.transport.faults.max_delay_us = 1500;
  opts.transport.retry_timeout_us = 1000;

  const ClusterRunOutcome out = CheckStreamingMatchesSerial(w, opts);
  // Faults really hit the plan stream too (delays can reorder rounds;
  // the machine-side reorder buffer restores epoch order).
  EXPECT_GT(out.transport.faults_dropped, 0u);
  EXPECT_GT(out.transport.retries, 0u);
}

TEST(PipelineTest, TinyBoundsBackpressureAndStayBounded) {
  // Squeeze every stage to one in-flight unit. The run must still be
  // correct, the squeeze must actually have been felt (waits > 0), and
  // the high-water marks must prove memory never exceeded the caps —
  // i.e. the stream never materialized the workload or the plan list.
  const Workload w = MakeMicroWorkload(SmallMicro());
  LocalClusterOptions opts = StreamingOpts(TransportKind::kDirect);
  opts.pipeline.batch_queue_capacity = 1;
  opts.pipeline.plan_queue_capacity = 1;
  opts.pipeline.epoch_queue_capacity = 1;

  const ClusterRunOutcome out = CheckStreamingMatchesSerial(w, opts);
  const PipelineStats& p = out.pipeline;
  EXPECT_GT(p.backpressure_waits, 0u);
  EXPECT_LE(p.batch_queue_high_water, 1u);
  EXPECT_LE(p.plan_queue_high_water, 1u);
  EXPECT_LE(p.epoch_queue_high_water, 1u);
  EXPECT_GE(p.epoch_queue_high_water, 1u);
}

TEST(PipelineTest, DefaultOptionsRunTheStream) {
  // RunTPart has one driver: untouched options still go through
  // admission, the scheduler stage, and wire dissemination.
  const Workload w = MakeMicroWorkload(SmallMicro());
  const ClusterRunOutcome out =
      CheckStreamingMatchesSerial(w, LocalClusterOptions{});
  EXPECT_GT(out.pipeline.plans, 0u);
  EXPECT_EQ(out.pipeline.admit_to_commit_us.count(), out.results.size());
}

TEST(PipelineTest, StreamingIsDeterministicAcrossRuns) {
  const Workload w = MakeMicroWorkload(SmallMicro());
  LocalCluster cluster(&w, StreamingOpts(TransportKind::kInProcess));
  const ClusterRunOutcome first = cluster.RunTPart();
  const auto first_state = cluster.store().Snapshot();
  const ClusterRunOutcome second = cluster.RunTPart();
  ExpectSameResults(first.results, second.results);
  EXPECT_EQ(cluster.store().Snapshot(), first_state);
}

TEST(PipelineTest, EmptyWorkloadStreamsCleanly) {
  Workload w = MakeMicroWorkload(SmallMicro());
  w.requests.clear();
  LocalCluster cluster(&w, StreamingOpts(TransportKind::kInProcess));
  const ClusterRunOutcome out = cluster.RunTPart();
  EXPECT_TRUE(out.results.empty());
  EXPECT_EQ(out.pipeline.admitted, 0u);
  EXPECT_EQ(out.pipeline.plans, 0u);
}

TEST(PipelineTest, RequestSourceYieldsTraceInOrder) {
  const Workload w = MakeMicroWorkload(SmallMicro());
  auto source = w.MakeRequestSource();
  std::size_t n = 0;
  while (auto spec = source->Next()) {
    ASSERT_LT(n, w.requests.size());
    EXPECT_EQ(*spec, w.requests[n]);
    ++n;
  }
  EXPECT_EQ(n, w.requests.size());
  EXPECT_FALSE(source->Next().has_value());  // stays exhausted
}

TEST(PipelineTest, PipelineStatsSummaryMentionsStages) {
  PipelineStats p;
  p.admitted = 10;
  p.plans = 2;
  p.admission_seconds = 0.5;
  const std::string s = p.Summary();
  EXPECT_NE(s.find("admitted="), std::string::npos);
  EXPECT_NE(s.find("plans="), std::string::npos);
  EXPECT_NE(s.find("queue_hw"), std::string::npos);
}

}  // namespace
}  // namespace tpart
