// Periodic incremental checkpointing + log truncation tests: a streaming
// run with checkpoint_every set must capture per-machine checkpoints at
// quiescent epoch boundaries, truncate the §5.4 request/network logs and
// the cluster's resend window, and still finish byte-identical to the
// unchekpointed run on every transport. Log memory must plateau instead
// of growing with run length, and crash recovery on top of a mid-run
// checkpoint must replay only the suffix since the capture.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "net/resend_window.h"
#include "runtime/channel.h"
#include "runtime/cluster.h"
#include "runtime/machine_checkpoint.h"
#include "storage/kv_store.h"
#include "test_time.h"
#include "workload/micro.h"

namespace tpart {
namespace {

MicroOptions SmallMicro(std::uint64_t num_txns = 405) {
  MicroOptions o;
  o.num_machines = 3;
  o.records_per_machine = 200;
  o.hot_set_size = 25;
  o.num_txns = num_txns;
  return o;
}

LocalClusterOptions StreamingOpts(TransportKind kind) {
  LocalClusterOptions opts;
  opts.scheduler.sink_size = 20;
  opts.transport.kind = kind;
  return opts;
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

// ---------------------------------------------------------------------
// Unit: the prunable resend window.
// ---------------------------------------------------------------------

TEST(CheckpointTest, ResendWindowPrunesAndReplaysInOrder) {
  ResendWindow window;
  EXPECT_TRUE(window.empty());
  EXPECT_EQ(window.front_epoch(), 0u);
  // Ten rounds, each kept as one slice per machine (the key tags which).
  for (SinkEpoch e = 1; e <= 10; ++e) {
    for (MachineId m = 0; m < 3; ++m) {
      Message slice;
      slice.type = Message::Type::kSinkPlan;
      slice.epoch = e;
      slice.key = m;
      window.Append(m, std::move(slice));
    }
  }
  EXPECT_EQ(window.size(), 10u);
  EXPECT_EQ(window.front_epoch(), 1u);
  EXPECT_GT(window.bytes(), 0u);
  const std::size_t bytes_full = window.bytes();
  EXPECT_EQ(window.bytes_peak(), bytes_full);

  EXPECT_EQ(window.PruneThrough(4), 4u);
  EXPECT_EQ(window.size(), 6u);
  EXPECT_EQ(window.front_epoch(), 5u);
  EXPECT_EQ(window.pruned_rounds(), 4u);
  EXPECT_LT(window.bytes(), bytes_full);
  EXPECT_EQ(window.bytes_peak(), bytes_full);  // peak survives pruning

  // A re-ship replays only the destination's own slices, one per round.
  std::vector<SinkEpoch> replayed;
  const std::size_t n = window.ForEachFrom(7, 1, [&](const Message& m) {
    EXPECT_EQ(m.key, 1u);
    replayed.push_back(m.epoch);
  });
  EXPECT_EQ(n, 4u);
  EXPECT_EQ(replayed, (std::vector<SinkEpoch>{7, 8, 9, 10}));

  // Pruning everything empties the window; front_epoch reports 0.
  EXPECT_EQ(window.PruneThrough(100), 6u);
  EXPECT_TRUE(window.empty());
  EXPECT_EQ(window.size(), 0u);
  EXPECT_EQ(window.front_epoch(), 0u);
  EXPECT_EQ(window.bytes(), 0u);
}

// ---------------------------------------------------------------------
// Unit: incremental refresh of a checkpoint's record image.
// ---------------------------------------------------------------------

TEST(CheckpointTest, FoldRecordsFoldsUpsertsAndDeletes) {
  KvStore source;
  source.Upsert(1, Record{10});
  source.Upsert(2, Record{20});
  source.Upsert(3, Record{30});

  MachineCheckpoint image;
  source.Scan(0, 100, [&](ObjectKey k, const Record& v) {
    image.records.emplace(k, v);
  });

  // Mutate the source: overwrite, insert, delete.
  source.Upsert(2, Record{21});
  source.Upsert(4, Record{40});
  (void)source.Delete(3);

  // Refreshing only the dirty keys makes the image equal the source.
  EXPECT_EQ(image.FoldRecords(source, {2, 3, 4}), 3u);
  std::vector<std::pair<ObjectKey, Record>> from_image;
  for (const auto& entry : image.records) from_image.push_back(entry);
  std::vector<std::pair<ObjectKey, Record>> from_source;
  source.Scan(0, 100, [&](ObjectKey k, const Record& v) {
    from_source.emplace_back(k, v);
  });
  std::sort(from_image.begin(), from_image.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::sort(from_source.begin(), from_source.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  EXPECT_EQ(from_image, from_source);
}

// ---------------------------------------------------------------------
// Integration: checkpointed runs stay byte-identical and truncate logs.
// ---------------------------------------------------------------------

TEST(CheckpointTest, CheckpointedRunMatchesBaselineOnEveryTransport) {
  const Workload w = MakeMicroWorkload(SmallMicro());
  const RunSnapshot ref = RunOnce(w, StreamingOpts(TransportKind::kDirect));

  for (TransportKind kind : {TransportKind::kDirect,
                             TransportKind::kInProcess,
                             TransportKind::kTcp}) {
    LocalClusterOptions opts = StreamingOpts(kind);
    opts.checkpoint_every = 5;
    const RunSnapshot got = RunOnce(w, opts);
    const std::string label = "transport " +
                              std::to_string(static_cast<int>(kind));
    EXPECT_TRUE(got.out.fault.ok()) << label << ": "
                                    << got.out.fault.ToString();
    ExpectSameResults(ref.out.results, got.out.results);
    EXPECT_EQ(got.state, ref.state) << label;
    // Every machine captured at the cadence and truncated its logs.
    EXPECT_GE(got.out.checkpoint.checkpoints_taken, 3u) << label;
    EXPECT_GE(got.out.checkpoint.last_epoch, 5u) << label;
    EXPECT_GT(got.out.checkpoint.records_captured, 0u) << label;
    EXPECT_GT(got.out.checkpoint.truncated_request_entries, 0u) << label;
    EXPECT_GT(got.out.checkpoint.truncated_network_messages, 0u) << label;
  }
}

TEST(CheckpointTest, CheckpointedRunUnderNetworkFaultsMatchesBaseline) {
  const Workload w = MakeMicroWorkload(SmallMicro());
  const RunSnapshot ref = RunOnce(w, StreamingOpts(TransportKind::kDirect));

  LocalClusterOptions opts = StreamingOpts(TransportKind::kInProcess);
  opts.checkpoint_every = 5;
  opts.transport.faults.seed = 0xC0FFEE;
  opts.transport.faults.drop_prob = 0.05;
  opts.transport.faults.duplicate_prob = 0.05;
  opts.transport.faults.delay_prob = 0.10;
  opts.transport.faults.max_delay_us = 1500;
  opts.transport.retry_timeout_us = 1000;
  const RunSnapshot got = RunOnce(w, opts);
  EXPECT_TRUE(got.out.fault.ok()) << got.out.fault.ToString();
  ExpectSameResults(ref.out.results, got.out.results);
  EXPECT_EQ(got.state, ref.state);
  EXPECT_GE(got.out.checkpoint.checkpoints_taken, 3u);
}

TEST(CheckpointTest, LogFootprintPlateausWithCheckpointing) {
  // Same workload at 1x and 4x the run length. Unchekpointed, the §5.4
  // log footprint grows with run length; with a checkpoint cadence the
  // peak plateaus (bounded by the cadence, not the run).
  const Workload w1 = MakeMicroWorkload(SmallMicro(405));
  const Workload w4 = MakeMicroWorkload(SmallMicro(1620));

  auto peak_bytes = [](const Workload& w, SinkEpoch every) {
    LocalClusterOptions opts;
    opts.scheduler.sink_size = 20;
    opts.checkpoint_every = every;
    LocalCluster cluster(&w, opts);
    const ClusterRunOutcome out = cluster.RunTPart();
    EXPECT_TRUE(out.fault.ok()) << out.fault.ToString();
    return out.checkpoint.request_log_bytes_peak +
           out.checkpoint.network_log_bytes_peak;
  };

  const std::uint64_t plain_1x = peak_bytes(w1, 0);
  const std::uint64_t plain_4x = peak_bytes(w4, 0);
  const std::uint64_t ck_1x = peak_bytes(w1, 4);
  const std::uint64_t ck_4x = peak_bytes(w4, 4);
  ASSERT_GT(plain_1x, 0u);
  ASSERT_GT(ck_1x, 0u);
  // Without checkpointing the footprint scales with the run (~4x).
  EXPECT_GT(plain_4x, 2 * plain_1x);
  // With it, 4x the run costs well under 2x the peak: a plateau.
  EXPECT_LT(ck_4x, 2 * ck_1x);
  // And checkpointing strictly beats the unchekpointed footprint at 4x.
  EXPECT_LT(ck_4x, plain_4x);
}

TEST(CheckpointTest, CaptureWorkPlateausWithRunLength) {
  // Same workload at 1x and 4x the run length, on a key space so large
  // that most keys are touched once: the set of keys with storage state
  // grows with the run. A capture folds only the keys changed since the
  // previous one, so the state entries folded per capture stay flat
  // instead of tracking every key the run has touched.
  auto micro = [](std::uint64_t num_txns) {
    MicroOptions o = SmallMicro(num_txns);
    o.records_per_machine = 20'000;
    return MakeMicroWorkload(o);
  };
  const Workload w1 = micro(405);
  const Workload w4 = micro(1620);

  auto keys_per_capture = [](const Workload& w) {
    LocalClusterOptions opts;
    opts.scheduler.sink_size = 20;
    opts.checkpoint_every = 4;
    LocalCluster cluster(&w, opts);
    const ClusterRunOutcome out = cluster.RunTPart();
    EXPECT_TRUE(out.fault.ok()) << out.fault.ToString();
    EXPECT_GT(out.checkpoint.checkpoints_taken, 0u);
    EXPECT_GT(out.checkpoint.state_keys_captured, 0u);
    return static_cast<double>(out.checkpoint.state_keys_captured) /
           static_cast<double>(
               std::max<std::uint64_t>(1, out.checkpoint.checkpoints_taken));
  };

  const double per_capture_1x = keys_per_capture(w1);
  const double per_capture_4x = keys_per_capture(w4);
  ASSERT_GT(per_capture_1x, 0.0);
  EXPECT_LT(per_capture_4x, 2 * per_capture_1x)
      << "1x: " << per_capture_1x << " keys/capture, 4x: " << per_capture_4x;
}

TEST(CheckpointTest, ResendWindowPrunedDuringCheckpointedRun) {
  const Workload w = MakeMicroWorkload(SmallMicro());
  LocalClusterOptions opts = StreamingOpts(TransportKind::kDirect);
  opts.checkpoint_every = 4;
  const RunSnapshot got = RunOnce(w, opts);
  EXPECT_TRUE(got.out.fault.ok()) << got.out.fault.ToString();
  EXPECT_GT(got.out.checkpoint.pruned_resend_rounds, 0u);
  EXPECT_GT(got.out.checkpoint.resend_window_bytes_peak, 0u);
}

// ---------------------------------------------------------------------
// Integration: crash recovery on top of a mid-run checkpoint replays
// only the suffix since the capture.
// ---------------------------------------------------------------------

TEST(CheckpointTest, CrashWithCheckpointReplaysOnlySuffix) {
  const Workload w = MakeMicroWorkload(SmallMicro());
  const RunSnapshot ref = RunOnce(w, StreamingOpts(TransportKind::kDirect));

  auto crash_opts = [&](SinkEpoch every) {
    LocalClusterOptions opts = StreamingOpts(TransportKind::kDirect);
    // Late crash: a long prefix to not replay.
    opts.crash.events.push_back({1, 12});
    opts.detector.heartbeat_interval_us = test::ScaledUs(2000);
    opts.detector.deadline_us = test::ScaledUs(100000);
    opts.checkpoint_every = every;
    return opts;
  };

  const RunSnapshot full = RunOnce(w, crash_opts(0));
  const RunSnapshot incr = RunOnce(w, crash_opts(4));
  for (const RunSnapshot* got : {&full, &incr}) {
    EXPECT_TRUE(got->out.fault.ok()) << got->out.fault.ToString();
    EXPECT_EQ(got->out.recovery.crashes_injected, 1u);
    ExpectSameResults(ref.out.results, got->out.results);
    EXPECT_EQ(got->state, ref.state);
  }
  // The checkpointed run replays only the post-capture suffix.
  EXPECT_GT(full.out.recovery.replayed_txns, 0u);
  EXPECT_LT(incr.out.recovery.replayed_txns,
            full.out.recovery.replayed_txns);
  EXPECT_GE(incr.out.checkpoint.checkpoints_taken, 1u);
}

TEST(CheckpointTest, CheckpointedCrashRunIsDeterministic) {
  const Workload w = MakeMicroWorkload(SmallMicro());
  LocalClusterOptions opts = StreamingOpts(TransportKind::kInProcess);
  opts.crash.events.push_back({2, 9});
  opts.detector.heartbeat_interval_us = test::ScaledUs(2000);
  opts.detector.deadline_us = test::ScaledUs(100000);
  opts.checkpoint_every = 3;
  const RunSnapshot first = RunOnce(w, opts);
  const RunSnapshot second = RunOnce(w, opts);
  ExpectSameResults(first.out.results, second.out.results);
  EXPECT_EQ(first.state, second.state);
  EXPECT_EQ(first.out.recovery.replayed_txns,
            second.out.recovery.replayed_txns);
}

TEST(CheckpointTest, CheckpointStatsSummaryNamesTheCounters) {
  CheckpointStats stats;
  stats.checkpoints_taken = 6;
  stats.last_epoch = 20;
  stats.records_captured = 123;
  stats.state_keys_captured = 77;
  stats.truncated_request_entries = 300;
  stats.truncated_network_messages = 450;
  stats.pruned_resend_rounds = 15;
  stats.request_log_bytes_peak = 1111;
  const std::string s = stats.Summary();
  EXPECT_NE(s.find("checkpoints=6"), std::string::npos) << s;
  EXPECT_NE(s.find("last_epoch=20"), std::string::npos) << s;
  EXPECT_NE(s.find("state_keys=77"), std::string::npos) << s;
  EXPECT_NE(s.find("truncated(req/net)=300/450"), std::string::npos) << s;
  EXPECT_NE(s.find("pruned_rounds=15"), std::string::npos) << s;
}

}  // namespace
}  // namespace tpart
