#include "metrics/run_stats.h"

#include <gtest/gtest.h>

#include <string>

#include "common/stats.h"
#include "obs/metrics.h"

namespace tpart {
namespace {

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// ---------------------------------------------------------------------
// TransportStats::MergeFrom: counters sum, high-water marks max.
// ---------------------------------------------------------------------

TEST(TransportStatsTest, MergeFromSumsCounters) {
  TransportStats a;
  a.messages_sent = 10;
  a.messages_delivered = 9;
  a.bytes_out = 1000;
  a.bytes_in = 900;
  a.packets_out = 20;
  a.packets_in = 18;
  a.acks_sent = 18;
  a.retries = 2;
  a.duplicates_dropped = 1;
  a.faults_dropped = 3;
  a.faults_duplicated = 4;
  a.faults_delayed = 5;
  a.backpressure_waits = 6;

  TransportStats b = a;
  a.MergeFrom(b);
  EXPECT_EQ(a.messages_sent, 20u);
  EXPECT_EQ(a.messages_delivered, 18u);
  EXPECT_EQ(a.bytes_out, 2000u);
  EXPECT_EQ(a.bytes_in, 1800u);
  EXPECT_EQ(a.packets_out, 40u);
  EXPECT_EQ(a.packets_in, 36u);
  EXPECT_EQ(a.acks_sent, 36u);
  EXPECT_EQ(a.retries, 4u);
  EXPECT_EQ(a.duplicates_dropped, 2u);
  EXPECT_EQ(a.faults_dropped, 6u);
  EXPECT_EQ(a.faults_duplicated, 8u);
  EXPECT_EQ(a.faults_delayed, 10u);
  EXPECT_EQ(a.backpressure_waits, 12u);
}

TEST(TransportStatsTest, MergeFromTakesMaxOfHighWaterNotSum) {
  TransportStats a;
  a.queue_high_water = 7;
  TransportStats b;
  b.queue_high_water = 12;
  a.MergeFrom(b);
  EXPECT_EQ(a.queue_high_water, 12u);  // max, not 19

  TransportStats c;
  c.queue_high_water = 3;
  a.MergeFrom(c);
  EXPECT_EQ(a.queue_high_water, 12u);  // smaller mark never lowers it
}

TEST(TransportStatsTest, MergeFromZeroIsIdentity) {
  TransportStats a;
  a.messages_sent = 5;
  a.queue_high_water = 4;
  const TransportStats before = a;
  a.MergeFrom(TransportStats{});
  EXPECT_EQ(a.messages_sent, before.messages_sent);
  EXPECT_EQ(a.queue_high_water, before.queue_high_water);
}

TEST(TransportStatsTest, SummaryShowsFaultsOnlyWhenInjected) {
  TransportStats s;
  s.messages_sent = 3;
  s.queue_high_water = 9;
  EXPECT_FALSE(Contains(s.Summary(), "faults"));
  EXPECT_TRUE(Contains(s.Summary(), "queue_hw=9"));
  s.faults_dropped = 1;
  EXPECT_TRUE(Contains(s.Summary(), "faults"));
}

// ---------------------------------------------------------------------
// RunningStat / Histogram merge paths.
// ---------------------------------------------------------------------

TEST(RunningStatTest, MergeMatchesSingleStream) {
  RunningStat left, right, whole;
  for (int i = 1; i <= 10; ++i) {
    (i <= 5 ? left : right).Add(i);
    whole.Add(i);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_DOUBLE_EQ(left.mean(), whole.mean());
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
  EXPECT_DOUBLE_EQ(left.sum(), whole.sum());
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
}

TEST(HistogramTest, MergeMatchesSingleStream) {
  Histogram left, right, whole;
  for (std::uint64_t v : {0u, 1u, 3u, 10u, 100u, 5000u, 70000u}) {
    left.Add(v);
    whole.Add(v);
  }
  for (std::uint64_t v : {2u, 8u, 900u, 1u << 20}) {
    right.Add(v);
    whole.Add(v);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_DOUBLE_EQ(left.sum(), whole.sum());
  EXPECT_EQ(left.max_value(), whole.max_value());
  EXPECT_EQ(left.Quantile(0.5), whole.Quantile(0.5));
  EXPECT_EQ(left.Quantile(0.99), whole.Quantile(0.99));
  for (int i = 0; i < Histogram::num_buckets(); ++i) {
    EXPECT_EQ(left.bucket_count(i), whole.bucket_count(i)) << "bucket " << i;
  }
}

// ---------------------------------------------------------------------
// Summaries: the run's core counters, and each stats struct on its own.
// ---------------------------------------------------------------------

TEST(RunStatsTest, SummaryGatesNestedSections) {
  RunStats stats;
  stats.txns = 100;
  stats.committed = 100;
  EXPECT_TRUE(Contains(stats.Summary(), "txns=100"));

  TransportStats transport;
  transport.messages_sent = 1;
  EXPECT_TRUE(Contains(transport.Summary(), "msgs=1/0"));
  PipelineStats pipeline;
  pipeline.admitted = 1;
  EXPECT_TRUE(Contains(pipeline.Summary(), "admitted=1"));
  // The recovery section's crash details appear only once a crash did.
  RecoveryStats recovery;
  EXPECT_FALSE(Contains(recovery.Summary(), "replayed="));
  recovery.crashes_injected = 1;
  EXPECT_TRUE(Contains(recovery.Summary(), "replayed=0"));
}

TEST(RecoveryStatsTest, SummaryIsShortWithoutCrashes) {
  RecoveryStats r;
  EXPECT_EQ(r.Summary(), "crashes=0");
  r.crashes_injected = 1;
  r.crashed_machine = 2;
  r.replayed_txns = 40;
  EXPECT_TRUE(Contains(r.Summary(), "machine=2"));
  EXPECT_TRUE(Contains(r.Summary(), "replayed=40"));
}

TEST(PipelineStatsTest, AdmissionRateGuardsZeroSeconds) {
  PipelineStats p;
  p.admitted = 100;
  EXPECT_DOUBLE_EQ(p.AdmissionRate(), 0.0);
  p.admission_seconds = 2.0;
  EXPECT_DOUBLE_EQ(p.AdmissionRate(), 50.0);
}

// ---------------------------------------------------------------------
// MetricsRegistry semantics and exporters.
// ---------------------------------------------------------------------

TEST(MetricsRegistryTest, SetReplacesAddAccumulates) {
  obs::MetricsRegistry reg;
  reg.SetCounter("x_total", 5);
  reg.SetCounter("x_total", 7);
  EXPECT_DOUBLE_EQ(reg.Value("x_total"), 7.0);
  reg.AddCounter("y_total", 2);
  reg.AddCounter("y_total", 3);
  EXPECT_DOUBLE_EQ(reg.Value("y_total"), 5.0);
  EXPECT_DOUBLE_EQ(reg.Value("absent"), 0.0);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(MetricsRegistryTest, PrometheusTextHasHelpTypeAndHistogram) {
  obs::MetricsRegistry reg;
  reg.SetCounter("demo_total", 3, "A demo counter");
  reg.SetGauge("demo_gauge", 1.5, "A demo gauge");
  Histogram h;
  h.Add(1);
  h.Add(100);
  reg.ObserveHistogram("demo_us", h, "A demo histogram");

  const std::string text = reg.PrometheusText();
  EXPECT_TRUE(Contains(text, "# HELP demo_total A demo counter"));
  EXPECT_TRUE(Contains(text, "# TYPE demo_total counter"));
  EXPECT_TRUE(Contains(text, "demo_total 3"));
  EXPECT_TRUE(Contains(text, "# TYPE demo_gauge gauge"));
  EXPECT_TRUE(Contains(text, "# TYPE demo_us histogram"));
  EXPECT_TRUE(Contains(text, "demo_us_bucket{le=\"+Inf\"} 2"));
  EXPECT_TRUE(Contains(text, "demo_us_count 2"));
  EXPECT_TRUE(Contains(text, "demo_us_sum 101"));
}

TEST(MetricsRegistryTest, JsonExportsHistogramSummary) {
  obs::MetricsRegistry reg;
  reg.SetCounter("a_total", 2);
  Histogram h;
  h.Add(10);
  reg.ObserveHistogram("lat_us", h);
  const std::string json = reg.Json();
  EXPECT_TRUE(Contains(json, "\"a_total\": 2"));
  EXPECT_TRUE(Contains(json, "\"lat_us\": {\"count\": 1"));
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '\n');
}

TEST(MetricsRegistryTest, ObserveHistogramMergesUnderOneName) {
  obs::MetricsRegistry reg;
  Histogram a, b;
  a.Add(1);
  b.Add(2);
  b.Add(3);
  reg.ObserveHistogram("m_us", a);
  reg.ObserveHistogram("m_us", b);
  EXPECT_TRUE(Contains(reg.PrometheusText(), "m_us_count 3"));
  EXPECT_EQ(reg.size(), 1u);
}

// ---------------------------------------------------------------------
// PublishTo: stats structs land in the registry with gated sections.
// ---------------------------------------------------------------------

TEST(PublishToTest, RunStatsPublishesCoreAndGatesNested) {
  RunStats stats;
  stats.txns = 50;
  stats.committed = 48;
  stats.aborted = 2;
  stats.makespan = 1'000'000'000;  // 1 simulated second
  stats.latency_us.Add(100);

  obs::MetricsRegistry reg;
  stats.PublishTo(reg);
  EXPECT_DOUBLE_EQ(reg.Value("tpart_txns_total"), 50.0);
  EXPECT_DOUBLE_EQ(reg.Value("tpart_committed_total"), 48.0);
  EXPECT_DOUBLE_EQ(reg.Value("tpart_aborted_total"), 2.0);
  EXPECT_DOUBLE_EQ(reg.Value("tpart_throughput_tps"), 48.0);
  // No transport/pipeline/recovery activity => no series for them.
  const std::string text = reg.PrometheusText();
  EXPECT_FALSE(Contains(text, "tpart_transport_"));
  EXPECT_FALSE(Contains(text, "tpart_pipeline_"));
  EXPECT_FALSE(Contains(text, "tpart_recovery_"));
  EXPECT_TRUE(Contains(text, "tpart_latency_us_bucket"));
}

TEST(PublishToTest, NestedStatsPublishWhenPopulated) {
  TransportStats transport;
  transport.messages_sent = 7;
  transport.queue_high_water = 4;
  PipelineStats pipeline;
  pipeline.admitted = 9;
  pipeline.admission_seconds = 3.0;
  RecoveryStats recovery;
  recovery.crashes_injected = 1;
  recovery.replayed_txns = 11;

  obs::MetricsRegistry reg;
  transport.PublishTo(reg);
  pipeline.PublishTo(reg);
  recovery.PublishTo(reg);
  EXPECT_DOUBLE_EQ(reg.Value("tpart_transport_messages_sent_total"), 7.0);
  EXPECT_DOUBLE_EQ(reg.Value("tpart_transport_queue_peak_depth"), 4.0);
  EXPECT_DOUBLE_EQ(reg.Value("tpart_pipeline_admitted_total"), 9.0);
  EXPECT_DOUBLE_EQ(reg.Value("tpart_pipeline_admission_rate_tps"), 3.0);
  EXPECT_DOUBLE_EQ(reg.Value("tpart_recovery_crashes_injected_total"), 1.0);
  EXPECT_DOUBLE_EQ(reg.Value("tpart_recovery_replayed_txns_total"), 11.0);
}

TEST(PublishToTest, RecoveryWithoutCrashesPublishesDetectorActivity) {
  RecoveryStats r;
  r.suspicions_suppressed = 2;
  r.peak_healthy_phi = 3.5;
  obs::MetricsRegistry reg;
  r.PublishTo(reg);
  // The explicit "no crashes happened" counter and the adaptive
  // detector's activity gauges are published unconditionally (a run with
  // zero crashes still exercises the phi gate); the detection / replay /
  // downtime series stay gated on a crash occurring.
  EXPECT_EQ(reg.size(), 3u);
  EXPECT_DOUBLE_EQ(reg.Value("tpart_recovery_crashes_injected_total"), 0.0);
  EXPECT_DOUBLE_EQ(reg.Value("tpart_fd_suspicions_suppressed_total"), 2.0);
  EXPECT_DOUBLE_EQ(reg.Value("tpart_fd_peak_healthy_phi_ratio"), 3.5);
  EXPECT_FALSE(Contains(reg.PrometheusText(), "tpart_recovery_downtime_us"));
}

}  // namespace
}  // namespace tpart
