// Traced runner: the per-layer view of one workload.
//
//  1. Replays the identical generated requests through each layer's
//     public functions on one thread — Sequencer, TPartScheduler,
//     EncodeSinkPlan/DecodeSinkPlan, KvStore, CacheArea and RunSerial —
//     recording a span (name, start, end, parent, txn id) around every
//     call. Spans stay in memory and are written out (Chrome trace JSON)
//     when the run ends.
//  2. Runs the cluster a few times with no probes (the traced run's own
//     timed median), once under the outside probes — counting allocator,
//     /proc thread sampler — and once each pinned to 1 and 2 cores.
//  3. Reports the probed run's tps against the timed median as the
//     tracing overhead, and checks that the replayed scheduler produced
//     exactly as many sink plans as every cluster run disseminated.
//
//   perfbench_traced --workload=micro|tpcc|micro_ft --seed=N --seconds=S
//                    [--txns=N] [--spans-out=path.json]
//
// --seconds is accepted so both runners share one command line; the
// traced run's length is set by its fixed number of cluster runs.

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "cache/cache_area.h"
#include "counting_alloc.h"
#include "harness.h"
#include "net/wire.h"
#include "scheduler/tpart_scheduler.h"
#include "sequencer/sequencer.h"

namespace perfbench {
namespace {

using tpart::ObjectKey;
using tpart::Record;
using tpart::SinkPlan;
using tpart::TxnSpec;

/// In-memory span recorder. Spans nest: a span opened while another is
/// open names it as parent.
class SpanLog {
 public:
  struct Span {
    const char* name;  // string literal
    std::int64_t parent;
    std::uint64_t id;  // txn id (sink epoch for per-round calls), 0 = none
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  std::size_t Open(const char* name, std::uint64_t id) {
    spans_.push_back(Span{name, open_.empty() ? -1 : open_.back(), id,
                          NowNs(), 0});
    open_.push_back(static_cast<std::int64_t>(spans_.size() - 1));
    return spans_.size() - 1;
  }

  /// Closes span `i` (the innermost open one) and returns its length, µs.
  double Close(std::size_t i) {
    spans_[i].end_ns = NowNs();
    open_.pop_back();
    return static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) / 1e3;
  }

  /// Adds an already-finished span from NowSeconds() timestamps.
  void Add(const char* name, std::uint64_t id, double start_s, double end_s) {
    spans_.push_back(Span{name, open_.empty() ? -1 : open_.back(), id,
                          static_cast<std::int64_t>(start_s * 1e9),
                          static_cast<std::int64_t>(end_s * 1e9)});
  }

  std::size_t size() const { return spans_.size(); }

  /// Chrome trace JSON ("X" events, µs); loads in Perfetto.
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fputs("{\"traceEvents\":[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                   "\"parent\":%lld,\"id\":%llu}}\n",
                   i == 0 ? "" : ",", s.name,
                   static_cast<double>(s.start_ns - base) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.id));
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  static std::int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
};

/// Runs `f` inside a span and returns the span's length in µs.
template <typename F>
double Timed(SpanLog& log, const char* name, std::uint64_t id, F&& f) {
  const std::size_t span = log.Open(name, id);
  f();
  return log.Close(span);
}

double PerTxn(double total, std::uint64_t txns) {
  return txns == 0 ? 0.0 : total / static_cast<double>(txns);
}

/// Counting allocator and a /proc/self/status thread sampler, both live
/// only across RunTPart().
class ProbeHooks : public RunHooks {
 public:
  ProbeHooks() = default;
  ~ProbeHooks() override { StopSampler(); }
  ProbeHooks(const ProbeHooks&) = delete;
  ProbeHooks& operator=(const ProbeHooks&) = delete;

  void BeforeRun() override {
    stop_.store(false);
    sampler_ = std::thread([this] {
      while (!stop_.load()) {
        const std::uint64_t n = ProcStatusField("Threads");
        if (n > peak_threads_) peak_threads_ = n;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    allocs0_ = AllocCount();
    bytes0_ = AllocBytes();
    SetAllocCounting(true);
  }

  void AfterRun() override {
    SetAllocCounting(false);
    allocs_ = AllocCount() - allocs0_;
    bytes_ = AllocBytes() - bytes0_;
    StopSampler();
  }

  std::uint64_t allocs() const { return allocs_; }
  std::uint64_t bytes() const { return bytes_; }
  std::uint64_t peak_threads() const { return peak_threads_; }

 private:
  void StopSampler() {
    stop_.store(true);
    if (sampler_.joinable()) sampler_.join();
  }

  std::atomic<bool> stop_{false};
  std::uint64_t peak_threads_ = 0;  // written by the sampler until joined
  std::uint64_t allocs0_ = 0, bytes0_ = 0, allocs_ = 0, bytes_ = 0;
  std::thread sampler_;
};

/// Pins the process (every thread created after BeforeConstruct) to the
/// first `cores` CPUs it may run on; restores the mask on destruction.
class PinHooks : public RunHooks {
 public:
  explicit PinHooks(int cores) : cores_(cores) {}
  ~PinHooks() override {
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  PinHooks(const PinHooks&) = delete;
  PinHooks& operator=(const PinHooks&) = delete;

  void BeforeConstruct() override {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    cpu_set_t want;
    CPU_ZERO(&want);
    int taken = 0;
    for (int cpu = 0; cpu < CPU_SETSIZE && taken < cores_; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) {
        CPU_SET(cpu, &want);
        ++taken;
      }
    }
    pinned_ = sched_setaffinity(0, sizeof(want), &want) == 0;
  }

 private:
  int cores_;
  bool pinned_ = false;
  cpu_set_t saved_{};
};

// Unprobed cluster runs whose median tps is the tracing-overhead base.
constexpr int kTimedRuns = 3;

int Main(int argc, char** argv) {
  if (!OptimizedBuild()) return 2;
  const Args args = ParseArgs(argc, argv);
  if (!args.error.empty()) {
    std::fprintf(stderr, "perfbench_traced: %s\n", args.error.c_str());
    return 2;
  }
  const std::string& name = args.workload;
  const std::size_t txns = args.txns > 0 ? args.txns : DefaultTxns(name);
  const tpart::LocalClusterOptions opts = BenchClusterOptions(name);
  Report report;
  SpanLog spans;
  bool replay_ok = true;

  // ---- workload: generation cost and its memory.
  const std::uint64_t rss0_kb = ProcStatusField("VmRSS");
  std::unique_ptr<tpart::Workload> w;
  const double gen_us = Timed(spans, "workload.generate", 0, [&] {
    w = std::make_unique<tpart::Workload>(
        MakeBenchWorkload(name, args.seed, txns));
  });
  const std::uint64_t rss1_kb = ProcStatusField("VmRSS");
  const std::uint64_t real = w->requests.size();
  report.Add("workload.gen_us_per_txn", PerTxn(gen_us, real), "us/txn");
  report.Add("workload.gen_rss_mb",
             static_cast<double>(rss1_kb > rss0_kb ? rss1_kb - rss0_kb : 0) /
                 1024.0,
             "MB");

  // ---- sequencer: Submit + NextBatch per request, Flush for the tail,
  // exactly as the cluster's admission stage drives it.
  std::vector<tpart::TxnBatch> batches;
  double seq_us = 0.0;
  {
    tpart::Sequencer sequencer(opts.pipeline.sequencer);
    for (std::size_t i = 0; i < w->requests.size(); ++i) {
      TxnSpec spec = w->requests[i];
      const std::uint64_t id = i + 1;  // ids follow arrival order
      seq_us += Timed(spans, "sequencer.submit", id,
                      [&] { sequencer.Submit(std::move(spec)); });
      seq_us += Timed(spans, "sequencer.next_batch", id, [&] {
        while (std::optional<tpart::TxnBatch> b = sequencer.NextBatch()) {
          batches.push_back(std::move(*b));
        }
      });
    }
    if (sequencer.pending() > 0) {
      seq_us += Timed(spans, "sequencer.flush", 0, [&] {
        if (std::optional<tpart::TxnBatch> b = sequencer.Flush()) {
          batches.push_back(std::move(*b));
        }
      });
    }
  }
  report.Add("sequencer.us_per_txn", PerTxn(seq_us, real), "us/txn");

  // ---- scheduler: T-graph insert (OnTxn calls that sank nothing) vs
  // the extra cost of the calls that triggered a sink round.
  std::vector<SinkPlan> plans;
  double insert_us = 0.0, sank_us = 0.0, drain_us = 0.0;
  std::uint64_t inserts = 0, sank_calls = 0;
  {
    tpart::TPartScheduler::Options so = opts.scheduler;
    so.graph.num_machines = w->num_machines;
    // The cluster tracks key frequencies whenever the live sampler is on.
    so.track_key_frequencies = UsesObsPlane(name);
    tpart::TPartScheduler scheduler(so, w->partition_map);
    for (const tpart::TxnBatch& batch : batches) {
      for (const TxnSpec& spec : batch.txns) {
        std::vector<SinkPlan> out;
        const double us = Timed(spans, "scheduler.on_txn", spec.id,
                                [&] { out = scheduler.OnTxn(spec); });
        if (out.empty()) {
          insert_us += us;
          ++inserts;
        } else {
          sank_us += us;
          ++sank_calls;
        }
        for (SinkPlan& p : out) plans.push_back(std::move(p));
      }
    }
    std::vector<SinkPlan> drained;
    drain_us = Timed(spans, "scheduler.drain", 0,
                     [&] { drained = scheduler.Drain(); });
    for (SinkPlan& p : drained) plans.push_back(std::move(p));
    const double insert_mean = inserts == 0 ? 0.0 : insert_us / inserts;
    const double sink_us = std::max(0.0, sank_us - insert_mean * sank_calls) +
                           drain_us;
    report.Add("scheduler.insert_us_per_txn", insert_mean, "us/txn");
    report.Add("scheduler.sink_us_per_round", PerTxn(sink_us, plans.size()),
               "us/round");
    report.Add("scheduler.max_unsunk",
               static_cast<double>(scheduler.max_tgraph_size()), "count");
    report.Add("scheduler.pushes_eliminated_per_txn",
               PerTxn(static_cast<double>(scheduler.num_pushes_eliminated()),
                      real),
               "count/txn");
  }
  batches = {};
  const double sched_us = insert_us + sank_us + drain_us;

  // ---- partition quality: deterministic counts over the sink plans.
  {
    std::uint64_t planned = 0, distributed = 0, remote_reads = 0, pushes = 0;
    std::vector<std::uint64_t> per_machine(w->num_machines, 0);
    for (const SinkPlan& plan : plans) {
      distributed += plan.NumDistributed();
      for (const tpart::TxnPlan& tp : plan.txns) {
        ++planned;
        if (static_cast<std::size_t>(tp.machine) < per_machine.size()) {
          ++per_machine[tp.machine];
        }
        pushes += tp.pushes.size();
        for (const tpart::ReadStep& r : tp.reads) {
          if (r.kind == tpart::ReadSourceKind::kPush ||
              r.kind == tpart::ReadSourceKind::kCacheRemote ||
              (r.kind == tpart::ReadSourceKind::kStorage &&
               r.src_machine != tp.machine)) {
            ++remote_reads;
          }
        }
      }
    }
    if (planned != real) replay_ok = false;
    const double mean_share =
        static_cast<double>(planned) / static_cast<double>(per_machine.size());
    const double max_share = static_cast<double>(
        *std::max_element(per_machine.begin(), per_machine.end()));
    report.Add("partition.distributed_frac",
               PerTxn(static_cast<double>(distributed), planned), "ratio");
    report.Add("partition.remote_reads_per_txn",
               PerTxn(static_cast<double>(remote_reads), planned), "count/txn");
    report.Add("partition.pushes_per_txn",
               PerTxn(static_cast<double>(pushes), planned), "count/txn");
    report.Add("partition.load_imbalance",
               mean_share > 0 ? max_share / mean_share : 0.0, "ratio");
  }

  // ---- wire: encode and decode every replayed plan.
  {
    double enc_us = 0.0, dec_us = 0.0;
    std::uint64_t bytes = 0;
    for (const SinkPlan& plan : plans) {
      std::string encoded;
      enc_us += Timed(spans, "net.encode_sink_plan", plan.epoch,
                      [&] { encoded = tpart::EncodeSinkPlan(plan); });
      bytes += encoded.size();
      std::optional<tpart::Result<SinkPlan>> decoded;
      dec_us += Timed(spans, "net.decode_sink_plan", plan.epoch,
                      [&] { decoded.emplace(tpart::DecodeSinkPlan(encoded)); });
      if (!decoded->ok() || !(**decoded == plan)) replay_ok = false;
    }
    report.Add("net.plan_encode_us_per_txn", PerTxn(enc_us, real), "us/txn");
    report.Add("net.plan_decode_us_per_txn", PerTxn(dec_us, real), "us/txn");
    report.Add("net.plan_bytes_per_txn",
               PerTxn(static_cast<double>(bytes), real), "B/txn");
  }

  // ---- storage: KvStore reads and upserts over every request's read and
  // write sets, each on its home partition of a loaded store. The cache
  // replay below takes its pushed values from the same store.
  auto store = std::make_unique<tpart::PartitionedStore>(w->num_machines,
                                                         w->partition_map);
  Timed(spans, "storage.load", 0, [&] { w->loader(*store); });
  {
    double read_us = 0.0, write_us = 0.0;
    std::uint64_t reads = 0, writes = 0, found = 0;
    const std::vector<TxnSpec> sequenced = w->SequencedRequests();
    for (const TxnSpec& spec : sequenced) {
      const std::size_t txn_span = spans.Open("storage.txn", spec.id);
      for (const ObjectKey key : spec.rw.reads) {
        tpart::KvStore& kv = store->store(store->HomeOf(key));
        read_us += Timed(spans, "kv_store.read", spec.id,
                         [&] { found += kv.Read(key).ok() ? 1 : 0; });
        ++reads;
      }
      for (const ObjectKey key : spec.rw.writes) {
        tpart::KvStore& kv = store->store(store->HomeOf(key));
        const Record* current = kv.ReadMutable(key);
        Record value = current != nullptr ? *current : Record(2);
        write_us += Timed(spans, "kv_store.upsert", spec.id,
                          [&] { kv.Upsert(key, std::move(value)); });
        ++writes;
      }
      spans.Close(txn_span);
    }
    report.Add("storage.read_us", PerTxn(read_us, reads), "us");
    report.Add("storage.write_us", PerTxn(write_us, writes), "us");
    report.Meta("storage_reads_found", static_cast<double>(found));
  }

  // ---- cache: PutVersion + AwaitVersion per planned forward push, on one
  // thread, so every await finds its version already there.
  {
    tpart::CacheArea cache;
    double cache_us = 0.0;
    std::uint64_t pushes = 0;
    for (const SinkPlan& plan : plans) {
      for (const tpart::TxnPlan& tp : plan.txns) {
        for (const tpart::PushStep& push : tp.pushes) {
          tpart::Result<Record> stored = store->Read(push.key);
          Record value = stored.ok() ? std::move(stored).value() : Record(2);
          const std::size_t push_span = spans.Open("cache.push", tp.txn);
          cache_us += Timed(spans, "cache.put_version", tp.txn, [&] {
            cache.PutVersion(push.key, push.version_txn, push.dst_txn,
                             std::move(value));
          });
          cache_us += Timed(spans, "cache.await_version", tp.txn, [&] {
            if (!cache.AwaitVersion(push.key, push.version_txn, push.dst_txn)
                     .has_value()) {
              replay_ok = false;
            }
          });
          spans.Close(push_span);
          ++pushes;
        }
      }
    }
    report.Add("cache.put_await_us", PerTxn(cache_us, pushes), "us");
  }
  const std::uint64_t replay_plans = plans.size();
  plans = {};
  store.reset();

  // ---- exec: the serial oracle, timed; it also checks every cluster run.
  auto oracle = std::make_unique<Oracle>(RunOracle(*w));
  spans.Add("exec.run_serial", 0, oracle->serial_start, oracle->serial_end);
  const double serial_us =
      (oracle->serial_end - oracle->serial_start) * 1e6;
  report.Add("exec.serial_us_per_txn", PerTxn(serial_us, real), "us/txn");
  w.reset();

  // ---- cluster runs.
  std::uint64_t attempted = 0, failed = 0;
  bool plans_match = true;
  const auto account = [&](const ClusterRun& run) {
    attempted += txns;
    failed += run.failed;
    if (run.outcome.pipeline.plans != replay_plans) plans_match = false;
  };
  std::vector<double> timed_tps;
  for (int i = 0; i < kTimedRuns; ++i) {
    const ClusterRun run = RunCluster(name, args.seed, txns, &oracle);
    account(run);
    timed_tps.push_back(run.tps());
  }
  const double tps = Median(timed_tps);

  ProbeHooks probes;
  const ClusterRun probed = RunCluster(name, args.seed, txns, &oracle, &probes);
  account(probed);
  const double ptxns =
      static_cast<double>(std::max<std::uint64_t>(probed.txns, 1));
  const tpart::PipelineStats& pipe = probed.outcome.pipeline;
  const tpart::TransportStats& net = probed.outcome.transport;
  const tpart::CheckpointStats& cp = probed.outcome.checkpoint;

  double tps_1core = 0.0, tps_2core = 0.0;
  {
    PinHooks one(1);
    const ClusterRun run = RunCluster(name, args.seed, txns, &oracle, &one);
    account(run);
    tps_1core = run.tps();
  }
  {
    PinHooks two(2);
    const ClusterRun run = RunCluster(name, args.seed, txns, &oracle, &two);
    account(run);
    tps_2core = run.tps();
  }

  report.Add("net.messages_per_txn",
             static_cast<double>(net.messages_sent) / ptxns, "count/txn");
  report.Add("net.bytes_per_txn", static_cast<double>(net.bytes_out) / ptxns,
             "B/txn");
  report.Add("net.batched_share",
             net.messages_sent == 0
                 ? 0.0
                 : static_cast<double>(net.batched_messages) /
                       static_cast<double>(net.messages_sent),
             "ratio");
  report.Add("checkpoint.capture_us_per_txn",
             static_cast<double>(cp.capture_us) / ptxns, "us/txn");
  report.Add("checkpoint.log_bytes_peak_mb",
             static_cast<double>(cp.request_log_bytes_peak +
                                 cp.network_log_bytes_peak +
                                 cp.resend_window_bytes_peak) /
                 (1024.0 * 1024.0),
             "MB");

  const double seq_tps = seq_us > 0 ? 1e6 * real / seq_us : 0.0;
  const double sched_tps = sched_us > 0 ? 1e6 * real / sched_us : 0.0;
  const double exec_tps =
      serial_us > 0 ? 1e6 * real * static_cast<double>(kMachines) / serial_us
                    : 0.0;
  const double stage_bound = std::min({seq_tps, sched_tps, exec_tps});
  report.Add("runtime.stage_bound_tps", stage_bound, "txn/s");
  report.Add("runtime.pipeline_efficiency",
             stage_bound > 0 ? tps / stage_bound : 0.0, "ratio");
  report.Add("runtime.backpressure_per_ktxn",
             1000.0 * static_cast<double>(pipe.backpressure_waits) / ptxns,
             "count/ktxn");
  report.Add("runtime.inbound_high_water",
             static_cast<double>(pipe.machine_inbound_high_water), "count");
  report.Add("runtime.inbound_spills",
             static_cast<double>(pipe.machine_inbound_spills), "count");
  report.Add("runtime.allocs_per_txn",
             static_cast<double>(probes.allocs()) / ptxns, "count/txn");
  report.Add("runtime.alloc_kb_per_txn",
             static_cast<double>(probes.bytes()) / 1024.0 / ptxns, "KB/txn");
  report.Add("runtime.threads", static_cast<double>(probes.peak_threads()),
             "count");
  report.Add("runtime.tps_1core", tps_1core, "txn/s");
  report.Add("runtime.tps_2core", tps_2core, "txn/s");
  report.Add("runtime.admission_tps", pipe.AdmissionRate(), "txn/s");
  report.Add("runtime.latency_p50_us",
             static_cast<double>(pipe.admit_to_commit_us.Quantile(0.50)), "us");
  report.Add("runtime.latency_p99_us",
             static_cast<double>(pipe.admit_to_commit_us.Quantile(0.99)), "us");
  report.Add("runtime.timed_tps", tps, "txn/s");
  report.Add("runtime.traced_tps_ratio", tps > 0 ? probed.tps() / tps : 0.0,
             "ratio");

  report.Meta("workload", name);
  report.Meta("seed", static_cast<double>(args.seed));
  report.Meta("txns_per_run", static_cast<double>(txns));
  report.Meta("replay_plans", static_cast<double>(replay_plans));
  report.Meta("cluster_plans", static_cast<double>(pipe.plans));
  report.Meta("plans_match", plans_match ? "true" : "false");
  report.Meta("replay_ok", replay_ok ? "true" : "false");
  report.Meta("spans", static_cast<double>(spans.size()));
  report.Meta("failed_txn_frac",
              attempted > 0 ? static_cast<double>(failed) /
                                  static_cast<double>(attempted)
                            : 1.0);
  for (const auto& [key, value] : BuildInfo()) report.Meta(key, value);
  if (!args.spans_out.empty()) {
    if (spans.Write(args.spans_out)) {
      report.Meta("spans_out", args.spans_out);
    } else {
      std::fprintf(stderr, "perfbench_traced: cannot write %s\n",
                   args.spans_out.c_str());
      replay_ok = false;
    }
  }
  report.Print(failed == 0 && plans_match && replay_ok, attempted, failed);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
