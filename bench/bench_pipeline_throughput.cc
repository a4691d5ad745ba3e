// Raw-speed gate for the streaming hot path (ROADMAP item 2): end-to-end
// admit -> schedule -> disseminate -> execute throughput of the threaded
// streaming pipeline on the Microbenchmark, with admit-to-commit latency
// percentiles and a per-transaction heap-allocation count from a counting
// operator-new hook local to this binary.
//
// The JSONL rows ("pipeline_throughput") are the perf trajectory record:
// CI runs this bench, uploads the rows, and asserts that txns/s has not
// regressed below bench/baseline_pipeline_throughput.json (the
// pre-refactor baseline kept in the repo).

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "bench/bench_util.h"
#include "obs/flight_recorder.h"
#include "obs/live_sampler.h"
#include "runtime/cluster.h"

// ---------------------------------------------------------------------
// Counting allocator hook. Linked into this binary only: every global
// operator new/delete bumps a relaxed counter, so (allocs during run) /
// (txns committed) is the allocs-per-transaction figure the
// allocation-free-hot-path work drives toward zero.
// ---------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tpart::bench {
namespace {

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

struct RunRow {
  double tps = 0.0;
  double secs = 0.0;
  std::uint64_t committed = 0;
  std::uint64_t p50_us = 0;
  std::uint64_t p99_us = 0;
  double allocs_per_txn = 0.0;
  double alloc_kb_per_txn = 0.0;
};

RunRow RunOnce(const Workload& w, TransportKind kind,
               std::size_t sink_size, bool obs) {
  LocalClusterOptions opts;
  opts.scheduler.sink_size = sink_size;
  opts.transport.kind = kind;
  // The perf configuration: no §5.4 logs (their growth is not what this
  // bench measures) — the recovery benches own that axis.
  opts.record_recovery_logs = false;
  // Observability-armed rows measure the cost of the full live plane:
  // wall-clock metrics sampling, the always-on flight recorder, and
  // trace-context stamping for sampled transactions. The obs-vs-plain
  // delta is the overhead the <=5%-regression gate bounds.
  tpart::obs::LiveSampler sampler(tpart::obs::LiveSampler::Domain::kWall);
  tpart::obs::FlightRecorder flight;
  if (obs) {
    tpart::obs::InstallGlobalFlightRecorder(&flight);
    opts.live_sampler = &sampler;
    opts.sample_every_us = 5'000;
    opts.txn_sample = 64;
  }
  LocalCluster cluster(&w, opts);

  const std::uint64_t allocs_before =
      g_allocs.load(std::memory_order_relaxed);
  const std::uint64_t bytes_before =
      g_alloc_bytes.load(std::memory_order_relaxed);
  const auto start = std::chrono::steady_clock::now();
  const ClusterRunOutcome out = cluster.RunTPart();
  const double secs = Seconds(std::chrono::steady_clock::now() - start);
  const std::uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - allocs_before;
  const std::uint64_t bytes =
      g_alloc_bytes.load(std::memory_order_relaxed) - bytes_before;

  if (!out.fault.ok()) {
    std::fprintf(stderr, "run failed: %s\n", out.fault.ToString().c_str());
    std::exit(1);
  }
  RunRow row;
  row.secs = secs;
  row.committed = out.committed;
  row.tps = secs > 0 ? static_cast<double>(out.committed + out.aborted) /
                           secs
                     : 0.0;
  row.p50_us = out.pipeline.admit_to_commit_us.Quantile(0.50);
  row.p99_us = out.pipeline.admit_to_commit_us.Quantile(0.99);
  const double txns =
      static_cast<double>(out.committed + out.aborted);
  row.allocs_per_txn = txns > 0 ? static_cast<double>(allocs) / txns : 0.0;
  row.alloc_kb_per_txn =
      txns > 0 ? static_cast<double>(bytes) / txns / 1024.0 : 0.0;
  return row;
}

void Run(int argc, char** argv) {
  const auto txns =
      static_cast<std::size_t>(IntFlag(argc, argv, "txns", 20'000));
  const auto machines =
      static_cast<std::size_t>(IntFlag(argc, argv, "machines", 3));
  const auto sink_size =
      static_cast<std::size_t>(IntFlag(argc, argv, "sink-size", 50));
  const auto repeats =
      static_cast<std::size_t>(IntFlag(argc, argv, "repeats", 1));
  const bool json = BoolFlag(argc, argv, "json");

  Header("Streaming pipeline throughput (admit->commit, micro workload)");
  const Workload w = MakeMicroWorkload(DefaultMicro(machines, txns));

  struct Config {
    const char* name;
    TransportKind kind;
    bool obs;
  };
  const Config configs[] = {
      {"direct", TransportKind::kDirect, false},
      {"direct+obs", TransportKind::kDirect, true},
      {"inprocess", TransportKind::kInProcess, false},
  };
  std::printf("%12s %12s %10s %10s %12s %14s\n", "transport", "txns/s",
              "p50_us", "p99_us", "allocs/txn", "alloc_kb/txn");
  for (const Config& c : configs) {
    // Best-of-N: the gate compares steady-state capability, not scheduler
    // jitter of a loaded CI host.
    RunRow best;
    for (std::size_t i = 0; i < repeats; ++i) {
      RunRow row = RunOnce(w, c.kind, sink_size, c.obs);
      if (row.tps > best.tps) best = row;
    }
    std::printf("%12s %12.0f %10llu %10llu %12.1f %14.2f\n", c.name,
                best.tps,
                static_cast<unsigned long long>(best.p50_us),
                static_cast<unsigned long long>(best.p99_us),
                best.allocs_per_txn, best.alloc_kb_per_txn);
    if (json) {
      JsonRow("pipeline_throughput")
          .Add("transport", std::string(c.name))
          .Add("machines", static_cast<std::uint64_t>(machines))
          .Add("txns", static_cast<std::uint64_t>(txns))
          .Add("sink_size", static_cast<std::uint64_t>(sink_size))
          .Add("tps", best.tps)
          .Add("p50_us", best.p50_us)
          .Add("p99_us", best.p99_us)
          .Add("allocs_per_txn", best.allocs_per_txn)
          .Add("alloc_kb_per_txn", best.alloc_kb_per_txn)
          .Add("committed", best.committed)
          .Print();
    }
  }
}

}  // namespace
}  // namespace tpart::bench

int main(int argc, char** argv) { tpart::bench::Run(argc, argv); }
