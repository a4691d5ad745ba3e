// Elasticity benchmark: what a live membership change costs.
//
// Row set 1 — resize overhead: the same streaming run fixed, grown,
// shrunk, grown-then-shrunk, and grown under the hot-key policy. Reports
// end-to-end throughput, the wall-clock the stream spent paused at
// migration barriers, and the moved-key/bytes volume.
//
// Row set 2 — throughput dip and reconvergence around the cut: the
// dissemination timeline gives the wall-clock gap between consecutive
// sinking rounds. The migration barrier widens the gap at the cut epoch
// (the dip); the rounds after it settle back to the pre-cut cadence.
// Reports dip depth (cut gap / median pre-cut gap) and how many epochs
// the gap needs to fall back under 2x the pre-cut median (convergence).
// Emits both as JSONL (--json) for the CI bench artifact.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "runtime/cluster.h"

namespace tpart::bench {
namespace {

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

bool g_json = false;

LocalClusterOptions StreamingOpts() {
  LocalClusterOptions opts;
  opts.scheduler.sink_size = 50;
  return opts;
}

void BenchResizeOverhead(std::size_t machines, std::size_t txns) {
  Header("Resize overhead: fixed vs grow/shrink membership, same workload");
  const Workload w = MakeMicroWorkload(DefaultMicro(machines, txns));
  const SinkEpoch rounds = static_cast<SinkEpoch>(txns / 50);
  const SinkEpoch cut1 = rounds / 3;
  const SinkEpoch cut2 = 2 * rounds / 3;

  struct Config {
    const char* name;
    std::vector<LocalClusterOptions::ResizeEvent> events;
    MigrationPolicy policy;
  };
  const Config configs[] = {
      {"fixed", {}, MigrationPolicy::kRehash},
      {"grow", {{cut1, +1}}, MigrationPolicy::kRehash},
      {"shrink", {{cut1, -1}}, MigrationPolicy::kRehash},
      {"grow_shrink", {{cut1, +1}, {cut2, -1}}, MigrationPolicy::kRehash},
      {"grow_hotkey", {{cut1, +1}}, MigrationPolicy::kHotKey},
  };
  std::printf("%12s %10s %12s %12s %10s %14s\n", "config", "tps",
              "barrier_us", "keys_moved", "routes", "bytes_shipped");
  for (const Config& c : configs) {
    LocalClusterOptions opts = StreamingOpts();
    opts.resize.events = c.events;
    opts.resize.policy = c.policy;
    LocalCluster cluster(&w, opts);
    const auto start = std::chrono::steady_clock::now();
    const ClusterRunOutcome out = cluster.RunTPart();
    const double secs = Seconds(std::chrono::steady_clock::now() - start);
    if (!out.fault.ok()) {
      std::printf("%12s  run failed: %s\n", c.name,
                  out.fault.ToString().c_str());
      continue;
    }
    const MigrationStats& mig = out.migration;
    const double tps = static_cast<double>(out.committed) / secs;
    std::printf("%12s %10.0f %12llu %12llu %10llu %14llu\n", c.name, tps,
                static_cast<unsigned long long>(mig.barrier_us),
                static_cast<unsigned long long>(mig.keys_moved),
                static_cast<unsigned long long>(mig.routes),
                static_cast<unsigned long long>(mig.bytes_shipped));
    if (g_json) {
      JsonRow("elasticity_overhead")
          .Add("config", std::string(c.name))
          .Add("tps", tps)
          .Add("committed", out.committed)
          .Add("membership_steps", mig.membership_steps)
          .Add("barrier_us", mig.barrier_us)
          .Add("keys_moved", mig.keys_moved)
          .Add("records_moved", mig.records_moved)
          .Add("routes", mig.routes)
          .Add("bytes_shipped", mig.bytes_shipped)
          .Add("chunks_shipped", mig.chunks_shipped)
          .Add("forced_checkpoints", mig.forced_checkpoints)
          .Print();
    }
  }
}

void BenchDipAndConvergence(std::size_t machines, std::size_t txns) {
  Header("Throughput dip and reconvergence around a mid-run grow");
  const Workload w = MakeMicroWorkload(DefaultMicro(machines, txns));
  const SinkEpoch rounds = static_cast<SinkEpoch>(txns / 50);
  const SinkEpoch cut = rounds / 2;

  LocalClusterOptions opts = StreamingOpts();
  opts.resize.events = {{cut, +1}};
  LocalCluster cluster(&w, opts);
  const ClusterRunOutcome out = cluster.RunTPart();
  if (!out.fault.ok() || out.timeline.size() < 4) {
    std::printf("run failed or timeline too short: %s\n",
                out.fault.ToString().c_str());
    return;
  }

  // Inter-round shipping gaps; the entry whose epoch first exceeds the
  // cut carries the barrier pause.
  std::vector<std::uint64_t> gaps(out.timeline.size(), 0);
  std::vector<std::uint64_t> pre_cut;
  std::size_t cut_idx = 0;
  for (std::size_t i = 1; i < out.timeline.size(); ++i) {
    gaps[i] = out.timeline[i].us_since_start -
              out.timeline[i - 1].us_since_start;
    if (out.timeline[i].epoch <= cut) {
      pre_cut.push_back(gaps[i]);
    } else if (cut_idx == 0) {
      cut_idx = i;
    }
  }
  if (pre_cut.empty() || cut_idx == 0) {
    std::printf("cut epoch %llu outside the run (%zu rounds)\n",
                static_cast<unsigned long long>(cut), out.timeline.size());
    return;
  }
  std::sort(pre_cut.begin(), pre_cut.end());
  const std::uint64_t median = pre_cut[pre_cut.size() / 2];
  const std::uint64_t dip_gap = gaps[cut_idx];
  const double dip_depth =
      median == 0 ? 0.0
                  : static_cast<double>(dip_gap) / static_cast<double>(median);
  // Convergence: rounds past the barrier until the cadence is back under
  // 2x the pre-cut median.
  std::uint64_t convergence_epochs = 0;
  for (std::size_t i = cut_idx + 1; i < gaps.size(); ++i) {
    if (gaps[i] <= 2 * std::max<std::uint64_t>(median, 1)) break;
    ++convergence_epochs;
  }

  std::printf("%10s %12s %12s %12s %14s\n", "cut", "median_us", "dip_us",
              "dip_depth", "converge_ep");
  std::printf("%10llu %12llu %12llu %12.1f %14llu\n",
              static_cast<unsigned long long>(cut),
              static_cast<unsigned long long>(median),
              static_cast<unsigned long long>(dip_gap), dip_depth,
              static_cast<unsigned long long>(convergence_epochs));
  if (g_json) {
    JsonRow("elasticity_dip")
        .Add("cut_epoch", static_cast<std::uint64_t>(cut))
        .Add("median_gap_us", median)
        .Add("dip_gap_us", dip_gap)
        .Add("dip_depth", dip_depth)
        .Add("convergence_epochs", convergence_epochs)
        .Add("barrier_us", out.migration.barrier_us)
        .Add("keys_moved", out.migration.keys_moved)
        .Print();
    for (std::size_t i = 1; i < out.timeline.size(); ++i) {
      JsonRow("elasticity_timeline")
          .Add("epoch", static_cast<std::uint64_t>(out.timeline[i].epoch))
          .Add("us_since_start", out.timeline[i].us_since_start)
          .Add("gap_us", gaps[i])
          .Print();
    }
  }
  std::printf("(the barrier widens exactly one inter-round gap — the cut "
              "epoch's — and the cadence snaps back within a round or "
              "two: the dip is the migration, not a lasting slowdown)\n");
}

void Run(int argc, char** argv) {
  const auto txns =
      static_cast<std::size_t>(IntFlag(argc, argv, "txns", 4000));
  const auto machines =
      static_cast<std::size_t>(IntFlag(argc, argv, "machines", 3));
  g_json = BoolFlag(argc, argv, "json");
  BenchResizeOverhead(machines, txns);
  BenchDipAndConvergence(machines, txns);
}

}  // namespace
}  // namespace tpart::bench

int main(int argc, char** argv) { tpart::bench::Run(argc, argv); }
