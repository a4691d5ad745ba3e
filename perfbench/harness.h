#ifndef TPART_PERFBENCH_HARNESS_H_
#define TPART_PERFBENCH_HARNESS_H_

// Shared pieces of the two benchmark runners: the three named workloads
// and their cluster configurations, one measured cluster run, the serial
// output oracle, process probes read from /proc, and the result printer.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exec/serial_executor.h"
#include "obs/flight_recorder.h"
#include "obs/live_sampler.h"
#include "runtime/cluster.h"
#include "workload/workload.h"

namespace perfbench {

/// Machines in every workload's cluster.
inline constexpr std::size_t kMachines = 3;

/// Flags shared by both runners: --workload=, --seed=, --seconds=,
/// --txns= (0 = the workload's default), plus runner-specific ones.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::size_t txns = 0;
  std::string spans_out;
  std::string error;  // non-empty when the flags do not parse
};
Args ParseArgs(int argc, char** argv);

/// True for micro, tpcc and micro_ft.
bool KnownWorkload(const std::string& name);

/// Transactions per cluster run when --txns is not given.
std::size_t DefaultTxns(const std::string& name);

/// Generates the named workload's schema, loader and request trace from
/// `seed`; the same seed always yields the same requests.
tpart::Workload MakeBenchWorkload(const std::string& name, std::uint64_t seed,
                                  std::size_t txns);

/// The streaming-cluster configuration of the named workload.
tpart::LocalClusterOptions BenchClusterOptions(const std::string& name);

/// True for the workloads that run with the live observability plane.
bool UsesObsPlane(const std::string& name);

/// The live observability plane (wall-clock sampler, global flight
/// recorder, transaction sampling). Arms `options` for the lifetime of
/// this object when the workload uses it; a no-op otherwise.
class ObsPlane {
 public:
  ObsPlane(const std::string& workload, tpart::LocalClusterOptions& options);
  ~ObsPlane();
  ObsPlane(const ObsPlane&) = delete;
  ObsPlane& operator=(const ObsPlane&) = delete;

 private:
  std::unique_ptr<tpart::obs::LiveSampler> sampler_;
  std::unique_ptr<tpart::obs::FlightRecorder> flight_;
};

/// Serial reference execution of a workload: per-transaction results and
/// the final database state, key-sorted.
struct Oracle {
  tpart::SerialRunResult serial;
  std::vector<std::pair<tpart::ObjectKey, tpart::Record>> state;
  bool ok = false;
  /// NowSeconds() around the RunSerial() call alone (load excluded).
  double serial_start = 0.0;
  double serial_end = 0.0;
};
Oracle RunOracle(const tpart::Workload& workload);

/// Transactions of `outcome` that disagree with the oracle: result
/// mismatches (id, commit decision, outputs), missing or extra results,
/// committed/aborted count drift and differing final-state keys, capped
/// at `txns`. Every transaction counts when the run returned a non-OK
/// fault or the oracle itself failed.
std::uint64_t CountFailures(const Oracle& oracle,
                            const tpart::ClusterRunOutcome& outcome,
                            const tpart::PartitionedStore& store,
                            std::uint64_t txns);

/// One measured cluster run. Setup (workload generation, cluster
/// construction and data load) and the RunTPart() call are timed apart;
/// CPU is the process user+sys time across RunTPart().
struct ClusterRun {
  double setup_s = 0.0;
  double run_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t txns = 0;
  double peak_rss_mb = 0.0;  // VmHWM read right after RunTPart()
  double steal_frac = 0.0;   // host steal share across setup + RunTPart()
  tpart::ClusterRunOutcome outcome;
  std::uint64_t failed = 0;
  double tps() const {
    return run_s > 0 ? static_cast<double>(txns) / run_s : 0.0;
  }
};

/// Probe points around one cluster run, for the traced runner's outside
/// probes. BeforeConstruct() runs after workload generation, right before
/// the cluster (and so every cluster thread) is created; BeforeRun() and
/// AfterRun() bracket the RunTPart() call.
class RunHooks {
 public:
  virtual ~RunHooks() = default;
  virtual void BeforeConstruct() {}
  virtual void BeforeRun() {}
  virtual void AfterRun() {}
};

/// Generates the workload, builds the cluster and runs it once. The
/// oracle is computed from this run's workload on first use (after the
/// run, so it never shows in peak RSS) and cached in `*oracle`.
ClusterRun RunCluster(const std::string& name, std::uint64_t seed,
                      std::size_t txns, std::unique_ptr<Oracle>* oracle,
                      RunHooks* hooks = nullptr);

double Median(std::vector<double> values);

/// A field of /proc/self/status in its own unit (kB for Vm*), 0 when
/// unreadable.
std::uint64_t ProcStatusField(const char* field);
double ProcessCpuSeconds();
double NowSeconds();

/// Host CPU time from /proc/stat, in clock ticks summed over CPUs: all of
/// it, and the part the hypervisor gave to other guests (steal).
struct HostTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
HostTicks ReadHostTicks();

/// Build and host facts every result records.
std::map<std::string, std::string> BuildInfo();

/// Collects metrics and prints the result protocol: one "meta" JSON line
/// then, last, {"correct", "attempted", "failed", "metrics"}.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  void Meta(const std::string& key, const std::string& value);
  void Meta(const std::string& key, double value);
  void Meta(const std::string& key, const std::vector<double>& values);
  void Print(bool correct, std::uint64_t attempted, std::uint64_t failed) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::pair<std::string, std::string>> meta_;  // raw JSON values
};

/// Refuses builds without NDEBUG (returns false after printing why).
bool OptimizedBuild();

}  // namespace perfbench

#endif  // TPART_PERFBENCH_HARNESS_H_
