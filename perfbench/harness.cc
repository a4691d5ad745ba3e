#include "harness.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "storage/data_partition.h"
#include "workload/micro.h"
#include "workload/tpcc.h"

namespace perfbench {

using tpart::ClusterRunOutcome;
using tpart::LocalCluster;
using tpart::LocalClusterOptions;
using tpart::PartitionedStore;
using tpart::Workload;

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      args.error =
          "unrecognised argument '" + arg + "' (expected --name=value)";
      return args;
    }
    const std::string name = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (name == "workload") {
      args.workload = value;
    } else if (name == "seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (name == "seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (name == "txns") {
      args.txns = static_cast<std::size_t>(std::atoll(value.c_str()));
    } else if (name == "spans-out") {
      args.spans_out = value;
    } else {
      args.error = "unknown flag --" + name;
      return args;
    }
  }
  if (!KnownWorkload(args.workload)) {
    args.error = "--workload must be one of micro, tpcc, micro_ft (got '" +
                 args.workload + "')";
  } else if (!(args.seconds > 0)) {
    args.error = "--seconds must be positive";
  }
  return args;
}

bool KnownWorkload(const std::string& name) {
  return name == "micro" || name == "tpcc" || name == "micro_ft";
}

std::size_t DefaultTxns(const std::string& name) {
  if (name == "tpcc") return 20'000;
  if (name == "micro_ft") return 15'000;
  return 20'000;
}

Workload MakeBenchWorkload(const std::string& name, std::uint64_t seed,
                           std::size_t txns) {
  if (name == "tpcc") {
    tpart::TpccOptions o;
    o.num_machines = kMachines;
    o.warehouses_per_machine = 2;
    o.num_txns = txns;
    o.seed = seed;
    return tpart::MakeTpccWorkload(o);
  }
  // Table 1 Microbenchmark at the scale the repository's benches use:
  // 20k records per machine, a 200-key hot set, every transaction
  // distributed with 9 of 10 records remote, 50% read-write, 30% skewed.
  tpart::MicroOptions o;
  o.num_machines = kMachines;
  o.records_per_machine = 20'000;
  o.hot_set_size = 200;
  o.num_txns = txns;
  o.seed = seed;
  if (name == "micro_ft") {
    o.read_write_rate = 1.0;
    o.records_per_machine = 200'000;  // store outgrows per-core L2
  }
  return tpart::MakeMicroWorkload(o);
}

LocalClusterOptions BenchClusterOptions(const std::string& name) {
  LocalClusterOptions opts;
  opts.streaming = true;
  opts.scheduler.sink_size = 50;
  if (name == "micro_ft") {
    // What a fault-tolerant deployment runs: serialized wire, §5.4 logs,
    // periodic checkpoints (the observability plane is armed by ObsPlane).
    opts.transport.kind = tpart::TransportKind::kInProcess;
    opts.record_recovery_logs = true;
    opts.checkpoint_every = 10;
  } else {
    opts.transport.kind = tpart::TransportKind::kDirect;
    opts.record_recovery_logs = false;
  }
  return opts;
}

bool UsesObsPlane(const std::string& name) { return name == "micro_ft"; }

ObsPlane::ObsPlane(const std::string& workload, LocalClusterOptions& options) {
  if (!UsesObsPlane(workload)) return;
  sampler_ = std::make_unique<tpart::obs::LiveSampler>(
      tpart::obs::LiveSampler::Domain::kWall);
  flight_ = std::make_unique<tpart::obs::FlightRecorder>();
  tpart::obs::InstallGlobalFlightRecorder(flight_.get());
  options.live_sampler = sampler_.get();
  options.sample_every_us = 5'000;
  options.txn_sample = 64;
}

ObsPlane::~ObsPlane() {
  if (flight_ != nullptr) tpart::obs::InstallGlobalFlightRecorder(nullptr);
}

Oracle RunOracle(const Workload& workload) {
  Oracle oracle;
  // One partition holds the whole database, so the serial engine sees
  // every key regardless of the cluster's placement.
  PartitionedStore reference(1,
                             std::make_shared<tpart::HashPartitionMap>(1));
  workload.loader(reference);
  const std::vector<tpart::TxnSpec> txns = workload.SequencedRequests();
  oracle.serial_start = NowSeconds();
  tpart::Result<tpart::SerialRunResult> serial =
      tpart::RunSerial(*workload.procedures, txns, reference.store(0));
  oracle.serial_end = NowSeconds();
  if (!serial.ok()) {
    std::fprintf(stderr, "perfbench: serial oracle failed: %s\n",
                 serial.status().ToString().c_str());
    return oracle;
  }
  oracle.serial = std::move(serial).value();
  oracle.state = reference.Snapshot();
  oracle.ok = true;
  return oracle;
}

std::uint64_t CountFailures(const Oracle& oracle,
                            const ClusterRunOutcome& outcome,
                            const PartitionedStore& store,
                            std::uint64_t txns) {
  if (!oracle.ok || !outcome.fault.ok()) return txns;
  std::uint64_t failures = 0;
  const std::vector<tpart::TxnResult>& want = oracle.serial.results;
  const std::vector<tpart::TxnResult>& got = outcome.results;
  const std::size_t common = std::min(want.size(), got.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (got[i].id != want[i].id || got[i].committed != want[i].committed ||
        got[i].output != want[i].output) {
      ++failures;
    }
  }
  failures += std::max(want.size(), got.size()) - common;
  const std::uint64_t drift =
      outcome.committed > oracle.serial.committed
          ? outcome.committed - oracle.serial.committed
          : oracle.serial.committed - outcome.committed;
  failures += drift;
  // Final state: every key whose record differs, or that only one side
  // holds, is one failure.
  const auto state = store.Snapshot();
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < state.size() || j < oracle.state.size()) {
    if (j == oracle.state.size() ||
        (i < state.size() && state[i].first < oracle.state[j].first)) {
      ++failures;
      ++i;
    } else if (i == state.size() || oracle.state[j].first < state[i].first) {
      ++failures;
      ++j;
    } else {
      if (!(state[i].second == oracle.state[j].second)) ++failures;
      ++i;
      ++j;
    }
  }
  return std::min(failures, txns);
}

ClusterRun RunCluster(const std::string& name, std::uint64_t seed,
                      std::size_t txns, std::unique_ptr<Oracle>* oracle,
                      RunHooks* hooks) {
  ClusterRun run;
  LocalClusterOptions opts = BenchClusterOptions(name);
  ObsPlane plane(name, opts);
  const HostTicks host0 = ReadHostTicks();
  const double t0 = NowSeconds();
  auto workload =
      std::make_unique<Workload>(MakeBenchWorkload(name, seed, txns));
  if (hooks != nullptr) hooks->BeforeConstruct();
  auto cluster = std::make_unique<LocalCluster>(workload.get(), opts);
  run.setup_s = NowSeconds() - t0;

  if (hooks != nullptr) hooks->BeforeRun();
  const double cpu0 = ProcessCpuSeconds();
  const double t1 = NowSeconds();
  run.outcome = cluster->RunTPart();
  run.run_s = NowSeconds() - t1;
  run.cpu_s = ProcessCpuSeconds() - cpu0;
  const HostTicks host1 = ReadHostTicks();
  if (host1.total > host0.total) {
    run.steal_frac = static_cast<double>(host1.steal - host0.steal) /
                     static_cast<double>(host1.total - host0.total);
  }
  if (hooks != nullptr) hooks->AfterRun();
  run.peak_rss_mb = static_cast<double>(ProcStatusField("VmHWM")) / 1024.0;
  run.txns = run.outcome.committed + run.outcome.aborted;

  if (*oracle == nullptr) {
    *oracle = std::make_unique<Oracle>(RunOracle(*workload));
  }
  run.failed = CountFailures(**oracle, run.outcome, cluster->store(),
                             workload->requests.size());
  // Only the scalar counters are kept past this point.
  run.outcome.results = {};
  return run;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::uint64_t ProcStatusField(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::strtoull(line.c_str() + len + 1, nullptr, 10);
    }
  }
  return 0;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

HostTicks ReadHostTicks() {
  // First line: "cpu user nice system idle iowait irq softirq steal ...".
  std::ifstream in("/proc/stat");
  std::string label;
  HostTicks ticks;
  if (!(in >> label) || label != "cpu") return ticks;
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) return HostTicks{};
    ticks.total += v;
    if (field == 7) ticks.steal = v;
  }
  return ticks;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::map<std::string, std::string> BuildInfo() {
  std::map<std::string, std::string> info;
  info["compiler"] = PERFBENCH_COMPILER;
  info["build_type"] = PERFBENCH_BUILD_TYPE;
  info["nproc_online"] = std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    info["nproc"] = std::to_string(CPU_COUNT(&set));
  }
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        info["cpu_model"] = line.substr(line.find_first_not_of(' ', colon + 1));
      }
      break;
    }
  }
  return info;
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";  // the validator rejects it
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::Meta(const std::string& key, const std::string& value) {
  meta_.emplace_back(key, JsonString(value));
}

void Report::Meta(const std::string& key, double value) {
  meta_.emplace_back(key, JsonNumber(value));
}

void Report::Meta(const std::string& key, const std::vector<double>& values) {
  std::string json = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    json += (i ? ", " : "") + JsonNumber(values[i]);
  }
  meta_.emplace_back(key, json + "]");
}

void Report::Print(bool correct, std::uint64_t attempted,
                   std::uint64_t failed) const {
  std::ostringstream meta;
  meta << "{\"meta\": {";
  for (std::size_t i = 0; i < meta_.size(); ++i) {
    meta << (i ? ", " : "") << JsonString(meta_[i].first) << ": "
         << meta_[i].second;
  }
  meta << "}}";
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, vu] = metrics_[i];
    out << (i ? ", " : "") << JsonString(name)
        << ": {\"value\": " << JsonNumber(vu.first)
        << ", \"unit\": " << JsonString(vu.second) << "}";
  }
  out << "}}";
  std::printf("%s\n%s\n", meta.str().c_str(), out.str().c_str());
  std::fflush(stdout);
}

bool OptimizedBuild() {
#ifdef NDEBUG
  return true;
#else
  std::fprintf(stderr,
               "perfbench: refusing to report from a build without NDEBUG "
               "(configure with -DCMAKE_BUILD_TYPE=Release)\n");
  return false;
#endif
}

}  // namespace perfbench
