// §5.4 failure handling demo, two ways.
//
// 1. In-run recovery: stream a workload with a seeded crash schedule —
//    one machine crash-stops at a chosen sink epoch, the heartbeat
//    watchdog detects the stall, and the machine is rebuilt in place
//    from its checkpoint image plus its own request and network logs
//    while the run completes. The result must be byte-identical to a
//    crash-free run.
//
// 2. Offline replay: after a clean run, rebuild one machine's partition
//    from its logs alone with all outbound communication suppressed
//    (the original ReplayMachine path, now generalized by
//    Machine::Recover()).
//
//   ./build/examples/recovery_demo

#include <cstdio>

#include "runtime/cluster.h"
#include "runtime/recovery.h"
#include "workload/micro.h"

using namespace tpart;

namespace {

MicroOptions DemoWorkload() {
  MicroOptions wopts;
  wopts.num_machines = 3;
  wopts.records_per_machine = 500;
  wopts.hot_set_size = 50;
  wopts.num_txns = 1'500;
  return wopts;
}

std::vector<std::pair<ObjectKey, Record>> Dump(KvStore& store) {
  std::vector<std::pair<ObjectKey, Record>> out;
  store.Scan(0, ~ObjectKey{0},
             [&](ObjectKey k, const Record& r) { out.emplace_back(k, r); });
  return out;
}

}  // namespace

int main() {
  const Workload workload = MakeMicroWorkload(DemoWorkload());

  // ---- 1. Crash-free streaming run: the reference results and state.
  LocalClusterOptions base;
  base.scheduler.sink_size = 50;
  ClusterRunOutcome clean;
  std::vector<std::vector<std::pair<ObjectKey, Record>>> clean_state;
  {
    LocalCluster cluster(&workload, base);
    clean = cluster.RunTPart();
    for (MachineId m = 0; m < cluster.num_machines(); ++m)
      clean_state.push_back(Dump(cluster.store().store(m)));
    std::printf("crash-free run: %llu committed\n",
                static_cast<unsigned long long>(clean.committed));
  }

  // ---- 2. Same run with a crash injected: machine 1 dies at epoch 5,
  // the watchdog detects it and rebuilds it mid-run.
  LocalClusterOptions faulty = base;
  faulty.crash.events.push_back({1, 5});
  faulty.detector.enabled = true;
  LocalCluster cluster(&workload, faulty);
  const ClusterRunOutcome out = cluster.RunTPart();
  if (!out.fault.ok()) {
    std::printf("run failed: %s\n", out.fault.ToString().c_str());
    return 1;
  }
  std::printf("crashed run:    %llu committed\n",
              static_cast<unsigned long long>(out.committed));
  std::printf("recovery: %s\n", out.recovery.Summary().c_str());

  bool identical = out.results.size() == clean.results.size();
  for (std::size_t i = 0; identical && i < out.results.size(); ++i)
    identical = out.results[i].id == clean.results[i].id &&
                out.results[i].committed == clean.results[i].committed &&
                out.results[i].output == clean.results[i].output;
  for (MachineId m = 0; m < cluster.num_machines(); ++m)
    identical = identical && Dump(cluster.store().store(m)) == clean_state[m];
  std::printf("crashed run %s the crash-free run\n",
              identical ? "MATCHES" : "DIVERGES from");

  // ---- 3. Offline replay of one machine's logs (the pre-streaming
  // formulation of §5.4: no cluster, outbound suppressed).
  const MachineId victim = 2;
  Machine& failed = cluster.machine(victim);
  const ReplayResult replay =
      ReplayMachine(workload, victim, failed.request_log(),
                    failed.network_log());
  const bool replay_ok =
      Dump(replay.store->store(victim)) == Dump(cluster.store().store(victim));
  std::printf("offline replay of machine %u: %zu txns, partition %s\n",
              victim, replay.results.size(),
              replay_ok ? "MATCHES" : "DIVERGES");

  return identical && replay_ok ? 0 : 1;
}
