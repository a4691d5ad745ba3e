#ifndef TPART_RUNTIME_RECOVERY_H_
#define TPART_RUNTIME_RECOVERY_H_

#include <deque>
#include <memory>
#include <vector>

#include "runtime/machine.h"
#include "storage/partitioned_store.h"
#include "workload/workload.h"

namespace tpart {

/// Outcome of replaying one machine from its logs (§5.4).
struct ReplayResult {
  /// Fully reloaded cluster store; only partition `machine` was replayed.
  std::unique_ptr<PartitionedStore> store;
  std::vector<TxnResult> results;
};

/// §5.4 local replay: "the transaction requests are logged only after
/// they are partitioned, and each machine logs only those requests that
/// are assigned to itself. Furthermore, T-Part requires each executor to
/// create a PUSH-log upon receiving a push ... Therefore, each machine in
/// T-Part can replay its transactions locally during the recovery."
///
/// Reconstructs machine `id` from a checkpoint (the initial load) plus
/// its request log and network log (the PUSH-log generalised to every
/// inbound message, so storage-read/cache-pull refcounts line up), with
/// all outbound traffic suppressed. The caller compares the rebuilt
/// partition against the pre-crash store.
///
/// This is the *offline* formulation: a fresh store, no peers, no
/// cluster. The in-run path — crash-stop a live machine mid-stream,
/// detect it via heartbeats, rebuild it in place and let the run
/// complete — is Machine::Recover() driven by LocalCluster's watchdog
/// (LocalClusterOptions::crash / ::detector). Both replay the same two
/// logs; Recover() additionally restores the partition from its
/// checkpoint image and then runs the rounds its request log still
/// queues, so the machine rejoins the live epoch stream without any
/// round being re-sent.
ReplayResult ReplayMachine(
    const Workload& workload, MachineId id,
    const std::deque<Machine::RequestLogEntry>& request_log,
    const std::vector<Message>& network_log);

/// Checkpoint-accelerated offline replay: reconstructs machine `id` from
/// a mid-run MachineCheckpoint (partition records + volatile cache /
/// storage-service state captured at a quiescent epoch boundary) plus
/// only the log *suffix* recorded after that capture. Must produce
/// byte-identical results and final partition state to the full-log
/// overload above — replay work is O(epochs since the checkpoint)
/// instead of O(run length). A never-captured checkpoint (epoch() == 0)
/// degrades to the full-log formulation: the seeded records are the
/// loaded database and the suffix is the whole log.
ReplayResult ReplayMachine(
    const Workload& workload, MachineId id,
    const MachineCheckpoint& checkpoint,
    const std::deque<Machine::RequestLogEntry>& request_log_suffix,
    const std::vector<Message>& network_log_suffix);

/// Rebuilds one partition from its checkpoint: wipes `store` and streams
/// `checkpoint.records` back in. Recovery cost stays proportional to the
/// crashed machine's data — no other partition is touched. Returns the
/// number of records restored.
std::size_t RestorePartition(const MachineCheckpoint& checkpoint,
                             KvStore& store);

}  // namespace tpart

#endif  // TPART_RUNTIME_RECOVERY_H_
