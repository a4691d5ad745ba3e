#include "runtime/recovery.h"

#include <limits>

namespace tpart {

namespace {

/// Shared tail of both replay formulations: re-enqueue the logged plans
/// in log order (the machine's loop logged them as it ran them, so the
/// log is a valid execution order), run the loop to completion, and
/// collect results.
void RunReplay(Machine& machine,
               const RingQueue<Machine::RequestLogEntry>& request_log,
               ReplayResult& out) {
  for (const auto& entry : request_log) {
    machine.EnqueueTPartEpoch(entry.epoch, {entry.item});
  }
  machine.FinishEnqueue();
  machine.StartTPart();
  machine.JoinExecutor();
  machine.Stop();
  out.results = machine.TakeResults();
}

}  // namespace

ReplayResult ReplayMachine(
    const Workload& workload, MachineId id,
    const RingQueue<Machine::RequestLogEntry>& request_log,
    const std::vector<Message>& network_log) {
  ReplayResult out;
  // Checkpoint: reload the initial database (a real deployment would read
  // the latest checkpoint / fetch a replica snapshot; the log replay on
  // top is identical).
  out.store = std::make_unique<PartitionedStore>(
      workload.num_machines, workload.partition_map,
      /*maintain_ordered_index=*/true);
  workload.loader(*out.store);

  Machine machine(id, workload.num_machines, &out.store->store(id),
                  workload.procedures.get(),
                  [](std::vector<std::pair<MachineId, Message>>&) {
                    /* outbound suppressed */
                  });
  machine.set_replay(true);

  // Pre-deliver the logged inbound traffic; parking in the cache and the
  // storage service makes delivery order irrelevant.
  for (const Message& msg : network_log) {
    machine.Deliver(msg);
  }
  RunReplay(machine, request_log, out);
  return out;
}

ReplayResult ReplayMachine(
    const Workload& workload, MachineId id,
    const MachineCheckpoint& checkpoint,
    const RingQueue<Machine::RequestLogEntry>& request_log_suffix,
    const std::vector<Message>& network_log_suffix) {
  ReplayResult out;
  out.store = std::make_unique<PartitionedStore>(
      workload.num_machines, workload.partition_map,
      /*maintain_ordered_index=*/true);
  workload.loader(*out.store);

  // Replace the loaded partition with the checkpointed records: every
  // write-back up to the capture epoch is already folded in, so the log
  // suffix is all that remains to replay.
  KvStore& store = out.store->store(id);
  RestorePartition(checkpoint, store);

  Machine machine(id, workload.num_machines, &store,
                  workload.procedures.get(),
                  [](std::vector<std::pair<MachineId, Message>>&) {
                    /* outbound suppressed */
                  });
  machine.set_replay(true);
  // Volatile state as of the capture: cache entries, storage-service
  // parking, and in-flight pulls re-enter through the normal paths.
  machine.InstallCheckpoint(checkpoint);

  for (const Message& msg : network_log_suffix) {
    machine.Deliver(msg);
  }
  RunReplay(machine, request_log_suffix, out);
  return out;
}

std::size_t RestorePartition(const MachineCheckpoint& checkpoint,
                             KvStore& store) {
  std::vector<ObjectKey> keys;
  keys.reserve(store.size());
  store.Scan(0, std::numeric_limits<ObjectKey>::max(),
             [&](ObjectKey key, const Record&) { keys.push_back(key); });
  for (const ObjectKey key : keys) {
    // Cannot miss: every key came from the Scan() one loop up.
    (void)store.Delete(key);
  }
  for (const auto& [key, value] : checkpoint.records) store.Upsert(key, value);
  return checkpoint.records.size();
}

}  // namespace tpart
