#ifndef TPART_RUNTIME_MACHINE_CHECKPOINT_H_
#define TPART_RUNTIME_MACHINE_CHECKPOINT_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "cache/cache_area.h"
#include "common/flat_map.h"
#include "common/types.h"
#include "runtime/channel.h"
#include "runtime/storage_service.h"
#include "storage/kv_store.h"
#include "storage/record.h"

namespace tpart {

/// One machine's durable checkpoint: everything Machine::Recover() (or
/// offline ReplayMachine()) needs to resume from epoch E instead of from
/// the initial load.
///
///  * `records` — one copy of the partition's data, maintained
///    incrementally: each capture folds only the keys written back since
///    the previous capture (FoldRecords), so a capture costs O(dirty),
///    not O(partition). Capture runs at a drained epoch boundary, so no
///    write races it and no second copy is needed to snapshot under
///    concurrent writes.
///  * `storage` — the storage version discipline (current tags, parked
///    write-backs, parked remote reads as their requesters' tags; a local
///    read is a probe and never parks), keyed by object and maintained
///    the same way: each capture overwrites the entries of the keys whose
///    state changed since the previous capture and erases the entries of
///    keys that lost their state (StorageService::FoldChanges).
///  * `cache` — the cache area's live version and epoch entries, copied
///    whole at each capture (bounded by the in-flight working set, not by
///    the run).
///  * `parked_pulls` — remote cache pulls the machine had parked waiting
///    for a local publish; re-injected (marked `redelivery`) at restore.
///  * `responses` — read responses received but not yet consumed, sorted
///    by request id. A round's reads are requested when it arrives, so
///    responses for rounds past the capture may already be here, and the
///    capture truncates the network log that delivered them.
///  * `results` — the transaction results accumulated up to the capture.
///    Replaying only the suffix cannot regenerate the truncated prefix's
///    results, so the capture carries them; each capture appends only the
///    results added since the previous one.
///
/// Thread-safety: capture and restore both run on the machine's loop
/// thread (a cadence capture at a drained boundary, the migration cut's
/// on a capturing service fence, a restore inside Recover()), so the
/// checkpoint needs no lock; other threads read it after the run.
struct MachineCheckpoint {
  FlatMap<ObjectKey, Record> records;
  CacheArea::Image cache;
  StorageService::Image storage;
  std::vector<Message> parked_pulls;
  std::vector<std::pair<std::uint64_t, Record>> responses;
  std::vector<TxnResult> results;

  // --- capture statistics (read after the run joins) -------------------
  std::uint64_t captures_taken = 0;
  std::uint64_t records_captured = 0;
  std::uint64_t state_keys_captured = 0;
  std::uint64_t capture_us = 0;
  std::uint64_t truncated_request_entries = 0;
  std::uint64_t truncated_network_messages = 0;

  /// Refreshes `records` for the `written` keys from `store`: a key the
  /// store holds is upserted, a key it lacks is erased. Returns the
  /// number of keys folded.
  std::size_t FoldRecords(const KvStore& store,
                          const std::vector<ObjectKey>& written) {
    for (const ObjectKey key : written) {
      Result<Record> value = store.Read(key);
      if (value.ok()) {
        records[key] = std::move(value).value();
      } else {
        records.erase(key);
      }
    }
    return written.size();
  }

  /// Epoch this checkpoint covers: every effect of sink rounds <= epoch()
  /// is inside the images; replay needs only the log suffix past it.
  /// 0 = the initial load-time checkpoint (full replay).
  SinkEpoch epoch() const { return epoch_; }
  void set_epoch(SinkEpoch e) { epoch_ = e; }

 private:
  SinkEpoch epoch_ = 0;
};

}  // namespace tpart

#endif  // TPART_RUNTIME_MACHINE_CHECKPOINT_H_
