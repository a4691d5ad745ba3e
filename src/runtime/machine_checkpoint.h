#ifndef TPART_RUNTIME_MACHINE_CHECKPOINT_H_
#define TPART_RUNTIME_MACHINE_CHECKPOINT_H_

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "cache/cache_area.h"
#include "common/types.h"
#include "runtime/channel.h"
#include "runtime/storage_service.h"
#include "storage/zigzag_checkpoint.h"

namespace tpart {

/// One machine's durable checkpoint: everything Machine::Recover() (or
/// offline ReplayMachine()) needs to resume from epoch E instead of from
/// the initial load.
///
///  * `records` — the partition's data, maintained incrementally: each
///    capture folds only the keys written back since the previous capture
///    into the zig-zag image (ZigZagCheckpointStore::ApplyDirty), so a
///    capture costs O(dirty), not O(partition).
///  * `storage` — the storage version discipline (current tags, parked
///    write-backs, parked remote reads), keyed by object and maintained
///    the same way: each capture overwrites the entries of the keys whose
///    state changed since the previous capture and erases the entries of
///    keys that lost their state (StorageService::FoldChanges).
///  * `cache` — the live cache entries, copied whole at each capture
///    (bounded by the in-flight working set, not by the run).
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
/// Thread-safety: capture runs on the victim's service thread; restore
/// runs on the watchdog thread strictly after the victim crashed (its
/// threads quiesced), so the two never overlap. The only field read
/// concurrently is `epoch_` (the dissemination stage reads it to compute
/// the resend-window prune bound), hence the atomic.
struct MachineCheckpoint {
  ZigZagCheckpointStore records;
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

  /// Epoch this checkpoint covers: every effect of sink rounds <= epoch()
  /// is inside the images; replay needs only the log suffix past it.
  /// 0 = the initial load-time checkpoint (full replay).
  SinkEpoch epoch() const { return epoch_.load(std::memory_order_acquire); }
  void set_epoch(SinkEpoch e) { epoch_.store(e, std::memory_order_release); }

 private:
  std::atomic<SinkEpoch> epoch_{0};
};

}  // namespace tpart

#endif  // TPART_RUNTIME_MACHINE_CHECKPOINT_H_
