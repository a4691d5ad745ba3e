#ifndef TPART_RUNTIME_STORAGE_SERVICE_H_
#define TPART_RUNTIME_STORAGE_SERVICE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "common/types.h"
#include "storage/kv_store.h"

namespace tpart {

/// Sink epochs a storage-side sticky copy (§5.2) stays marked after the
/// write-back that made it (KeyState::sticky_expire).
inline constexpr SinkEpoch kStickyTtl = 2;

/// Home-machine storage front-end implementing T-Part's storage-side
/// version discipline:
///  * every record carries the tag of the transaction whose write-back
///    produced it (0 = initial load);
///  * a read names the exact tag it must observe (ReadStep::src_txn): the
///    local head plan probes with TryRead and re-probes after the next
///    dispatch; a remote read parks until that version is current;
///  * a write-back parks until (a) all earlier write-backs for the key
///    applied, and (b) its `awaits` count of reads of the previous version
///    have been served — so concurrent sinking rounds on different
///    machines can never overtake each other on storage.
/// Write-backs are the only storage writes. No UNDO log is kept: a
/// crashed partition is restored wholesale from its checkpoint before the
/// logs replay (§5.4).
///
/// Owned by one machine's loop thread: no other thread touches it while
/// the loop runs (the membership step scans StateKeys() behind a service
/// fence), so it takes no lock.
class StorageService {
 public:
  /// Identity of the remote requester behind a parked read; a checkpoint
  /// captures a parked read as its tag.
  struct RemoteReadTag {
    MachineId reply_to = kInvalidMachine;
    std::uint64_t req_id = 0;
    bool operator==(const RemoteReadTag&) const = default;
  };

  /// Answers a served remote read (the machine sends kStorageReadResp).
  /// Runs inside whichever call made the read current (RemoteRead,
  /// TryRead or ApplyWriteBack); it must not call back into the service.
  using ReplyFn = std::function<void(const RemoteReadTag&, Record)>;

  StorageService(KvStore* store, ReplyFn reply)
      : store_(store), reply_(std::move(reply)) {}

  /// The head plan's probe: the version of `key` tagged `expected`, when
  /// it is current — the read is then served, counted toward the next
  /// write-back's `awaits` gate, and the key drained. nullopt otherwise;
  /// a miss creates no state, counts no read and parks nothing.
  std::optional<Record> TryRead(ObjectKey key, TxnId expected);

  /// A remote requester's read: served now, or parked (as its tag alone)
  /// until `expected` is current. Either way the value reaches the reply
  /// function.
  void RemoteRead(ObjectKey key, TxnId expected, RemoteReadTag tag);

  /// Applies (or parks) the write-back of `version` of `key`, which
  /// replaces storage version `replaces` (strict replacement order).
  void ApplyWriteBack(ObjectKey key, TxnId version, TxnId replaces,
                      Record value, std::uint32_t awaits, bool sticky,
                      SinkEpoch epoch);

  /// Crash-recovery wipe: forgets every version gate, parked read and
  /// parked write-back. The underlying KvStore is restored separately
  /// (checkpoint); replaying the request/network logs rebuilds the version
  /// discipline from the initial state, exactly like a fresh machine.
  /// Cumulative counters (reads served, write-backs applied) are
  /// deliberately kept.
  void Reset();

  /// A write-back parked until its gates open.
  struct ParkedWriteBack {
    TxnId version;
    TxnId replaces;
    Record value;
    std::uint32_t awaits;
    bool sticky;
    SinkEpoch epoch;
    bool operator==(const ParkedWriteBack&) const = default;
  };
  /// A remote read parked until `expected` is current.
  struct ParkedRemoteRead {
    TxnId expected;
    RemoteReadTag tag;
    bool operator==(const ParkedRemoteRead&) const = default;
  };

  /// Checkpoint image of the version discipline, keyed by object: per-key
  /// current tag, read counts, sticky state, parked write-backs (sorted by
  /// `replaces`) and parked remote reads. Built up incrementally by
  /// FoldChanges() at quiescent epoch boundaries. A hash map, so a fold
  /// costs a probe per changed key however many keys the image holds; its
  /// iteration order is unspecified (Restore() does not depend on it).
  struct Image {
    struct KeyImage {
      TxnId current;
      std::uint32_t reads_served_since_wb;
      bool has_sticky;
      SinkEpoch sticky_expire;
      std::vector<ParkedWriteBack> parked_wbs;
      std::vector<ParkedRemoteRead> parked_remote_reads;
      bool operator==(const KeyImage&) const = default;
    };
    FlatMap<ObjectKey, KeyImage> keys;
  };

  /// Incremental capture: folds every key whose state changed since the
  /// previous fold (or Reset()/Restore()) into `image` — overwriting its
  /// entry, or erasing it when the key no longer has state — and appends
  /// to `written` the keys whose store record may have changed (the input
  /// of MachineCheckpoint::FoldRecords). Costs O(keys changed), not
  /// O(keys). Returns the number of image entries written or erased.
  std::size_t FoldChanges(Image& image, std::vector<ObjectKey>& written);

  /// Replaces the version-discipline state with `image`; its parked
  /// remote reads are answered through the reply function once served.
  /// The next FoldChanges() starts from `image`. Cumulative counters are
  /// kept, mirroring Reset().
  void Restore(const Image& image);

  /// Per-key migration state, extracted from a quiesced source machine.
  struct MigratedKeyState {
    ObjectKey key = 0;
    TxnId current = kInvalidTxnId;
    std::uint32_t reads_served_since_wb = 0;
    bool has_sticky = false;
    SinkEpoch sticky_expire = 0;
  };

  /// Keys with any version-discipline state (sorted). The migration
  /// control plane unions this with the store's keys so moved keys whose
  /// record was deleted still carry their current-version tag across.
  std::vector<ObjectKey> StateKeys() const;

  /// Removes and returns the version-discipline state of `keys` (elastic
  /// migration source side, at a quiesced barrier: parked reads and
  /// parked write-backs for moved keys must be empty — CHECK). Keys with
  /// no state entry are skipped; they carry default state on both sides.
  /// Every key in `keys` is marked changed — the caller moves their
  /// records away — so the next fold drops them from the image and
  /// refreshes their records.
  std::vector<MigratedKeyState> ExtractKeys(const std::vector<ObjectKey>& keys);

  /// Installs migrated key state (elastic migration target side) and
  /// marks each key changed so the next fold adds it to the image.
  void InstallKeys(const std::vector<MigratedKeyState>& keys);

  /// Marks the records of `keys` written without touching their state:
  /// migration upserts store records directly at the target, and the
  /// post-migration forced checkpoint must fold them even for keys that
  /// have no version-discipline state.
  void MarkDirty(const std::vector<ObjectKey>& keys);

  std::uint64_t sticky_hits() const { return sticky_hits_; }
  std::uint64_t reads_served() const { return reads_served_total_; }
  std::uint64_t write_backs_applied() const { return write_backs_applied_; }

 private:
  struct KeyState {
    TxnId current = kInvalidTxnId;  // 0 = initial version
    std::uint32_t reads_served_since_wb = 0;
    std::vector<ParkedRemoteRead> parked_reads;
    // A write-back applies only when the version it replaces is current.
    // At most a handful park per key, so a flat vector (linear search on
    // `replaces`) beats a node-based map; FoldChanges() sorts the image
    // copy by `replaces` so an image does not depend on arrival order.
    std::vector<ParkedWriteBack> parked_wbs;
    // Sticky copy of the current version (§5.2).
    bool has_sticky = false;
    // kStateChanged | kRecordWritten bits set since the key was last
    // folded; sits in has_sticky's padding, keeping the struct 80 bytes.
    std::uint8_t changed = 0;
    SinkEpoch sticky_expire = 0;
  };
  static constexpr std::uint8_t kStateChanged = 1;
  static constexpr std::uint8_t kRecordWritten = 2;

  // Flags `key` for the next FoldChanges(), listing it the first time
  // since its last fold.
  void Mark(ObjectKey key, KeyState& st, std::uint8_t bits) {
    if (st.changed == 0) changed_keys_.push_back(key);
    st.changed |= bits;
  }

  /// Serves one read of the current version of `key`.
  Record Serve(ObjectKey key, KeyState& st);
  /// Serves the parked reads of the current version and applies every
  /// write-back whose gates open, until neither makes progress.
  void DrainKey(ObjectKey key, KeyState& st);
  /// Applies a write-back whose gates are open: `value` (absent = delete)
  /// becomes the current version `version` of `key`.
  void Install(ObjectKey key, KeyState& st, TxnId version, Record&& value,
               bool sticky, SinkEpoch epoch);

  KvStore* store_;
  ReplyFn reply_;
  FlatMap<ObjectKey, KeyState> keys_;
  // Keys to visit at the next FoldChanges(): each key whose `changed`
  // bits went non-zero, plus each key whose state was extracted or whose
  // record migration moved while it had no state (those may repeat).
  std::vector<ObjectKey> changed_keys_;
  std::uint64_t sticky_hits_ = 0;
  std::uint64_t reads_served_total_ = 0;
  std::uint64_t write_backs_applied_ = 0;
};

}  // namespace tpart

#endif  // TPART_RUNTIME_STORAGE_SERVICE_H_
