#ifndef TPART_RUNTIME_STORAGE_SERVICE_H_
#define TPART_RUNTIME_STORAGE_SERVICE_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <vector>

#include "common/flat_map.h"
#include "common/types.h"
#include "storage/kv_store.h"

namespace tpart {

/// Sink epochs a sticky copy (§5.2) stays readable after the write-back
/// that made it: storage keeps it this long, and each machine's cache
/// evicts sticky entries older than this.
inline constexpr SinkEpoch kStickyTtl = 2;

/// Home-machine storage front-end implementing T-Part's storage-side
/// version discipline:
///  * every record carries the tag of the transaction whose write-back
///    produced it (0 = initial load);
///  * a read names the exact tag it must observe (ReadStep::src_txn) and
///    parks until that version is current;
///  * a write-back parks until (a) all earlier write-backs for the key
///    applied, and (b) its `awaits` count of reads of the previous version
///    have been served — so concurrent sinking rounds on different
///    machines can never overtake each other on storage.
/// Write-backs are the only storage writes; applied values also feed the
/// sticky cache (§5.2). No UNDO log is kept: a crashed partition is
/// restored wholesale from its checkpoint before the logs replay (§5.4).
class StorageService {
 public:
  explicit StorageService(KvStore* store) : store_(store) {}

  using ReadDone = std::function<void(Record)>;

  /// Identity of the remote requester behind a parked read. A read that
  /// carries a tag can be reconstructed after a crash (the reply callback
  /// is rebuilt from the tag); untagged reads belong to the local head
  /// plan and never survive a checkpoint (no plan is mid-gather at
  /// capture).
  struct RemoteReadTag {
    MachineId reply_to = kInvalidMachine;
    std::uint64_t req_id = 0;
    bool operator==(const RemoteReadTag&) const = default;
  };

  /// Serves (possibly later) the version of `key` tagged
  /// `expected_version`. `done` runs inline, or later on the thread of
  /// the ApplyWriteBack call that makes the version current (a machine's
  /// loop), or on the Shutdown() caller; it must be lightweight.
  /// `remote` identifies a remote requester (see RemoteReadTag).
  void AsyncRead(ObjectKey key, TxnId expected_version, ReadDone done,
                 std::optional<RemoteReadTag> remote = std::nullopt);

  /// Applies (or parks) the write-back of `version` of `key`, which
  /// replaces storage version `replaces` (strict replacement order).
  void ApplyWriteBack(ObjectKey key, TxnId version, TxnId replaces,
                      Record value, std::uint32_t awaits, bool sticky,
                      SinkEpoch epoch);

  /// Closes the service (machine shutdown or a failed run). Local
  /// (untagged) readers, parked or arriving later, observe
  /// Record::Absent(); remote-tagged reads are dropped unanswered, so an
  /// absent placeholder never reaches a peer that is still executing —
  /// the requester releases its own wait when it drains.
  void Shutdown();

  /// Crash-recovery wipe: forgets every version gate, parked read and
  /// parked write-back and re-opens a previously Shutdown() service. The
  /// underlying KvStore is restored separately (checkpoint); replaying
  /// the request/network logs rebuilds the version discipline from the
  /// initial state, exactly like a fresh machine. Cumulative counters
  /// (reads served, write-backs applied) are deliberately kept.
  void Reset();

  /// Checkpoint image of the version discipline, keyed by object: per-key
  /// current tag, read counts, sticky state, parked write-backs (as plain
  /// data, sorted by `replaces`), and parked *remote* reads (as
  /// reconstruction tags). Built up incrementally by FoldChanges() at
  /// quiescent epoch boundaries; any untagged (local-plan) parked read
  /// on a folded key is a bug and CHECK-fails. A hash map, so a fold costs
  /// a probe per changed key however many keys the image holds; its
  /// iteration order is unspecified (Restore() does not depend on it).
  struct Image {
    struct ParkedWbImage {
      TxnId version;
      TxnId replaces;
      Record value;
      std::uint32_t awaits;
      bool sticky;
      SinkEpoch epoch;
      bool operator==(const ParkedWbImage&) const = default;
    };
    struct ParkedRemoteRead {
      TxnId expected;
      RemoteReadTag tag;
      bool operator==(const ParkedRemoteRead&) const = default;
    };
    struct KeyImage {
      TxnId current;
      std::uint32_t reads_served_since_wb;
      bool has_sticky;
      SinkEpoch sticky_expire;
      std::vector<ParkedWbImage> parked_wbs;
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

  /// Rebuilds a ReadDone reply callback from a RemoteReadTag at restore.
  using MakeRemoteDone = std::function<ReadDone(const RemoteReadTag&)>;

  /// Replaces the version-discipline state with `image` and re-opens the
  /// service; parked remote reads get fresh callbacks via `make_done`.
  /// The next FoldChanges() starts from `image`. Cumulative counters are
  /// kept, mirroring Reset().
  void Restore(const Image& image, const MakeRemoteDone& make_done);

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

  std::uint64_t sticky_hits() const;
  std::uint64_t reads_served() const;
  std::uint64_t write_backs_applied() const;

 private:
  struct ParkedRead {
    TxnId expected;
    ReadDone done;
    std::optional<RemoteReadTag> remote;
  };
  struct ParkedWb {
    TxnId version;
    TxnId replaces;
    Record value;
    std::uint32_t awaits;
    bool sticky;
    SinkEpoch epoch;
  };
  struct KeyState {
    TxnId current = kInvalidTxnId;  // 0 = initial version
    std::uint32_t reads_served_since_wb = 0;
    std::vector<ParkedRead> parked_reads;
    // A write-back applies only when the version it replaces is current.
    // At most a handful park per key, so a flat vector (linear search on
    // `replaces`) beats a node-based map; FoldChanges() sorts the image
    // copy by `replaces` so an image does not depend on arrival order.
    std::vector<ParkedWb> parked_wbs;
    // Sticky copy of the current version (§5.2).
    bool has_sticky = false;
    // kStateChanged | kRecordWritten bits set since the key was last
    // folded; sits in has_sticky's padding, keeping the struct 80 bytes.
    std::uint8_t changed = 0;
    SinkEpoch sticky_expire = 0;
  };
  static constexpr std::uint8_t kStateChanged = 1;
  static constexpr std::uint8_t kRecordWritten = 2;

  // mu_ held: flags `key` for the next FoldChanges(), listing it the
  // first time since its last fold.
  void MarkLocked(ObjectKey key, KeyState& st, std::uint8_t bits) {
    if (st.changed == 0) changed_keys_.push_back(key);
    st.changed |= bits;
  }

  // mu_ held; returns callbacks to run after unlock.
  void DrainKeyLocked(ObjectKey key, KeyState& st,
                      std::vector<std::pair<ReadDone, Record>>& ready);
  Record CurrentValueLocked(ObjectKey key, const KeyState& st);

  mutable std::mutex mu_;
  bool shutdown_ = false;
  KvStore* store_;
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
