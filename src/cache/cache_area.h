#ifndef TPART_CACHE_CACHE_AREA_H_
#define TPART_CACHE_CACHE_AREA_H_

#include <cstdint>
#include <optional>
#include <tuple>
#include <vector>

#include "common/flat_map.h"
#include "common/types.h"
#include "storage/record.h"

namespace tpart {

/// A machine's key-value cache area (§3.4, §5.2), "implemented above
/// the buffer manager of the storage engine" to hold objects written by
/// earlier local transactions or pushed from remote machines.
///
/// Two entry families, as §5.2 describes:
///  * version entries <obj, source txn, destination txn> — one per
///    forward-push / local hand-off, read exactly once and invalidated by
///    that read;
///  * epoch entries <obj, sink#> (here additionally tagged with the
///    version txn) — published for transactions sunk in later rounds,
///    freed after all planned reads have been served.
/// (§5.2's sticky entries are modelled by the DES, sim/tpart_sim.cc; the
/// runtime's storage service keeps only their per-key flags.)
///
/// Owned by one machine's loop thread, so it takes no lock. Readers probe
/// without blocking: the loop parks the plan whose version is not here
/// yet and resumes it when a later dispatch supplies the version — this
/// *is* the version-based deterministic concurrency control ("the
/// transaction stalls if the object is not available in memory yet",
/// §3.4).
class CacheArea {
 public:
  /// Stores a version entry <key, version, dst>.
  void PutVersion(ObjectKey key, TxnId version, TxnId dst, Record value);

  /// Consumes entry <key, version, dst> when present; nullopt otherwise.
  std::optional<Record> TakeVersion(ObjectKey key, TxnId version, TxnId dst);

  /// Alias of TakeVersion, kept for the perfbench cache probe.
  std::optional<Record> AwaitVersion(ObjectKey key, TxnId version,
                                     TxnId dst) {
    return TakeVersion(key, version, dst);
  }

  /// Publishes epoch entry <key, version> (the paper's <obj, sink#>).
  void PublishEpochEntry(ObjectKey key, TxnId version, SinkEpoch epoch,
                         Record value);

  /// Serves one read of epoch entry <key, version> when present; nullopt
  /// otherwise (the machine parks the plan or remote pull until the entry
  /// is published). When `invalidate` is set, this read also announces
  /// the entry's final read count `total_reads`; the entry is freed once
  /// that many reads (including earlier and still-outstanding ones) have
  /// been served.
  std::optional<Record> TryEpochEntry(ObjectKey key, TxnId version,
                                      bool invalidate,
                                      std::uint32_t total_reads);

  /// Crash-recovery wipe: drops all entries (a crash loses the volatile
  /// cache area). The peak counter is deliberately kept.
  void Reset();

  /// Checkpoint image of the cache: every live version and epoch entry,
  /// in deterministic (key-sorted) order. Captured at a quiescent epoch
  /// boundary so a truncated-log replay can resume with exactly the
  /// entries the suffix expects to find.
  struct Image {
    struct VersionEntryImage {
      ObjectKey key;
      TxnId version;
      TxnId dst;
      Record value;
    };
    struct EpochEntryImage {
      ObjectKey key;
      TxnId version;
      Record value;
      SinkEpoch epoch;
      std::uint32_t reads_served;
      std::uint32_t total_reads;
    };
    std::vector<VersionEntryImage> versions;
    std::vector<EpochEntryImage> epochs;
  };

  /// Copies the full live state into an Image.
  Image Capture() const;

  /// Replaces the cache contents with `image`. The peak counter is kept,
  /// mirroring Reset().
  void Restore(const Image& image);

  // --- Introspection ---------------------------------------------------
  std::size_t num_version_entries() const { return versions_.size(); }
  std::size_t num_epoch_entries() const { return epochs_.size(); }
  /// High-water mark of live (version + epoch) entries; the §5.2 claim is
  /// that this stays proportional to the assigned working set.
  std::size_t peak_entries() const { return peak_entries_; }

 private:
  struct EpochEntry {
    Record value;
    SinkEpoch epoch = 0;
    std::uint32_t reads_served = 0;
    // 0 until the invalidating read announces the total.
    std::uint32_t total_reads = 0;
  };

  void NotePeak() {
    const std::size_t live = versions_.size() + epochs_.size();
    if (live > peak_entries_) peak_entries_ = live;
  }

  // Open-addressing tables (common/flat_map.h): entry churn on the
  // execution hot path stops allocating a tree node per entry. Capture()
  // sorts its output, preserving the deterministic checkpoint image the
  // ordered maps used to provide.
  FlatMap<std::tuple<ObjectKey, TxnId, TxnId>, Record> versions_;
  FlatMap<std::pair<ObjectKey, TxnId>, EpochEntry> epochs_;

  std::size_t peak_entries_ = 0;
};

}  // namespace tpart

#endif  // TPART_CACHE_CACHE_AREA_H_
