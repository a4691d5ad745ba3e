#ifndef TPART_CACHE_CACHE_AREA_H_
#define TPART_CACHE_CACHE_AREA_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <tuple>
#include <vector>

#include "common/flat_map.h"
#include "common/stall_timeout.h"
#include "common/types.h"
#include "storage/record.h"

namespace tpart {

/// A machine's key-value cache area (§3.4, §5.2), "implemented above
/// the buffer manager of the storage engine" to hold objects written by
/// earlier local transactions or pushed from remote machines.
///
/// Three entry families, exactly as §5.2 describes:
///  * version entries <obj, source txn, destination txn> — one per
///    forward-push / local hand-off, read exactly once and invalidated by
///    that read;
///  * epoch entries <obj, sink#> (here additionally tagged with the
///    version txn) — published for transactions sunk in later rounds,
///    freed after all planned reads have been served;
///  * sticky entries <obj> — clean copies retained after a write-back for
///    a bounded number of sinking rounds, serving "immediate storage reads
///    after write" cheaply.
///
/// Internally synchronized. Readers probe without blocking: a machine's
/// loop parks the plan whose version is not here yet and resumes it when
/// a later dispatch supplies the version — this *is* the version-based
/// deterministic concurrency control ("the transaction stalls if the
/// object is not available in memory yet", §3.4). AwaitVersion() is the
/// blocking form for single-purpose callers (benchmarks, tests).
class CacheArea {
 public:
  /// Stores a version entry <key, version, dst> and wakes waiters.
  void PutVersion(ObjectKey key, TxnId version, TxnId dst, Record value);

  /// Consumes entry <key, version, dst> when present; nullopt otherwise.
  std::optional<Record> TakeVersion(ObjectKey key, TxnId version, TxnId dst);

  /// Blocks until entry <key, version, dst> exists, then consumes it.
  /// Returns nullopt after Shutdown(), or when `timeout` passes first.
  std::optional<Record> AwaitVersion(
      ObjectKey key, TxnId version, TxnId dst,
      std::chrono::microseconds timeout = kStallTimeout);

  /// Non-blocking probe of a version entry (does not consume).
  bool HasVersion(ObjectKey key, TxnId version, TxnId dst) const;

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

  /// Inserts/refreshes a sticky entry for `key` (§5.2), valid through
  /// sinking round `expire_epoch`.
  void PutSticky(ObjectKey key, TxnId version, Record value,
                 SinkEpoch expire_epoch);

  /// Returns the sticky value when present, version-matched, and not
  /// expired relative to `now_epoch`.
  std::optional<Record> ReadSticky(ObjectKey key, TxnId expected_version,
                                   SinkEpoch now_epoch) const;

  /// Drops sticky entries expired at `now_epoch`.
  void EvictExpiredSticky(SinkEpoch now_epoch);

  /// Releases every blocked reader (they observe nullopt). Used on
  /// machine shutdown / simulated failure.
  void Shutdown();

  /// Crash-recovery wipe: drops all entries (a crash loses the volatile
  /// cache area) and re-opens the cache after a Shutdown(). Cumulative
  /// counters (sticky hits, peak) are deliberately kept.
  void Reset();

  /// Checkpoint image of the cache: every live version, epoch, and sticky
  /// entry, in deterministic (key-sorted) order. Captured at a quiescent
  /// epoch boundary so a truncated-log replay can resume with exactly the
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
    struct StickyImage {
      ObjectKey key;
      Record value;
      TxnId version;
      SinkEpoch expire_epoch;
    };
    std::vector<VersionEntryImage> versions;
    std::vector<EpochEntryImage> epochs;
    std::vector<StickyImage> sticky;
  };

  /// Copies the full live state into an Image (caller must ensure no
  /// concurrent blocked readers are relying on entries being consumed —
  /// i.e. capture only at a drained epoch boundary).
  Image Capture() const;

  /// Replaces the cache contents with `image` and re-opens the cache.
  /// Cumulative counters are kept, mirroring Reset().
  void Restore(const Image& image);

  /// Removes and returns the sticky entry for `key`, if any (elastic
  /// migration source side: the sticky copy follows the record to its new
  /// home so post-cut immediate-reads-after-write still hit).
  std::optional<Image::StickyImage> ExtractSticky(ObjectKey key);

  /// Installs a migrated sticky entry (elastic migration target side).
  void InstallSticky(const Image::StickyImage& entry);

  // --- Introspection ---------------------------------------------------
  std::size_t num_version_entries() const;
  std::size_t num_epoch_entries() const;
  std::size_t num_sticky_entries() const;
  std::uint64_t sticky_hits() const { return sticky_hits_; }
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
  struct StickyEntry {
    Record value;
    TxnId version = kInvalidTxnId;
    SinkEpoch expire_epoch = 0;
  };

  std::optional<Record> TakeVersionLocked(
      const std::tuple<ObjectKey, TxnId, TxnId>& k);

  void NotePeakLocked() {
    const std::size_t live = versions_.size() + epochs_.size();
    if (live > peak_entries_) peak_entries_ = live;
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool shutdown_ = false;

  // Open-addressing tables (common/flat_map.h): entry churn on the
  // execution hot path stops allocating a tree node per entry. Capture()
  // sorts its output, preserving the deterministic checkpoint image the
  // ordered maps used to provide.
  FlatMap<std::tuple<ObjectKey, TxnId, TxnId>, Record> versions_;
  FlatMap<std::pair<ObjectKey, TxnId>, EpochEntry> epochs_;
  FlatMap<ObjectKey, StickyEntry> sticky_;

  std::size_t peak_entries_ = 0;
  mutable std::uint64_t sticky_hits_ = 0;
};

}  // namespace tpart

#endif  // TPART_CACHE_CACHE_AREA_H_
