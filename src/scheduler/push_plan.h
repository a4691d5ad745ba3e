#ifndef TPART_SCHEDULER_PUSH_PLAN_H_
#define TPART_SCHEDULER_PUSH_PLAN_H_

#include <string>
#include <vector>

#include "common/types.h"

namespace tpart {

/// Where a planned read obtains its version (§3.4, §5.2).
enum class ReadSourceKind {
  /// From the storage engine on `src_machine` (the record's home).
  /// The executor must first wait until that machine has applied
  /// write-backs up to `storage_min_epoch`.
  kStorage,
  /// From a forward-push entry <key, src_txn, this> sent by a *remote*
  /// machine; the executor stalls until the push arrives.
  kPush,
  /// From a local cache entry <key, src_txn, this> written by an earlier
  /// transaction on the same machine (same mechanism as kPush, no network).
  kLocalVersion,
  /// From a cache entry <key, sink#=cache_epoch> on this machine.
  kCacheLocal,
  /// From a cache entry <key, sink#=cache_epoch> on a *remote* machine:
  /// a pull the reader's machine requests when the round arrives and its
  /// executor awaits (this is the case T-graph partitioning tries to
  /// minimise by co-locating readers with the cache).
  kCacheRemote,
};

/// One planned read of `key` by a transaction.
struct ReadStep {
  ObjectKey key = 0;
  ReadSourceKind kind = ReadSourceKind::kStorage;
  /// Version tag: the transaction that wrote the version this read must
  /// see (0 = initial database load). For kPush/kLocalVersion it names the
  /// cache-entry key; for kStorage it validates sticky-cache hits.
  TxnId src_txn = kInvalidTxnId;
  /// kStorage: record home. kPush: pushing machine. kCache*: cache holder.
  MachineId src_machine = kInvalidMachine;
  /// Cache-entry sink number for kCacheLocal/kCacheRemote.
  SinkEpoch cache_epoch = 0;
  /// kStorage: the reader must observe all write-backs through this epoch.
  SinkEpoch storage_min_epoch = 0;
  /// This is the final planned reader of the cache entry; the executor
  /// invalidates the entry after reading (§5.2 "invalidate ... immediately").
  bool invalidate_entry = false;
  /// kStorage only: a sticky-cache entry for this version may exist
  /// locally; the executor may serve the read from it (§5.2).
  bool sticky_hint = false;
  /// Transaction that will *deliver* the version. Equal to src_txn except
  /// after plan optimisation (§4.3), where a co-located earlier reader
  /// relays the version instead of the remote writer.
  TxnId provider_txn = kInvalidTxnId;
  /// Valid when invalidate_entry: total reads ever planned against the
  /// entry. Executors may run rounds concurrently, so the holder frees
  /// the entry only after serving this many reads — not merely when the
  /// flagged read arrives.
  std::uint32_t entry_total_reads = 0;
};

/// After commit (or abort, §5.3), send the version of `key` this
/// transaction holds to `dst_txn` on `dst_machine` as entry
/// <key, this, dst_txn>.
struct PushStep {
  ObjectKey key = 0;
  TxnId dst_txn = kInvalidTxnId;
  MachineId dst_machine = kInvalidMachine;
  /// Version tag carried by the entry (<key, version_txn, dst_txn>). The
  /// writer itself unless this push is a plan-optimisation relay.
  TxnId version_txn = kInvalidTxnId;
};

/// Write the version locally as cache entry <key, this, dst_txn> for a
/// later transaction on the same machine.
struct LocalVersionStep {
  ObjectKey key = 0;
  TxnId dst_txn = kInvalidTxnId;
  /// Version tag (see PushStep::version_txn).
  TxnId version_txn = kInvalidTxnId;
};

/// Publish the version as cache entry <key, sink#=epoch> for transactions
/// to be sunk in later rounds (the §3.4 forward-push -> cache-access edge
/// transformation).
struct CachePublishStep {
  ObjectKey key = 0;
  SinkEpoch epoch = 0;
};

/// Write the version back to the storage holding `key` (possibly remote).
/// Write-backs are the only storage writes in T-Part; §5.4 replay
/// re-applies them on top of the checkpoint (a remote one from the home's
/// network log, a local one by re-running its plan). When `make_sticky`,
/// the home machine also retains the value in its sticky cache (§5.2).
struct WriteBackStep {
  ObjectKey key = 0;
  MachineId home = kInvalidMachine;
  /// Version being persisted (for sticky-entry tagging).
  TxnId version_txn = kInvalidTxnId;
  bool make_sticky = false;
  /// Number of planned storage reads of the *previous* version that the
  /// home machine must serve before applying this write-back. Keeps
  /// readers of the old version from being overtaken when machines run
  /// different sinking rounds concurrently.
  std::uint32_t readers_to_await = 0;
  /// Storage version this write-back replaces (0 = initial load). The
  /// home applies write-backs for a key strictly in replacement order:
  /// only when `replaces_version` is the current storage version.
  TxnId replaces_version = kInvalidTxnId;
};

/// Complete execution plan for one sunk transaction.
struct TxnPlan {
  TxnId txn = kInvalidTxnId;
  /// Executor this transaction was assigned to by the T-graph partitioning.
  MachineId machine = kInvalidMachine;
  /// Declared read/write set sizes (for execution-cost accounting).
  std::uint32_t num_reads = 0;
  std::uint32_t num_writes = 0;
  std::vector<ReadStep> reads;
  std::vector<PushStep> pushes;
  std::vector<LocalVersionStep> local_versions;
  std::vector<CachePublishStep> cache_publishes;
  std::vector<WriteBackStep> write_backs;

  std::string ToString() const;
};

/// Output of one sinking round: plans for every sunk (non-dummy)
/// transaction, in total order. Each machine executes the subset with
/// plan.machine == its id; the full plan is identical on every scheduler
/// (determinism requirement, §3.3).
struct SinkPlan {
  SinkEpoch epoch = 0;
  std::vector<TxnPlan> txns;

  /// Plans owned by `machine`.
  std::vector<const TxnPlan*> PlansFor(MachineId machine) const;

  /// Count of transactions whose reads include a remote source
  /// (kPush / kCacheRemote / remote kStorage).
  std::size_t NumDistributed() const;

  bool operator==(const SinkPlan& other) const;
};

bool operator==(const ReadStep& a, const ReadStep& b);
bool operator==(const PushStep& a, const PushStep& b);
bool operator==(const LocalVersionStep& a, const LocalVersionStep& b);
bool operator==(const CachePublishStep& a, const CachePublishStep& b);
bool operator==(const WriteBackStep& a, const WriteBackStep& b);
bool operator==(const TxnPlan& a, const TxnPlan& b);

}  // namespace tpart

#endif  // TPART_SCHEDULER_PUSH_PLAN_H_
