#ifndef TPART_RUNTIME_MACHINE_H_
#define TPART_RUNTIME_MACHINE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cache/cache_area.h"
#include "common/flat_map.h"
#include "common/ring_queue.h"
#include "common/status.h"
#include "common/stall_timeout.h"
#include "exec/serial_executor.h"
#include "runtime/channel.h"
#include "runtime/machine_checkpoint.h"
#include "runtime/storage_service.h"
#include "scheduler/push_plan.h"
#include "storage/kv_store.h"
#include "txn/procedure.h"
#include "txn/txn.h"

namespace tpart {

/// One machine of the threaded runtime, run by ONE loop thread. The loop
/// dispatches inbound messages (pushes, pulls, storage requests,
/// write-backs, peer reads) and, between dispatches, advances the head of
/// the machine's FIFO plan queue: its slice of each sinking round (T-Part
/// mode) or its relevant transactions in total order (Calvin mode). The
/// head plan gathers its reads through non-blocking probes and parks at
/// its first missing read; the dispatch that supplies the read resumes it
/// (the version-based CC, §3.4/§5.2: a transaction stalls until the
/// version it names is in memory). In T-Part mode the loop also requests
/// each round's remote reads (kCacheRemote pulls and remote kStorage
/// reads) as the round arrives, so their round trips overlap earlier
/// plans; a local storage read is a probe of the storage service when the
/// plan reaches the head.
///
/// The loop alone owns the machine's state, which takes no lock, except
/// a small status block under the machine's one mutex. Other threads
/// reach a running machine only through its inbound queue (Deliver(), a
/// service fence) and that block: epoch credits, fence sequence numbers,
/// the idle flag, crash time and resume epoch, the Recover() hand-off,
/// and the counters StallDiagnostic() prints, which the loop refreshes
/// before it blocks for a message. Everything else (work queue, results,
/// response table, stream state, migration state, cache area, storage
/// service, §5.4 logs) is read elsewhere only where the loop cannot be
/// writing it: before Start*(), after Stop(), after JoinExecutor()
/// (results), or behind a FenceService() on a quiesced stream.
///
/// Everything the machine sends (read requests and responses, pushes,
/// write-backs, peer reads, migration chunks, watermark acks) is appended
/// to one loop-owned outbox, which the loop hands to the send-batch
/// function once per turn: after each inbound batch it dispatched and
/// after each plan it advanced. The outbox is empty whenever another
/// thread can act on the loop's state: the loop also flushes it before
/// it publishes its progress (the idle flag), releases an epoch credit,
/// marks a fence seen, crash-stops, blocks for a message, and shuts down.
///
/// Recovery support (§5.4): the machine logs the requests assigned to it
/// (after partitioning) and every inbound value-bearing message
/// (generalising the PUSH-log); see Replay in runtime/recovery.h. The
/// request log is also the work queue: the loop runs plans from a cursor
/// into it, so a crash keeps every round the machine received, and
/// recovery re-runs the prefix that had run before finishing the rest.
class Machine {
 public:
  /// The machine's one outbound path: one call per loop turn carries
  /// every (destination, message) pair the loop sent during the turn, in
  /// send order. The cluster routes it to Transport::SendBatch, so
  /// serialized transports coalesce each destination's share into one
  /// wire frame. Called on the loop thread only. The vector is borrowed
  /// loop scratch: implementations move the messages out but must leave
  /// the vector (and its capacity) behind.
  using SendBatchFn =
      std::function<void(std::vector<std::pair<MachineId, Message>>&)>;

  Machine(MachineId id, std::size_t num_machines, KvStore* store,
          const ProcedureRegistry* registry, SendBatchFn send_batch);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  // ---- Work intake ----------------------------------------------------
  struct PlanItem {
    TxnPlan plan;
    TxnSpec spec;
  };
  /// T-Part mode: appends the machine's slice of sinking round `epoch` to
  /// the request log, for offline replay. Live runs receive rounds as
  /// kSinkPlan messages. Call before StartTPart().
  void EnqueueTPartEpoch(SinkEpoch epoch, std::vector<PlanItem> items);
  /// Calvin mode: next relevant transaction in total order. Call before
  /// StartCalvin().
  void EnqueueCalvinTxn(TxnSpec spec);
  /// No more work will arrive; JoinExecutor() returns once the queue
  /// drains. Call before Start*(): a started machine's stream ends with
  /// a kPlanStreamEnd message.
  void FinishEnqueue();

  // ---- Streaming intake (kSinkPlan/kPlanStreamEnd over the transport) --
  /// Bounds the number of sinking rounds in flight at this machine
  /// (disseminated but not fully executed); at least 1. Must be set
  /// before StartTPart().
  void set_epoch_queue_capacity(std::size_t capacity) {
    epoch_queue_capacity_ = capacity;
  }
  /// Called by the dissemination stage before shipping a round here;
  /// blocks while `capacity` rounds are in flight — this is how execution
  /// backpressures the scheduler. A credit that never frees (the machine
  /// died and nobody recovers it) surfaces as kTimedOut after `timeout`
  /// instead of hanging dissemination forever.
  enum class CreditGrant { kGranted, kGrantedAfterWait, kTimedOut };
  CreditGrant AcquireEpochCreditFor(std::chrono::microseconds timeout);
  /// Deepest the in-flight-round window ever got.
  std::size_t epoch_queue_high_water() const;
  /// Rounds currently in flight (disseminated but not fully executed) —
  /// the live sampler's per-machine depth gauge.
  std::size_t epochs_in_flight() const;
  /// Most messages ever delivered here but not yet taken by the loop
  /// (pipeline depth gauge).
  std::size_t inbound_queue_high_water() const { return inbound_.high_water(); }

  /// Invoked (from the machine's loop thread) with each transaction's id
  /// as its result is recorded — admission-to-commit latency tracking.
  /// Set before StartTPart(); clear (nullptr) after JoinExecutor().
  void set_commit_hook(std::function<void(TxnId)> hook) {
    commit_hook_ = std::move(hook);
  }

  /// Causal-timeline sampling stride (--txn-sample=1/N): transactions with
  /// id % every == 0 emit async trace events at receive/execute so their
  /// end-to-end timeline stitches across machines (obs/trace_context.h).
  /// 0 disables. Set before Start*().
  void set_txn_sample(std::uint64_t every) { txn_sample_ = every; }

  /// Start the machine's one loop thread.
  void StartTPart();
  void StartCalvin();
  /// Blocks until the loop reports itself idle: every plan has run and no
  /// more will arrive (the stream end, or FinishEnqueue(), was seen), or
  /// a failed run (AbortPendingWaits) left the machine idle or down. A
  /// crashed machine is waited for through its recovery. The loop keeps
  /// serving messages until Stop().
  void JoinExecutor();
  /// Stops the loop thread (after it dispatched everything delivered
  /// before the call) and releases all waiters. The §5.4 logs, their byte
  /// peaks and the results are read after this.
  void Stop();

  /// Network intake (the cluster's transport sink): one transport
  /// delivery's messages, in send order, appended to the inbound queue
  /// under one lock. Leaves `msgs` empty.
  void Deliver(std::vector<Message>& msgs) { inbound_.Append(msgs); }
  /// One message (tests, offline replay).
  void Deliver(Message msg) { inbound_.Send(std::move(msg)); }

  /// Replay mode (§5.4): outbound messages are suppressed and the logged
  /// inbound messages must be re-Delivered by the caller.
  void set_replay(bool replay) { replay_ = replay; }

  /// Disables the §5.4 request/network logs (recovery becomes impossible
  /// but long runs keep memory bounded). Default on.
  void set_log_recording(bool on) { log_recording_ = on; }

  // ---- Crash injection & in-run recovery (§5.4 made live) -------------
  /// Deterministic crash-stop trigger; at most one of the fields is
  /// honoured per point. The loop runs plans in FIFO order, which makes
  /// the crash point, and hence the replay, deterministic.
  struct CrashPoint {
    /// Crash once sinking round `at_epoch` has fully executed here.
    SinkEpoch at_epoch = 0;
    /// Crash once this many plans have executed (may be mid-round).
    std::uint64_t after_txns = 0;
    /// Crash at startup, before any plan runs (the epoch-0 edge: the
    /// machine dies before the first sink round ships).
    bool at_start = false;
    bool armed() const {
      return at_epoch != 0 || after_txns != 0 || at_start;
    }
  };
  /// Arms the next crash trigger. May be called repeatedly before
  /// StartTPart() to queue a sequence of crash points (the chaos matrix:
  /// each fires after the previous crash's recovery); an `at_start`
  /// point must be the first queued.
  void ArmCrash(CrashPoint point);

  /// Arms straggler mode: the loop thread sleeps `delay_us` before
  /// processing a heartbeat, at most once per `period_us` — responses
  /// arrive near the detector deadline without ever fully stalling, so a
  /// correct detector must NOT declare this machine failed. Call before
  /// StartTPart().
  void ArmStraggler(std::uint64_t delay_us, std::uint64_t period_us);
  /// True from the crash-stop until recovery completes.
  bool crashed() const;
  std::chrono::steady_clock::time_point crash_time() const;
  /// First sinking round the crash left unfinished (the round before it
  /// is the last one that fully executed here).
  SinkEpoch resume_epoch() const;

  /// Rebuilds this machine in-run after a crash-stop, from its own logs.
  /// Hands the work to the machine's loop (through the status block, with
  /// a bare fence to wake it), which wipes the execution state (cache,
  /// storage service, read responses, results), restores the partition
  /// via `restore_partition` (checkpoint), re-delivers the network log
  /// plus any traffic that arrived while down, and re-runs the request
  /// log's prefix that had run with outbound traffic suppressed. The
  /// intake state survives the crash: the request log and its cursor,
  /// the reorder buffer, the stream position and end marker, so the rest
  /// of the log runs live behind the replay and nothing needs re-sending.
  /// Blocks until the replayed prefix has re-executed. Returns the number
  /// of replayed plans, or kUnavailable with a stall diagnostic when the
  /// replay has not drained within kStallTimeout; `restore_partition` is
  /// never called after Recover() returns. Watchdog thread only.
  [[nodiscard]] Result<std::size_t> Recover(
      const std::function<void()>& restore_partition);

  /// Sequence number of the latest kHeartbeat processed (0 before any);
  /// stalls while the machine is down — the failure detector's signal.
  std::uint64_t heartbeat_seen() const {
    return heartbeat_seen_.load(std::memory_order_acquire);
  }
  /// Plans executed so far (live + replayed).
  std::uint64_t executed_plans() const {
    return executed_plans_.load(std::memory_order_relaxed);
  }
  /// One-line snapshot of queue depths, stream progress and credit state
  /// for stall reports: the status block as the loop last published it.
  /// Any thread.
  std::string StallDiagnostic() const;
  /// Installs a cluster-level context provider whose output is appended
  /// to every StallDiagnostic() (per-link retry backlog, failure-detector
  /// suspicion levels). Must be thread-safe; the cluster clears it
  /// (nullptr) before the run frame unwinds. It runs under the status
  /// mutex, so once cleared no caller still holds it.
  void set_diagnostic_context(std::function<std::string()> context);

  // ---- Coordinator-term fencing (DESIGN §4j) --------------------------
  /// Highest coordinator term this machine has witnessed on any inbound
  /// message (0 before the first stamped message). Stream and migration
  /// control traffic carrying an older term is dropped — a deposed
  /// zombie leader cannot truncate or fork the new term's stream.
  std::uint64_t fence_term() const {
    return fence_term_.load(std::memory_order_acquire);
  }
  /// Stale-term control messages dropped by the fence.
  std::uint64_t fenced_messages() const {
    return fenced_messages_.load(std::memory_order_relaxed);
  }
  /// Marks the run failed so a doomed run (detected failure, no
  /// recovery) drains instead of hanging: the loop finishes every queued
  /// plan without gathering or running it, and credit and JoinExecutor()
  /// waiters are released. The machine keeps running; results are
  /// garbage and the caller reports the failure Status.
  void AbortPendingWaits();

  /// Key -> home machine, required by Calvin mode (peer sets and local
  /// writes are derived from data placement).
  void set_locator(std::function<MachineId(ObjectKey)> locate) {
    locate_ = std::move(locate);
  }

  // ---- Results & state ------------------------------------------------
  MachineId id() const { return id_; }
  /// Loop-owned: read after JoinExecutor() or Stop().
  std::vector<TxnResult> TakeResults();
  KvStore& store() { return *store_; }
  /// Loop-owned and unlocked: use them only where the loop cannot be
  /// writing them — before Start*(), after Stop(), or behind a
  /// FenceService() on a quiesced stream.
  CacheArea& cache() { return cache_; }
  StorageService& storage() { return storage_; }

  // ---- Recovery logs (read after Stop()) ------------------------------
  struct RequestLogEntry {
    SinkEpoch epoch;
    PlanItem item;
  };
  /// Every plan received since the last checkpoint capture, in execution
  /// order (empty without log recording once the run drained).
  const RingQueue<RequestLogEntry>& request_log() const {
    return request_log_;
  }
  const std::vector<Message>& network_log() const { return network_log_; }

  // ---- Periodic checkpointing & log truncation ------------------------
  /// Attaches the machine's durable checkpoint image and the capture
  /// cadence: every `every` sink epochs the loop captures `image` at the
  /// first drained epoch boundary — between dispatches, so every logged
  /// message is fully applied; the network log truncates to empty, the
  /// request log drops the plans that ran (rounds received past the
  /// capture stay queued), and later traffic forms the replay suffix.
  /// `every` = 0 disables periodic captures (the image still serves as
  /// the load-time checkpoint). T-Part only. Call before StartTPart().
  void ConfigureCheckpoint(MachineCheckpoint* image, SinkEpoch every);

  /// Restores the volatile images (cache area, storage version
  /// discipline, parked pulls, unconsumed read responses) from `cp` into
  /// a fresh machine — the offline ReplayMachine() counterpart of the
  /// in-run restore inside Recover(). The partition data (cp.records) is
  /// the caller's job.
  void InstallCheckpoint(const MachineCheckpoint& cp);

  /// High-water byte sizes of the §5.4 logs — the log-growth signal
  /// checkpoint truncation exists to bound. Read after Stop().
  std::size_t request_log_bytes_peak() const {
    return request_log_bytes_peak_;
  }
  std::size_t network_log_bytes_peak() const {
    return network_log_bytes_peak_;
  }

  // ---- Elastic migration (src/elastic) --------------------------------
  /// Per-machine migration counters; the cluster merges them into
  /// MigrationStats.
  struct MigrationCounters {
    std::uint64_t keys_moved_out = 0;
    std::uint64_t keys_moved_in = 0;
    std::uint64_t records_moved = 0;
    std::uint64_t bytes_shipped = 0;
    std::uint64_t chunks_shipped = 0;
    std::uint64_t duplicate_chunks_dropped = 0;
    std::uint64_t images_sent = 0;
    std::uint64_t images_installed = 0;
  };

  /// Migration-barrier quiesce: blocks until every disseminated round has
  /// fully executed here and the machine is live (all epoch credits
  /// released, no crash or replay in progress — this rides out a crash
  /// and its recovery, whose replay and queued rounds release the stuck
  /// credits). Returns at once on a failed run (AbortPendingWaits) or
  /// after Stop(). kUnavailable on timeout.
  [[nodiscard]] Status WaitStreamDrained(std::chrono::microseconds timeout);

  /// Posts a local kServiceFence through the inbound queue (never via the
  /// transport — it is not a wire message) and blocks until the loop
  /// dispatches it; every message delivered before the call has then been
  /// fully applied. A non-zero `capture_at` makes the fence capture the
  /// attached checkpoint image at that epoch on dispatch, truncating the
  /// §5.4 logs: the migration cut's forced capture (which keeps a later
  /// crash from replaying pre-cut traffic that resurrects moved-away
  /// keys). Capture only on a live machine whose stream is quiescent at
  /// `capture_at`; requires ConfigureCheckpoint. kUnavailable on timeout.
  [[nodiscard]] Status FenceService(std::chrono::microseconds timeout,
                                    SinkEpoch capture_at = 0);

  /// True once this machine, as migration source for `stream`, captured
  /// and shipped its partition image and dropped the moved keys.
  /// Loop-owned: read behind a FenceService() on a quiesced stream.
  bool MigrationSourceDone(std::uint64_t stream) const;
  /// True once this machine, as migration target for `stream`, verified
  /// the image checksum and installed every entry. Read like
  /// MigrationSourceDone().
  bool MigrationInstalled(std::uint64_t stream) const;
  /// Loop-owned: read after Stop().
  MigrationCounters migration_counters() const { return migration_counters_; }

 private:
  /// Machine lifecycle for crash injection. kDown: the loop stashes (does
  /// not process) inbound traffic and runs no plan. kRecovering: the
  /// replay runs; genuinely new traffic is logged again (a later crash
  /// must be able to replay it), while messages re-injected from the logs
  /// carry Message::redelivery and are not logged twice. Written only by
  /// the loop, under status_mu_ (Recover() and WaitStreamDrained() wait
  /// for kLive).
  enum class RunState { kLive, kDown, kRecovering };

  /// Gather progress of the head plan: `request_log_[next_plan_]` in
  /// T-Part mode, `calvin_work_.front()` in Calvin mode (loop only).
  struct Head {
    /// Reads gathered so far (T-Part), in plan order.
    std::size_t next_read = 0;
    /// Parked at read `parked_read` (Calvin: on its peer reads) since
    /// `parked_since`; past kStallTimeout the run fails.
    bool parked = false;
    std::size_t parked_read = 0;
    std::chrono::steady_clock::time_point parked_since{};
  };

  /// Loop-thread scratch (DESIGN §4h): the gathered values keep their
  /// capacity across plans.
  struct Scratch {
    ExecScratch exec;
    std::vector<ObjectKey> remote_keys;  // Calvin: keys peers push to us
  };

  void ServiceLoop();
  /// Takes the next batch of messages into the empty `batch` once none is
  /// pending: publishes the loop's progress and blocks, up to the parked
  /// head plan's stall deadline.
  void AwaitMessages(std::vector<Message>& batch);
  void Dispatch(Message msg);
  /// kDown: drops heartbeats, serves fences (and a pending Recover()),
  /// stashes everything else.
  void DispatchWhileDown(Message msg);
  /// Advances the head plan; true when a plan finished (the loop then
  /// dispatches pending messages before the next one).
  bool AdvanceTPart();
  bool AdvanceCalvin();
  /// Gathers the head's reads from `next_read` on; false when it parks.
  bool GatherHead();
  std::optional<Record> TakeResponse(std::uint64_t req_id);
  void NoteParked(std::size_t read_idx);
  [[noreturn]] void FailStall();
  /// Runs the gathered head plan: procedure, publish, bookkeeping.
  void FinishTPartPlan();
  /// Moves the cursor past the head plan, or drops the plan when the log
  /// is not kept. The head entry must not be read afterwards: a capture
  /// may erase it.
  void AdvanceCursor();
  /// True while the plans at the cursor re-run what ran before a crash.
  bool replaying() const { return replay_remaining_ > 0; }
  /// Records the head's result; returns true when its round fully
  /// drained (credit NOT yet released).
  bool CompletePlan(TxnResult result, SinkEpoch epoch);
  /// Clears the head once the plan's crash trigger has been checked, and
  /// publishes the idle flag when the last plan ran.
  void ReleaseHead();
  /// One replayed plan ran; the last one turns the machine live.
  void ReplayedOne();
  /// Appends `msg` to the outbox (dropped in offline replay, which is
  /// local).
  void SendOut(MachineId to, Message msg);
  /// Hands the outbox to send_batch_ in one call, if it holds anything.
  void FlushOutbox();
  void CrashStop(SinkEpoch resume);
  /// Wakes the loop (a zero-sequence fence) so it re-examines state a
  /// foreign thread changed: a failed run's drain, a Recover() request.
  void Wake();
  /// Recovery, on the loop: wipe, restore, and queue the replay.
  void RestoreAndReplay(const std::function<void()>& restore_partition);
  /// JoinExecutor()'s predicate, computed on the loop.
  bool Idle() const;
  /// Flushes the outbox, then copies the idle flag and the diagnostic
  /// counters into the status block when they changed since the last
  /// call; wakes the waiters when the idle flag did.
  void PublishProgress();

  /// Serves a remote cache pull, or parks it until the entry appears.
  void ServePull(Message req);
  /// Serves the pulls parked on <key, version> (its entry was published).
  void ServeParkedPulls(ObjectKey key, TxnId version);

  void CaptureCheckpoint(SinkEpoch epoch);
  /// Restores the results, unconsumed read responses, cache and storage
  /// images of `cp` (shared by recovery and InstallCheckpoint()).
  void RestoreImages(const MachineCheckpoint& cp);

  /// Appends one inbound message to the §5.4 network log (byte-counted).
  void LogNetworkMessage(const Message& msg);

  // Elastic-migration internals. Their messages are never network-logged:
  // migration state crosses machines exactly once, and the post-migration
  // forced checkpoint owns its durability.
  void HandleMigrateBegin(Message msg);
  void HandleImageChunk(Message msg);
  void HandleMigrateCommit(Message msg);
  void InstallMigration(std::uint64_t stream);

  // Streaming intake internals.
  void HandleSinkPlan(Message msg);
  void EnqueueStreamEpoch(SinkEpoch epoch, std::vector<PlanItem> items);
  /// Appends a round's plans to the request log.
  void QueuePlans(SinkEpoch epoch, std::vector<PlanItem>& items);
  /// Sends every kCacheReadReq and remote kStorageReadReq of `items`; the
  /// plans' gathers find the responses in responses_.
  void RequestRemoteReads(const std::vector<PlanItem>& items);
  /// Flushes the outbox, then returns one epoch credit.
  void ReleaseEpochCredit();

  MachineId id_;
  std::size_t num_machines_;
  KvStore* store_;
  const ProcedureRegistry* registry_;
  SendBatchFn send_batch_;
  bool replay_ = false;
  bool calvin_ = false;
  std::function<MachineId(ObjectKey)> locate_;

  CacheArea cache_;
  StorageService storage_;
  /// Inbound messages from peer loops (direct transport), the network
  /// receiver, the control plane and our own self-sends. The loop takes
  /// everything pending at once and dispatches it in order.
  Channel inbound_;

  // ---- Status block ---------------------------------------------------
  // The only state another thread reads or waits for while the loop
  // runs, under the machine's one mutex/condvar pair. The loop writes it
  // at each transition some thread waits for (a fence dispatched, a
  // round drained, idle, recovery live) and at crash-stop, and refreshes
  // the diagnostic counters before it blocks for a message and before a
  // stall fails the run. Waiters share the condvar; the loop notifies
  // only when a waited-on value changed.

  /// What the loop publishes of its own progress: JoinExecutor()'s idle
  /// flag and the counters StallDiagnostic() prints.
  struct Progress {
    bool idle = false;
    std::size_t work = 0;
    std::size_t rounds_in_progress = 0;
    bool finished_enqueue = false;
    std::size_t pending_rounds = 0;
    SinkEpoch next_epoch = 1;
    std::uint64_t dup_rounds_dropped = 0;
    std::size_t responses_pending = 0;
    std::size_t stashed = 0;
    bool operator==(const Progress&) const = default;
  };
  struct StatusBlock {
    // Epoch flow-control credits: rounds disseminated but not fully
    // executed here. Dissemination acquires, the loop releases.
    std::size_t credits_in_flight = 0;
    std::size_t credit_high_water = 0;
    bool credit_shutdown = false;
    // FenceService() posts fences in sequence; the loop records the
    // latest one it dispatched.
    std::uint64_t fence_posted = 0;
    std::uint64_t fence_seen = 0;
    // Set at crash-stop, for the watchdog.
    std::chrono::steady_clock::time_point crash_time{};
    SinkEpoch resume_epoch = 0;
    // Recover() hand-off: the watchdog posts `restore`; the loop takes it
    // and runs it with `restoring` set, so a Recover() that times out
    // withdraws a request the loop has not taken and never returns
    // mid-restore. `replayed` is the restore's replayed-plan count.
    const std::function<void()>* restore = nullptr;
    bool restoring = false;
    std::size_t replayed = 0;
    Progress progress;
  };
  mutable std::mutex status_mu_;
  std::condition_variable status_cv_;
  StatusBlock status_;
  /// Set before Start*(); read under status_mu_ by credit acquirers.
  std::size_t epoch_queue_capacity_ = 0;
  /// Cluster-supplied extra diagnostics (link backlog, suspicion levels)
  /// appended to StallDiagnostic(); set and called under status_mu_.
  std::function<std::string()> diagnostic_context_;

  // ---- Loop-owned state ------------------------------------------------
  // Only the loop touches these while it runs (see the class comment for
  // where other threads may read them).
  /// The progress last copied into the status block.
  Progress published_;
  std::deque<TxnSpec> calvin_work_;
  bool head_active_ = false;
  bool finished_enqueue_ = false;
  /// Each in-flight round's unfinished plans (after a recovery, its
  /// replayed plans too): the last one to finish releases the round's
  /// epoch credit.
  std::unordered_map<SinkEpoch, std::size_t> epoch_outstanding_;
  std::vector<TxnResult> results_;
  /// Read responses received but not yet consumed — with intake-time
  /// requests, up to a few rounds' worth; a checkpoint captures them.
  FlatMap<std::uint64_t, Record> responses_;
  /// Every read request id below this one was gathered: plans run in
  /// increasing txn id and gather their reads in order, so a response
  /// below it is a duplicate (a recovering peer re-serves its logged
  /// requests) and is dropped unlogged.
  std::uint64_t gathered_below_ = 0;

  // Streaming intake: reliable transports may deliver rounds out of
  // order, but plans run in FIFO epoch order (a plan may only await
  // versions produced by earlier plans or remote machines), so rounds are
  // reordered and enqueued strictly from 1. Intake state survives a
  // crash-stop (each round is received once), so a round's remote reads
  // are requested exactly once: a second request would be served twice,
  // and the extra read would free a cache entry or open a write-back's
  // `awaits` gate early.
  std::map<SinkEpoch, std::vector<PlanItem>> pending_stream_plans_;
  SinkEpoch next_stream_epoch_ = 1;
  SinkEpoch stream_final_epoch_ = 0;
  bool stream_end_seen_ = false;
  /// Rounds dropped as duplicates (a failover's catch-up re-shipments the
  /// machine had already enqueued or buffered).
  std::uint64_t duplicate_rounds_dropped_ = 0;

  /// Queued crash points, fired front-to-back (CrashStop pops the front;
  /// more queued points are the chaos matrix's repeat crashes).
  std::deque<CrashPoint> crash_points_;
  /// Traffic received while down; crash-stop semantics say these were
  /// never received — re-injecting them at recovery models the peers'
  /// reliable transport retransmitting.
  std::vector<Message> down_stash_;
  Head head_;
  Scratch scratch_;
  /// What the loop sent since its last flush, in send order; it keeps its
  /// capacity across turns.
  std::vector<std::pair<MachineId, Message>> outbox_;
  /// Replayed plans not yet re-executed: the next ones at the cursor.
  /// Recovery completes (state back to kLive) when it hits zero.
  std::size_t replay_remaining_ = 0;
  /// Parked remote cache pulls: (key, version) -> pending requests.
  std::map<std::pair<ObjectKey, TxnId>, std::vector<Message>> parked_pulls_;
  /// Calvin peer-read buffer: values received per transaction.
  std::unordered_map<TxnId, std::unordered_map<ObjectKey, Record>> peer_reads_;

  std::function<void(TxnId)> commit_hook_;

  // §5.4 logs: the loop appends, captures and replays; tests and the
  // cluster read them after Stop(). Byte counters track the live
  // footprint; peaks survive truncation.
  /// The request log is the T-Part work queue: the head plan is
  /// `request_log_[next_plan_]`. With log recording on, plans that ran
  /// stay until a checkpoint capture erases them; otherwise (and in
  /// offline replay) a plan is dropped once it ran.
  RingQueue<RequestLogEntry> request_log_;
  std::size_t next_plan_ = 0;
  std::vector<Message> network_log_;
  bool log_recording_ = true;
  std::size_t request_log_bytes_ = 0;
  std::size_t network_log_bytes_ = 0;
  std::size_t request_log_bytes_peak_ = 0;
  std::size_t network_log_bytes_peak_ = 0;

  // ---- Periodic checkpointing -----------------------------------------
  MachineCheckpoint* checkpoint_ = nullptr;
  SinkEpoch checkpoint_every_ = 0;
  SinkEpoch next_checkpoint_epoch_ = 0;

  // ---- Elastic migration state ----------------------------------------
  // Inbound image assembly, keyed by migration stream id. Chunks may
  // arrive out of order and the commit may overtake trailing chunks on a
  // faulty transport; installation fires from whichever message completes
  // the set. The done-sets and counters are read behind a fence or after
  // Stop().
  struct InboundImage {
    std::map<std::uint64_t, std::string> chunks;  // by chunk index
    bool commit_seen = false;
    std::uint64_t expect_chunks = 0;
    std::uint64_t expect_entries = 0;
    std::uint32_t checksum = 0;
  };
  std::unordered_map<std::uint64_t, InboundImage> inbound_images_;
  std::unordered_set<std::uint64_t> migration_source_done_;
  std::unordered_set<std::uint64_t> migration_installed_;
  MigrationCounters migration_counters_;

  // Straggler mode: sleep before a heartbeat, at most once per period, so
  // responses skirt the detector deadline.
  std::uint64_t straggle_delay_us_ = 0;
  std::uint64_t straggle_period_us_ = 0;
  std::chrono::steady_clock::time_point last_straggle_{};

  // ---- Atomics other threads probe -------------------------------------
  /// Written by the loop (under status_mu_ where a waiter's predicate
  /// reads it); crashed() reads it without the lock.
  std::atomic<RunState> run_state_{RunState::kLive};
  /// Set by AbortPendingWaits(): the run was declared failed. Plans drain
  /// without gathering or running procedures.
  std::atomic<bool> draining_{false};
  std::atomic<std::uint64_t> heartbeat_seen_{0};
  std::atomic<std::uint64_t> executed_plans_{0};
  // Coordinator-term fence (DESIGN §4j): highest term witnessed on any
  // inbound message, and the count of stale-term control messages
  // dropped. Monotonic knowledge — recovery deliberately leaves it
  // intact (a rebuilt machine must keep rejecting its deposed leader).
  std::atomic<std::uint64_t> fence_term_{0};
  std::atomic<std::uint64_t> fenced_messages_{0};
  /// Timeline sampling stride (set_txn_sample); read on the execute path.
  std::uint64_t txn_sample_ = 0;

  std::thread service_;
};

}  // namespace tpart

#endif  // TPART_RUNTIME_MACHINE_H_
