#include "runtime/machine.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "elastic/migration.h"
#include "exec/serial_executor.h"
#include "net/wire.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "txn/rw_set.h"

namespace tpart {

namespace {

// Request ids are deterministic functions of (txn, read position), so the
// response a round's intake requested pairs with the plan awaiting it,
// and a §5.4 replay pairs logged responses with replayed plans.
std::uint64_t ReadRequestId(TxnId txn, std::size_t read_idx) {
  TPART_CHECK(read_idx < 1024) << "read set too wide for req ids";
  return (static_cast<std::uint64_t>(txn) << 10) | read_idx;
}

// The footprint a request-log entry adds to the log's byte counters.
std::size_t RequestLogBytes(const Machine::RequestLogEntry& entry) {
  return sizeof(entry) +
         entry.item.spec.params.size() * sizeof(entry.item.spec.params[0]);
}

}  // namespace

Machine::Machine(MachineId id, std::size_t num_machines, KvStore* store,
                 const ProcedureRegistry* registry, SendBatchFn send_batch)
    : id_(id),
      num_machines_(num_machines),
      store_(store),
      registry_(registry),
      send_batch_(std::move(send_batch)),
      storage_(store, [this](const StorageService::RemoteReadTag& tag,
                             Record value) {
        Message resp;
        resp.type = Message::Type::kStorageReadResp;
        resp.req_id = tag.req_id;
        resp.value = std::move(value);
        SendOut(tag.reply_to, std::move(resp));
      }) {}

Machine::~Machine() { Stop(); }

void Machine::SendOut(MachineId to, Message msg) {
  if (replay_) return;  // §5.4 replay is local
  outbox_.emplace_back(to, std::move(msg));
}

void Machine::FlushOutbox() {
  if (outbox_.empty()) return;
  send_batch_(outbox_);
  outbox_.clear();
}

void Machine::EnqueueTPartEpoch(SinkEpoch epoch,
                                std::vector<PlanItem> items) {
  QueuePlans(epoch, items);
}

void Machine::EnqueueCalvinTxn(TxnSpec spec) {
  calvin_work_.push_back(std::move(spec));
}

void Machine::FinishEnqueue() {
  TPART_CHECK(!service_.joinable())
      << "machine " << id_
      << ": FinishEnqueue() on a started machine; end its stream with "
         "kPlanStreamEnd";
  finished_enqueue_ = true;
}

void Machine::StartTPart() {
  service_ = std::thread([this] { ServiceLoop(); });
}

void Machine::StartCalvin() {
  calvin_ = true;
  service_ = std::thread([this] { ServiceLoop(); });
}

bool Machine::Idle() const {
  const bool draining = draining_.load(std::memory_order_acquire);
  // A crashed machine is waited for through its recovery, unless the run
  // failed and nobody will recover it.
  if (run_state_.load(std::memory_order_relaxed) == RunState::kDown) {
    return draining;
  }
  return !head_active_ && next_plan_ == request_log_.size() &&
         calvin_work_.empty() && (finished_enqueue_ || draining);
}

void Machine::PublishProgress() {
  // A thread woken by the status block (JoinExecutor(), a stall report)
  // must find everything the loop sent already handed to the transport.
  FlushOutbox();
  Progress now;
  now.idle = Idle();
  // Plans queued behind the head; a running head sits at the cursor.
  const std::size_t unrun = request_log_.size() - next_plan_;
  now.work = head_active_ && unrun > 0 ? unrun - 1 : unrun;
  now.rounds_in_progress = epoch_outstanding_.size();
  now.finished_enqueue = finished_enqueue_;
  now.pending_rounds = pending_stream_plans_.size();
  now.next_epoch = next_stream_epoch_;
  now.dup_rounds_dropped = duplicate_rounds_dropped_;
  now.responses_pending = responses_.size();
  now.stashed = down_stash_.size();
  if (now == published_) return;
  const bool idle_changed = now.idle != published_.idle;
  published_ = now;
  {
    std::lock_guard<std::mutex> lock(status_mu_);
    status_.progress = now;
  }
  if (idle_changed) status_cv_.notify_all();
}

void Machine::JoinExecutor() {
  std::unique_lock<std::mutex> lock(status_mu_);
  status_cv_.wait(lock, [&] { return status_.progress.idle; });
}

void Machine::Stop() {
  // By the time a machine is stopped every machine has gone idle and the
  // cluster has Flush()ed the transport, so all in-flight messages
  // already sit in the inbound queue; the loop dispatches up to the
  // shutdown sentinel, applying any remaining write-backs.
  if (service_.joinable()) {
    Message stop;
    stop.type = Message::Type::kShutdown;
    inbound_.Send(std::move(stop));
    service_.join();
  }
  {
    std::lock_guard<std::mutex> lock(status_mu_);
    status_.credit_shutdown = true;
  }
  status_cv_.notify_all();
}

std::vector<TxnResult> Machine::TakeResults() { return std::move(results_); }

void Machine::Wake() {
  Message wake;
  wake.type = Message::Type::kServiceFence;  // sequence 0 fences nobody
  inbound_.Send(std::move(wake));
}

// ---------------------------------------------------------------------
// The loop
// ---------------------------------------------------------------------

void Machine::ServiceLoop() {
  TPART_TRACE(SetThreadInfo(static_cast<int>(1 + id_), "loop"));
  // The epoch-0 edge of the chaos matrix: the machine dies before any
  // plan runs.
  if (!calvin_ && !crash_points_.empty() && crash_points_.front().at_start) {
    CrashStop(/*resume=*/1);
  }
  std::vector<Message> batch;
  while (true) {
    // Pending messages go first, so a run of ready plans (a recovery
    // replay, say) never holds heartbeats, fences or peers' reads behind
    // more than one plan. Each turn (one batch dispatched, or one plan
    // advanced) ends with one flush, so what it sent to a destination
    // leaves as one batch.
    if (!inbound_.TakeAll(batch)) {
      if (calvin_ ? AdvanceCalvin() : AdvanceTPart()) {
        FlushOutbox();
        continue;
      }
      AwaitMessages(batch);
    }
    for (Message& msg : batch) {
      if (msg.type == Message::Type::kShutdown) {
        PublishProgress();  // StallDiagnostic() after Stop() reads it
        return;
      }
      if (run_state_.load(std::memory_order_relaxed) == RunState::kDown) {
        DispatchWhileDown(std::move(msg));
      } else {
        Dispatch(std::move(msg));
      }
    }
    batch.clear();
    FlushOutbox();
  }
}

void Machine::AwaitMessages(std::vector<Message>& batch) {
  // Other threads see the loop's progress as of its latest block, and
  // nothing the loop sent waits out the block.
  PublishProgress();
  if (!head_.parked) {
    inbound_.WaitTakeAll(batch);
  } else if (!inbound_.WaitTakeAll(batch,
                                   head_.parked_since + kStallTimeout)) {
    FailStall();
  }
}

void Machine::DispatchWhileDown(Message msg) {
  // Crash-stop: the machine is gone. Heartbeats are dropped so the
  // failure detector sees the stall; everything else is stashed — the
  // reliability layer already acked it on delivery into our inbound
  // queue, so dropping it would lose it forever. Re-injecting the stash
  // at recovery models the peers' transport retransmitting to the rebuilt
  // machine. Fences are still served; Recover() wakes the loop with one.
  switch (msg.type) {
    case Message::Type::kHeartbeat:
      return;
    case Message::Type::kServiceFence:
      Dispatch(std::move(msg));
      break;
    default:
      down_stash_.push_back(std::move(msg));
      return;
  }
  const std::function<void()>* restore = nullptr;
  {
    std::lock_guard<std::mutex> lock(status_mu_);
    restore = std::exchange(status_.restore, nullptr);
    status_.restoring = restore != nullptr;
  }
  if (restore != nullptr) RestoreAndReplay(*restore);
}

void Machine::Dispatch(Message msg) {
  // Coordinator-term fence (DESIGN §4j): every control-plane message
  // carries the term of the coordinator that issued it. Adopt the
  // highest term ever witnessed — from ANY stamped message, heartbeats
  // included, so terms propagate even between rounds — and drop stream /
  // migration control traffic stamped with an older term: a deposed
  // zombie leader's in-flight plan stream must not truncate or fork the
  // new term's. Data-plane traffic is never fenced (exactly-once
  // delivery plus idempotent intake already make duplicates safe, and
  // §5.4 replay legitimately re-delivers old-term messages). term 0 =
  // unfenced legacy traffic, always passes.
  if (msg.term != 0) {
    std::uint64_t seen = fence_term_.load(std::memory_order_acquire);
    while (seen < msg.term &&
           !fence_term_.compare_exchange_weak(seen, msg.term,
                                              std::memory_order_acq_rel)) {
    }
    if (msg.term < seen) {
      switch (msg.type) {
        case Message::Type::kSinkPlan:
        case Message::Type::kPlanStreamEnd:
        case Message::Type::kMigrateBegin:
        case Message::Type::kPartitionImage:
        case Message::Type::kMigrateCommit:
          fenced_messages_.fetch_add(1, std::memory_order_relaxed);
          TPART_TRACE(Instant("fenced_stale_term", "fault",
                              {{"machine", id_},
                               {"stale_term", msg.term},
                               {"current_term", seen}}));
          TPART_FLIGHT(obs::FlightEvent::kFencedMessage, 1 + id_, msg.term,
                       seen);
          return;
        default:
          break;
      }
    }
  }
  // The §5.4 network log records every inbound value-bearing message the
  // machine actually processes, except re-deliveries of already-logged
  // traffic (offline replay, and recovery's redelivery-marked
  // re-injections). Genuinely new traffic arriving while kRecovering IS
  // logged — a later crash must be able to replay it too.
  const bool log = log_recording_ && !replay_ && !msg.redelivery;
  switch (msg.type) {
    case Message::Type::kShutdown:
      return;  // handled by ServiceLoop; unreachable here
    case Message::Type::kHeartbeat:
      // Straggler fault mode: delay at most one heartbeat per period so
      // responses skirt the detector deadline without ever fully
      // stalling. A correct detector must ride this out.
      if (straggle_delay_us_ > 0) {
        const auto now = std::chrono::steady_clock::now();
        if (now - last_straggle_ >=
            std::chrono::microseconds(straggle_period_us_)) {
          last_straggle_ = now;
          std::this_thread::sleep_for(
              std::chrono::microseconds(straggle_delay_us_));
        }
      }
      // Never logged: replaying stale probes would confuse a detector.
      heartbeat_seen_.store(msg.req_id, std::memory_order_release);
      break;
    case Message::Type::kPushVersion:
      // The PUSH-log (§5.4): remember pushed values for local replay.
      if (log) LogNetworkMessage(msg);
      cache_.PutVersion(msg.key, msg.version, msg.dst_txn,
                        std::move(msg.value));
      break;
    case Message::Type::kCacheReadReq:
      // Logged so replay re-serves the same reads and entry/version
      // refcounts line up (§5.4 local replay).
      if (log) LogNetworkMessage(msg);
      ServePull(std::move(msg));
      break;
    case Message::Type::kCacheReadResp:
    case Message::Type::kStorageReadResp:
      if (msg.req_id < gathered_below_) break;  // a recovery's duplicate
      if (log) LogNetworkMessage(msg);
      responses_[msg.req_id] = std::move(msg.value);
      break;
    case Message::Type::kStorageReadReq:
      if (log) LogNetworkMessage(msg);
      storage_.RemoteRead(msg.key, msg.version,
                          StorageService::RemoteReadTag{msg.reply_to,
                                                        msg.req_id});
      break;
    case Message::Type::kWriteBackApply:
      if (log) LogNetworkMessage(msg);
      storage_.ApplyWriteBack(msg.key, msg.version, msg.replaces,
                              std::move(msg.value), msg.awaits, msg.sticky,
                              msg.epoch);
      break;
    case Message::Type::kPeerReads: {
      if (log) LogNetworkMessage(msg);
      auto& bucket = peer_reads_[msg.txn];
      for (auto& [key, value] : msg.kvs) bucket[key] = std::move(value);
      break;
    }
    // Elastic migration. Never network-logged: a replay re-shipping a
    // partition image would resurrect moved keys; the forced checkpoint
    // after the migration owns durability of the move instead.
    case Message::Type::kMigrateBegin:
      HandleMigrateBegin(std::move(msg));
      break;
    case Message::Type::kPartitionImage:
      HandleImageChunk(std::move(msg));
      break;
    case Message::Type::kMigrateCommit:
      HandleMigrateCommit(std::move(msg));
      break;
    case Message::Type::kServiceFence:
      // Every message ahead of the fence in this FIFO queue is fully
      // applied. A capturing fence (the migration cut) is posted at a
      // quiescent epoch boundary, so capture here and truncate the logs
      // before releasing the poster.
      if (msg.epoch != 0) CaptureCheckpoint(msg.epoch);
      if (msg.req_id == 0) break;  // a bare wake-up (Wake)
      // What the earlier messages made this machine send has left too.
      FlushOutbox();
      {
        std::lock_guard<std::mutex> lock(status_mu_);
        status_.fence_seen = std::max(status_.fence_seen, msg.req_id);
      }
      status_cv_.notify_all();
      break;
    // Streaming dissemination. Not network-logged: a round's plans enter
    // the request log, which survives a crash-stop, and §5.4 replay
    // re-runs from it.
    case Message::Type::kSinkPlan:
      HandleSinkPlan(std::move(msg));
      break;
    case Message::Type::kPlanStreamEnd:
      stream_end_seen_ = true;
      stream_final_epoch_ = msg.epoch;
      // The end marker can overtake delayed rounds on an unordered
      // transport; only finish once every round up to it is enqueued.
      if (next_stream_epoch_ > stream_final_epoch_) finished_enqueue_ = true;
      break;
    // Coordinator replication (DESIGN §4i). Replica-to-replica traffic is
    // handled by CoordinatorReplicaSet; a copy reaching a worker machine
    // is ignored. Never network-logged: the replicated request log owns
    // its own durability, and replaying acks would confuse a later term.
    case Message::Type::kLogAppend:
    case Message::Type::kLogAck:
      break;
    case Message::Type::kLeaderClaim:
      // Watermark probe from a (new) leader: report the highest
      // contiguous sink round this machine has enqueued, so catch-up
      // re-ships only rounds we might actually be missing.
      if (msg.reply_to != kInvalidMachine) {
        Message ack;
        ack.type = Message::Type::kLogAck;
        ack.key = 2;  // watermark kind (see channel.h)
        ack.req_id = msg.req_id;
        ack.txn = static_cast<TxnId>(id_);
        ack.epoch = next_stream_epoch_ - 1;
        SendOut(msg.reply_to, std::move(ack));
      }
      break;
  }
}

void Machine::ServePull(Message req) {
  auto v = cache_.TryEpochEntry(req.key, req.version, req.invalidate,
                                req.total_reads);
  if (!v.has_value()) {
    // Served when the local plan producing the entry publishes it.
    parked_pulls_[{req.key, req.version}].push_back(std::move(req));
    return;
  }
  Message resp;
  resp.type = Message::Type::kCacheReadResp;
  resp.req_id = req.req_id;
  resp.value = std::move(*v);
  SendOut(req.reply_to, std::move(resp));
}

void Machine::ServeParkedPulls(ObjectKey key, TxnId version) {
  auto it = parked_pulls_.find({key, version});
  if (it == parked_pulls_.end()) return;
  std::vector<Message> reqs = std::move(it->second);
  parked_pulls_.erase(it);
  for (Message& req : reqs) ServePull(std::move(req));
}

// ---------------------------------------------------------------------
// Streaming intake
// ---------------------------------------------------------------------

void Machine::HandleSinkPlan(Message msg) {
  Result<SinkPlan> plan = DecodeSinkPlan(msg.plan_bytes);
  TPART_CHECK(plan.ok()) << "bad sink plan on the wire: "
                         << plan.status().ToString();
  // Dissemination ships each machine only its slice of the round
  // (SliceSinkPlan): this machine's plans, with specs[i] for txns[i].
  TPART_CHECK(msg.specs.size() == plan->txns.size())
      << "round " << plan->epoch << " slice carries " << msg.specs.size()
      << " specs for " << plan->txns.size() << " plans";
  std::vector<PlanItem> slice;
  slice.reserve(plan->txns.size());
  for (std::size_t i = 0; i < plan->txns.size(); ++i) {
    TxnPlan& p = plan->txns[i];
    TPART_CHECK(p.machine == id_)
        << "round " << plan->epoch << " slice for machine " << id_
        << " holds T" << p.txn << "'s plan for machine " << p.machine;
    TPART_CHECK(msg.specs[i].id == p.txn)
        << "round " << plan->epoch << " slice pairs spec T"
        << msg.specs[i].id << " with the plan of T" << p.txn;
    slice.push_back(PlanItem{std::move(p), std::move(msg.specs[i])});
  }
  TPART_FLIGHT(obs::FlightEvent::kRoundReceived, 1 + id_, plan->epoch,
               slice.size());
  // Causal timelines: the wire-carried trace context names the origin
  // and coordinator term, so a sampled transaction's receive marker
  // stitches into its cross-machine span even across failover terms.
  if (msg.trace_ctx != 0 && txn_sample_ != 0) {
    for (const PlanItem& item : slice) {
      if (obs::SampledTxn(item.plan.txn, txn_sample_)) {
        TPART_TRACE(AsyncInstant("round_received", "timeline", item.plan.txn,
                                 {{"machine", id_},
                                  {"epoch", plan->epoch},
                                  {"term", obs::TraceCtxTerm(msg.trace_ctx)}}));
      }
    }
  }

  if (plan->epoch < next_stream_epoch_ ||
      pending_stream_plans_.count(plan->epoch) != 0) {
    // Duplicate round: a failover's catch-up re-ships every round past
    // the probed watermark, including rounds still in flight to this
    // machine, so intake is idempotent.
    ++duplicate_rounds_dropped_;
    TPART_TRACE(Instant("dup_round_dropped", "stream",
                        {{"epoch", plan->epoch}}));
    return;
  }
  pending_stream_plans_.emplace(plan->epoch, std::move(slice));
  // Deliver in order; a reliable-but-unordered transport may have handed
  // us later rounds first.
  for (auto it = pending_stream_plans_.begin();
       it != pending_stream_plans_.end() && it->first == next_stream_epoch_;
       it = pending_stream_plans_.erase(it), ++next_stream_epoch_) {
    EnqueueStreamEpoch(it->first, std::move(it->second));
  }
  if (stream_end_seen_ && next_stream_epoch_ > stream_final_epoch_) {
    finished_enqueue_ = true;
  }
}

void Machine::EnqueueStreamEpoch(SinkEpoch epoch,
                                 std::vector<PlanItem> items) {
  // Request the round's remote reads before its plans can reach the head,
  // so their round trips overlap earlier plans.
  RequestRemoteReads(items);
  // A round with no local slice holds its credit for no reason.
  if (items.empty()) {
    ReleaseEpochCredit();
    return;
  }
  epoch_outstanding_[epoch] = items.size();
  QueuePlans(epoch, items);
}

void Machine::QueuePlans(SinkEpoch epoch, std::vector<PlanItem>& items) {
  // Request log: "the transaction requests are logged only after they are
  // partitioned, and each machine logs only those requests that are
  // assigned to itself" (§5.4). Plans enter it in execution order.
  const bool keep = log_recording_ && !replay_;
  for (PlanItem& item : items) {
    request_log_.push_back(RequestLogEntry{epoch, std::move(item)});
    if (keep) request_log_bytes_ += RequestLogBytes(request_log_.back());
  }
  request_log_bytes_peak_ =
      std::max(request_log_bytes_peak_, request_log_bytes_);
}

void Machine::RequestRemoteReads(const std::vector<PlanItem>& items) {
  for (const PlanItem& item : items) {
    const TxnPlan& p = item.plan;
    for (std::size_t i = 0; i < p.reads.size(); ++i) {
      const ReadStep& r = p.reads[i];
      const bool pull = r.kind == ReadSourceKind::kCacheRemote;
      if (!pull &&
          (r.kind != ReadSourceKind::kStorage || r.src_machine == id_)) {
        continue;  // served locally when the plan reaches the head
      }
      Message req;
      req.type = pull ? Message::Type::kCacheReadReq
                      : Message::Type::kStorageReadReq;
      req.key = r.key;
      req.version = r.src_txn;
      if (pull) {
        req.invalidate = r.invalidate_entry;
        req.total_reads = r.entry_total_reads;
      }
      req.reply_to = id_;
      req.req_id = ReadRequestId(p.txn, i);
      SendOut(r.src_machine, std::move(req));
    }
  }
}

Machine::CreditGrant Machine::AcquireEpochCreditFor(
    std::chrono::microseconds timeout) {
  std::unique_lock<std::mutex> lock(status_mu_);
  bool waited = false;
  const auto open = [&] {
    return status_.credits_in_flight < epoch_queue_capacity_ ||
           status_.credit_shutdown;
  };
  if (!open()) {
    waited = true;
    if (!status_cv_.wait_for(lock, timeout, open)) {
      return CreditGrant::kTimedOut;
    }
  }
  ++status_.credits_in_flight;
  status_.credit_high_water =
      std::max(status_.credit_high_water, status_.credits_in_flight);
  return waited ? CreditGrant::kGrantedAfterWait : CreditGrant::kGranted;
}

void Machine::ReleaseEpochCredit() {
  // Whoever the release wakes (the next round's dissemination, a
  // membership barrier) finds the round's sends already handed over.
  FlushOutbox();
  {
    std::lock_guard<std::mutex> lock(status_mu_);
    if (status_.credits_in_flight > 0) --status_.credits_in_flight;
  }
  // notify_all: the condvar is shared (a credit acquirer, a migration
  // barrier's WaitStreamDrained, JoinExecutor, fence waiters).
  status_cv_.notify_all();
}

std::size_t Machine::epoch_queue_high_water() const {
  std::lock_guard<std::mutex> lock(status_mu_);
  return status_.credit_high_water;
}

std::size_t Machine::epochs_in_flight() const {
  std::lock_guard<std::mutex> lock(status_mu_);
  return status_.credits_in_flight;
}

// ---------------------------------------------------------------------
// T-Part plans
// ---------------------------------------------------------------------

bool Machine::AdvanceTPart() {
  if (!head_active_) {
    if (run_state_.load(std::memory_order_relaxed) == RunState::kDown ||
        next_plan_ == request_log_.size()) {
      return false;
    }
    head_active_ = true;
    const RequestLogEntry& head = request_log_[next_plan_];
    TPART_CHECK(head.item.plan.machine == id_);
    head_.next_read = 0;
    scratch_.exec.Clear();
    TPART_FLIGHT(obs::FlightEvent::kExecute, 1 + id_, head.item.plan.txn,
                 head.epoch);
    if (obs::SampledTxn(head.item.plan.txn, txn_sample_)) {
      TPART_TRACE(AsyncInstant(replaying() ? "replayed" : "executed",
                               "timeline", head.item.plan.txn,
                               {{"machine", id_}, {"epoch", head.epoch}}));
    }
  }
  // A failed run (AbortPendingWaits) drains without gathering.
  if (!draining_.load(std::memory_order_acquire)) {
    TPART_TRACE(Begin("gather", "exec",
                      {{"txn", request_log_[next_plan_].item.plan.txn}}));
    const bool gathered = GatherHead();
    TPART_TRACE(End());  // gather
    if (!gathered) return false;
  }
  FinishTPartPlan();
  return true;
}

bool Machine::GatherHead() {
  // The version-based deterministic CC: each read names its exact version
  // (§5.2), and the plan parks at the first one not yet here. Remote
  // reads were requested when the round arrived (RequestRemoteReads).
  const TxnPlan& p = request_log_[next_plan_].item.plan;
  auto& values = scratch_.exec.values;
  for (; head_.next_read < p.reads.size(); ++head_.next_read) {
    const std::size_t i = head_.next_read;
    const ReadStep& r = p.reads[i];
    std::optional<Record> v;
    switch (r.kind) {
      case ReadSourceKind::kLocalVersion:
      case ReadSourceKind::kPush:
        v = cache_.TakeVersion(r.key, r.src_txn, p.txn);
        // The consumer end of the forward-push arrow: the producing
        // transaction's span holds the matching FlowStart.
        if (v.has_value() && r.kind == ReadSourceKind::kPush &&
            !replaying()) {
          TPART_TRACE(FlowEnd("push", obs::PushFlowId(r.key, r.src_txn,
                                                      p.txn)));
        }
        break;
      case ReadSourceKind::kCacheLocal:
        v = cache_.TryEpochEntry(r.key, r.src_txn, r.invalidate_entry,
                                 r.entry_total_reads);
        if (v.has_value()) {
          TPART_TRACE(Instant("cache_hit", "cache",
                              {{"key", r.key}, {"txn", p.txn}}));
        }
        break;
      case ReadSourceKind::kCacheRemote:
        v = TakeResponse(ReadRequestId(p.txn, i));
        break;
      case ReadSourceKind::kStorage:
        // A local read is a probe: a miss parks nothing in the storage
        // service, and the dispatch that makes the version current is
        // followed by a re-probe.
        v = r.src_machine == id_ ? storage_.TryRead(r.key, r.src_txn)
                                 : TakeResponse(ReadRequestId(p.txn, i));
        break;
    }
    if (!v.has_value()) {
      NoteParked(i);
      return false;
    }
    values[r.key] = std::move(*v);
  }
  return true;
}

std::optional<Record> Machine::TakeResponse(std::uint64_t req_id) {
  auto it = responses_.find(req_id);
  if (it == responses_.end()) return std::nullopt;
  Record v = std::move(it->second);
  responses_.erase(it);
  gathered_below_ = req_id + 1;
  return v;
}

void Machine::NoteParked(std::size_t read_idx) {
  const auto now = std::chrono::steady_clock::now();
  if (!head_.parked || head_.parked_read != read_idx) {
    head_.parked = true;
    head_.parked_read = read_idx;
    head_.parked_since = now;
  } else if (now - head_.parked_since >= kStallTimeout) {
    FailStall();  // a lost push, entry or reply fails the run
  }
}

void Machine::FailStall() {
  PublishProgress();  // the diagnostic reads the status block
  if (calvin_) {
    TPART_CHECK(false) << "stalled awaiting peer reads for T"
                       << calvin_work_.front().id << ": "
                       << StallDiagnostic();
  }
  const TxnPlan& p = request_log_[next_plan_].item.plan;
  const ReadStep& r = p.reads[head_.parked_read];
  const char* what = "response";
  if (r.kind == ReadSourceKind::kPush) {
    what = "push";
  } else if (r.kind == ReadSourceKind::kLocalVersion) {
    what = "local version";
  } else if (r.kind == ReadSourceKind::kCacheLocal) {
    what = "cache entry";
  } else if (r.kind == ReadSourceKind::kStorage && r.src_machine == id_) {
    what = "local storage read";
  }
  TPART_CHECK(false) << "T" << p.txn << " stalled on " << what << " of key "
                     << r.key << " v" << r.src_txn << ": "
                     << StallDiagnostic();
  std::abort();  // unreachable: a failed check aborts
}

bool Machine::CompletePlan(TxnResult result, SinkEpoch epoch) {
  results_.push_back(std::move(result));
  auto it = epoch_outstanding_.find(epoch);
  if (it != epoch_outstanding_.end() && --it->second == 0) {
    epoch_outstanding_.erase(it);
    return true;
  }
  return false;
}

void Machine::ReleaseHead() {
  head_active_ = false;
  head_.parked = false;
  if (Idle() != published_.idle) PublishProgress();
}

void Machine::ReplayedOne() {
  if (--replay_remaining_ != 0) return;
  // Replay complete: the machine is live again, and Recover(), blocked on
  // this flip, returns. The rest of the request log runs live.
  {
    std::lock_guard<std::mutex> lock(status_mu_);
    run_state_.store(RunState::kLive, std::memory_order_release);
  }
  status_cv_.notify_all();
}

void Machine::AdvanceCursor() {
  if (log_recording_ && !replay_) {
    ++next_plan_;
  } else {
    request_log_.pop_front();
  }
}

void Machine::FinishTPartPlan() {
  const RequestLogEntry& head = request_log_[next_plan_];
  const SinkEpoch epoch = head.epoch;
  const bool is_replay = replaying();
  const TxnPlan& p = head.item.plan;
  const TxnSpec& spec = head.item.spec;
  const TxnId txn = p.txn;

  // A failed run drains without executing: procedures are entitled to
  // assume real records.
  if (draining_.load(std::memory_order_acquire)) {
    TxnResult res;
    res.id = txn;
    AdvanceCursor();
    const bool drained = CompletePlan(std::move(res), epoch);
    executed_plans_.fetch_add(1, std::memory_order_relaxed);
    if (is_replay) ReplayedOne();
    ReleaseHead();
    if (drained) ReleaseEpochCredit();
    return;
  }

  TPART_TRACE_SPAN("txn", is_replay ? "replay" : "exec",
                   {{"txn", p.txn}, {"epoch", epoch}});
  // ---- Execute the stored procedure.
  TPART_TRACE(Begin("procedure", "exec"));
  GatheredTxnContext ctx(&spec, &scratch_.exec);
  Result<TxnResult> result = RunProcedure(*registry_, spec, ctx);
  TPART_CHECK(result.ok()) << "engine failure executing T" << p.txn << ": "
                           << result.status().ToString();
  const bool committed = result->committed;
  TPART_TRACE(End());  // procedure

  // ---- Outbound plan steps. An aborted transaction forwards the values
  // it read (§5.3), which OutgoingValue() encapsulates. Pushes and remote
  // write-backs join the outbox, which the loop flushes once the plan is
  // done (nothing here awaits a reply, so deferring them is safe).
  TPART_TRACE(Begin("publish", "exec", {{"pushes", p.pushes.size()}}));
  // In-run recovery re-executes logged plans with outbound traffic
  // suppressed, exactly like offline replay (§5.4): peers already
  // received these pushes and write-backs before the crash, and
  // version/epoch entries are consume-once, so re-sending would corrupt
  // their refcounts.
  const auto stage_out = [&](MachineId to, Message m) {
    if (!is_replay) SendOut(to, std::move(m));
  };
  for (const PushStep& s : p.pushes) {
    // The producer end of the forward-push arrow; the consumer's gather
    // span holds the matching FlowEnd.
    if (!is_replay) {
      TPART_TRACE(FlowStart("push", obs::PushFlowId(s.key, s.version_txn,
                                                    s.dst_txn)));
    }
    Message m;
    m.type = Message::Type::kPushVersion;
    m.key = s.key;
    m.version = s.version_txn;
    m.dst_txn = s.dst_txn;
    m.value = ctx.OutgoingValue(s.key, committed);
    stage_out(s.dst_machine, std::move(m));
  }
  for (const LocalVersionStep& s : p.local_versions) {
    cache_.PutVersion(s.key, s.version_txn, s.dst_txn,
                      ctx.OutgoingValue(s.key, committed));
  }
  for (const CachePublishStep& s : p.cache_publishes) {
    cache_.PublishEpochEntry(s.key, p.txn, s.epoch,
                             ctx.OutgoingValue(s.key, committed));
    ServeParkedPulls(s.key, p.txn);
  }
  for (const WriteBackStep& s : p.write_backs) {
    Record value = ctx.OutgoingValue(s.key, committed);
    if (s.home == id_) {
      storage_.ApplyWriteBack(s.key, s.version_txn, s.replaces_version,
                              std::move(value), s.readers_to_await,
                              s.make_sticky, epoch);
    } else {
      Message m;
      m.type = Message::Type::kWriteBackApply;
      m.key = s.key;
      m.version = s.version_txn;
      m.replaces = s.replaces_version;
      m.value = std::move(value);
      m.awaits = s.readers_to_await;
      m.sticky = s.make_sticky;
      m.epoch = epoch;
      stage_out(s.home, std::move(m));
    }
  }
  TPART_TRACE(End());  // publish

  // Replayed plans already fired their commit hook pre-crash; firing
  // again would double-count latency samples.
  if (commit_hook_ && !is_replay) commit_hook_(txn);
  // Past the cursor the head entry is not read again: the capture below
  // erases the plans that ran.
  AdvanceCursor();
  // The credit release for a drained round is deferred past the crash
  // trigger below: anyone woken by the release — in particular a
  // membership barrier's WaitStreamDrained — must already observe
  // CrashStop's state flip.
  const bool drained = CompletePlan(std::move(*result), epoch);
  const std::uint64_t executed =
      executed_plans_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (is_replay) ReplayedOne();

  // Periodic checkpoint, at the first drained epoch boundary at or past
  // the cadence point and before any crash trigger at the same boundary —
  // a crash at epoch E then recovers from the fresh checkpoint at E with
  // an empty replay suffix. The loop is between dispatches and no later
  // plan has started, so the images cover exactly rounds <= epoch. The
  // capture costs O(keys changed and results added since the previous
  // one); this machine serves no peer's read until it is done.
  if (!is_replay && drained && checkpoint_ != nullptr &&
      checkpoint_every_ > 0 && !draining_.load(std::memory_order_acquire) &&
      run_state_.load(std::memory_order_relaxed) == RunState::kLive &&
      epoch >= next_checkpoint_epoch_) {
    CaptureCheckpoint(epoch);
    next_checkpoint_epoch_ = epoch + checkpoint_every_;
  }

  if (!is_replay && !crash_points_.empty()) {
    const CrashPoint point = crash_points_.front();
    // >= so a round with no local slice (which never drains here) cannot
    // disarm the trigger: the first drained round at or past the target
    // fires it.
    const bool epoch_hit =
        point.at_epoch != 0 && epoch >= point.at_epoch && drained;
    const bool txn_hit =
        point.after_txns != 0 && executed == point.after_txns;
    if (epoch_hit || txn_hit) {
      // FIFO execution means rounds complete in order: if the current
      // round drained, the next round is the first unfinished one;
      // otherwise this round itself is.
      CrashStop(drained ? epoch + 1 : epoch);
    }
  }
  // Only now may JoinExecutor() see the machine idle: a crash at the last
  // round must be waited for through its recovery.
  ReleaseHead();
  if (drained) ReleaseEpochCredit();
}

// ---------------------------------------------------------------------
// Crash injection & in-run recovery (§5.4 made live)
// ---------------------------------------------------------------------

void Machine::ArmCrash(CrashPoint point) {
  TPART_CHECK(point.armed()) << "empty crash point";
  TPART_CHECK(log_recording_)
      << "crash recovery replays the §5.4 logs; enable log recording";
  TPART_CHECK(!point.at_start || crash_points_.empty())
      << "an at_start crash point must be the first queued";
  crash_points_.push_back(point);
}

void Machine::ArmStraggler(std::uint64_t delay_us, std::uint64_t period_us) {
  TPART_CHECK(delay_us > 0 && period_us > 0) << "empty straggler schedule";
  straggle_delay_us_ = delay_us;
  straggle_period_us_ = period_us;
}

void Machine::CrashStop(SinkEpoch resume) {
  if (run_state_.load(std::memory_order_relaxed) != RunState::kLive) return;
  // What ran before the crash was sent before it: the replay suppresses
  // those sends.
  FlushOutbox();
  // Pop the fired point; more queued points (the chaos matrix's repeat
  // crashes) keep the trigger armed for the recovered machine.
  if (!crash_points_.empty()) crash_points_.pop_front();
  {
    // Nobody waits for a crash; the watchdog reads the time and resume
    // epoch once its detector fires.
    std::lock_guard<std::mutex> lock(status_mu_);
    status_.crash_time = std::chrono::steady_clock::now();
    status_.resume_epoch = resume;
    run_state_.store(RunState::kDown, std::memory_order_release);
  }
  TPART_TRACE(Instant("crash_stop", "fault",
                      {{"machine", id_}, {"resume_epoch", resume}}));
  TPART_FLIGHT(obs::FlightEvent::kCrashStop, 1 + id_, id_, resume);
}

bool Machine::crashed() const {
  return run_state_.load(std::memory_order_acquire) != RunState::kLive;
}

std::chrono::steady_clock::time_point Machine::crash_time() const {
  std::lock_guard<std::mutex> lock(status_mu_);
  return status_.crash_time;
}

SinkEpoch Machine::resume_epoch() const {
  std::lock_guard<std::mutex> lock(status_mu_);
  return status_.resume_epoch;
}

Result<std::size_t> Machine::Recover(
    const std::function<void()>& restore_partition) {
  TPART_CHECK(run_state_.load(std::memory_order_acquire) == RunState::kDown)
      << "Recover() on a machine that did not crash";
  {
    std::lock_guard<std::mutex> lock(status_mu_);
    status_.restore = &restore_partition;
  }
  Wake();
  // The loop wipes, restores and re-runs the replayed suffix; the state
  // turns live once the suffix drained.
  std::unique_lock<std::mutex> lock(status_mu_);
  const bool live = status_cv_.wait_for(lock, kStallTimeout, [&] {
    return run_state_.load(std::memory_order_relaxed) == RunState::kLive;
  });
  // Withdraw a request the loop never took, and wait out a restore it
  // did take: past this point the loop never calls `restore_partition`.
  status_.restore = nullptr;
  status_cv_.wait(lock, [&] { return !status_.restoring; });
  const std::size_t replayed = status_.replayed;
  lock.unlock();
  if (!live) {
    return Status::Unavailable("machine " + std::to_string(id_) +
                               " recovery did not finish its replay: " +
                               StallDiagnostic());
  }
  TPART_TRACE(Instant("replay_done", "fault",
                      {{"machine", id_}, {"replayed", replayed}}));
  TPART_FLIGHT(obs::FlightEvent::kRecover, 1 + id_, id_, replayed);
  return replayed;
}

void Machine::RestoreAndReplay(
    const std::function<void()>& restore_partition) {
  TPART_TRACE_SPAN("recover", "fault", {{"machine", id_}});
  // Only the loop writes the status block's resume epoch.
  const SinkEpoch resume = status_.resume_epoch;

  // 1. The crash lost the execution state. The intake state — the
  //    request log and its cursor, the reorder buffer, the stream
  //    position and end marker — is the machine's own log and survives.
  //    The loop crash-stopped between plans and has only stashed since,
  //    so nothing is half-applied.
  responses_.clear();
  gathered_below_ = 0;  // the replay gathers its logged responses again
  results_.clear();
  parked_pulls_.clear();
  peer_reads_.clear();
  cache_.Reset();
  storage_.Reset();

  // 2. Restore the partition from its checkpoint (cost proportional to
  //    this partition only), then — when a periodic capture has run —
  //    the volatile images it saved: the truncated request log is only
  //    replayable on top of the cache entries, storage version gates and
  //    read responses that existed at the capture boundary.
  restore_partition();
  SinkEpoch cp_epoch = 0;
  if (checkpoint_ != nullptr) {
    cp_epoch = checkpoint_->epoch();
    if (cp_epoch > 0) {
      // A capture happens at a drained boundary E, so any later crash
      // resumes strictly past it; an inverted pair would mean the capture
      // erased plans the replay still needs.
      TPART_CHECK(cp_epoch < resume)
          << "machine " << id_ << " checkpoint at epoch " << cp_epoch
          << " does not precede resume epoch " << resume;
      RestoreImages(*checkpoint_);
    }
  }

  // 3. §5.4 local replay: rewind the cursor, so the plans that ran re-run
  //    first with outbound traffic suppressed (the request log holds them
  //    in execution order: round by round, and within a round in txn-id
  //    order), and the rest of the log runs live behind them. Each round
  //    that still has a plan to run holds its epoch credit; counting all
  //    of its plans, replayed ones included, releases it exactly once.
  const std::size_t replayed = next_plan_;
  next_plan_ = 0;
  replay_remaining_ = replayed;
  epoch_outstanding_.clear();
  if (replayed < request_log_.size()) {
    const SinkEpoch first_open = request_log_[replayed].epoch;
    for (const RequestLogEntry& entry : request_log_) {
      if (entry.epoch >= first_open) ++epoch_outstanding_[entry.epoch];
    }
  }

  // 4. Reopen and re-deliver the inbound past: the parked remote pulls
  //    the checkpoint saved, then the network log (the §5.4 PUSH-log
  //    generalised, now just the post-checkpoint suffix), then the
  //    traffic that arrived while down. Parking in the cache and the
  //    storage service makes processing order irrelevant. Log/checkpoint
  //    re-injections carry the redelivery mark (already logged once); the
  //    stash does not — those messages were never processed, and a second
  //    crash must be able to replay them.
  std::vector<Message> stash;
  stash.swap(down_stash_);
  if (cp_epoch > 0) {
    for (Message m : checkpoint_->parked_pulls) {
      m.redelivery = true;
      inbound_.Send(std::move(m));
    }
  }
  for (const Message& m : network_log_) {
    Message copy = m;
    copy.redelivery = true;
    inbound_.Send(std::move(copy));
  }
  inbound_.Append(stash);

  // 5. Hand back to Recover(): the restore is over, and the machine is
  //    live at once when nothing is replayed.
  {
    std::lock_guard<std::mutex> lock(status_mu_);
    status_.restoring = false;
    status_.replayed = replayed;
    run_state_.store(replayed == 0 ? RunState::kLive : RunState::kRecovering,
                     std::memory_order_release);
  }
  status_cv_.notify_all();
}

// ---------------------------------------------------------------------
// Periodic checkpointing & log truncation
// ---------------------------------------------------------------------

void Machine::ConfigureCheckpoint(MachineCheckpoint* image, SinkEpoch every) {
  TPART_CHECK(every == 0 || log_recording_)
      << "checkpoint truncation is pointless without the §5.4 logs";
  checkpoint_ = image;
  checkpoint_every_ = every;
  next_checkpoint_epoch_ = every;
}

void Machine::CaptureCheckpoint(SinkEpoch epoch) {
  TPART_TRACE_SPAN("checkpoint_capture", "checkpoint",
                   {{"machine", id_}, {"epoch", epoch}});
  const auto start = std::chrono::steady_clock::now();
  MachineCheckpoint& cp = *checkpoint_;

  // The loop is between dispatches, so every logged message is fully
  // applied, and every plan before the cursor has run (the capture comes
  // at a drained boundary, or at the membership barrier's fence on a
  // quiesced stream) — so the images below cover exactly the effects of
  // rounds <= epoch. The network log truncates to empty and the request
  // log drops the plans that ran; later traffic and the rounds received
  // past the capture form the replay suffix. The storage and record
  // images fold only the keys changed since the previous capture.
  std::vector<ObjectKey> written;
  cp.state_keys_captured += storage_.FoldChanges(cp.storage, written);
  cp.records_captured += cp.FoldRecords(*store_, written);
  cp.cache = cache_.Capture();
  cp.parked_pulls.clear();
  for (const auto& [key_version, reqs] : parked_pulls_) {
    (void)key_version;
    cp.parked_pulls.insert(cp.parked_pulls.end(), reqs.begin(), reqs.end());
  }
  // Suffix replay cannot regenerate the truncated prefix's results, so
  // the capture carries everything accumulated up to the boundary.
  // Results only grow, and a restore resets them to the capture's, so the
  // capture already holds a prefix: append the rest.
  const std::size_t held = cp.results.size();
  TPART_CHECK(held <= results_.size() &&
              (held == 0 || results_[held - 1].id == cp.results.back().id))
      << "machine " << id_ << " checkpoint results (" << held
      << ") are not a prefix of its " << results_.size() << " results";
  cp.results.insert(cp.results.end(),
                    results_.begin() + static_cast<std::ptrdiff_t>(held),
                    results_.end());
  // Responses to requests of rounds past the capture: the network log
  // that delivered them truncates below, and the watermark keeps them
  // from being requested again.
  cp.responses.clear();
  for (const auto& entry : responses_) cp.responses.push_back(entry);
  std::sort(cp.responses.begin(), cp.responses.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  cp.truncated_request_entries += next_plan_;
  cp.truncated_network_messages += network_log_.size();
  for (std::size_t i = 0; i < next_plan_; ++i) {
    request_log_bytes_ -= RequestLogBytes(request_log_[i]);
  }
  request_log_.erase_front(next_plan_);
  next_plan_ = 0;
  network_log_.clear();
  network_log_bytes_ = 0;
  ++cp.captures_taken;
  cp.capture_us += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  cp.set_epoch(epoch);
  TPART_FLIGHT(obs::FlightEvent::kCheckpoint, 1 + id_, id_, epoch);
}

void Machine::RestoreImages(const MachineCheckpoint& cp) {
  // The truncated prefix's results only exist in the capture.
  results_ = cp.results;
  for (const auto& [req_id, value] : cp.responses) responses_[req_id] = value;
  cache_.Restore(cp.cache);
  storage_.Restore(cp.storage);
}

void Machine::InstallCheckpoint(const MachineCheckpoint& cp) {
  if (cp.epoch() == 0) return;
  RestoreImages(cp);
  for (Message m : cp.parked_pulls) {
    m.redelivery = true;
    inbound_.Send(std::move(m));
  }
}

void Machine::LogNetworkMessage(const Message& msg) {
  network_log_.push_back(msg);
  network_log_bytes_ += ApproxMessageBytes(msg);
  if (network_log_bytes_ > network_log_bytes_peak_) {
    network_log_bytes_peak_ = network_log_bytes_;
  }
}

// ---------------------------------------------------------------------
// Elastic migration (src/elastic)
// ---------------------------------------------------------------------

Status Machine::WaitStreamDrained(std::chrono::microseconds timeout) {
  std::unique_lock<std::mutex> lock(status_mu_);
  // A crash at a drained boundary leaves no credit held while the machine
  // is down; its recovery's replay and queued rounds must finish too.
  const auto drained = [&] {
    return (status_.credits_in_flight == 0 &&
            run_state_.load(std::memory_order_relaxed) == RunState::kLive) ||
           status_.credit_shutdown;
  };
  if (!status_cv_.wait_for(lock, timeout, drained)) {
    lock.unlock();  // StallDiagnostic takes status_mu_
    return Status::Unavailable("stream drain timed out: " +
                               StallDiagnostic());
  }
  return Status::Ok();
}

Status Machine::FenceService(std::chrono::microseconds timeout,
                             SinkEpoch capture_at) {
  TPART_CHECK(capture_at == 0 || checkpoint_ != nullptr)
      << "machine " << id_ << ": a capturing fence needs a checkpoint image";
  TPART_CHECK(capture_at == 0 ||
              run_state_.load(std::memory_order_acquire) == RunState::kLive)
      << "machine " << id_ << ": checkpoint capture on a non-live machine";
  std::unique_lock<std::mutex> lock(status_mu_);
  const std::uint64_t seq = ++status_.fence_posted;
  Message fence;
  fence.type = Message::Type::kServiceFence;
  fence.req_id = seq;
  fence.epoch = capture_at;
  // Direct into the inbound queue, never through the transport: the fence
  // is a local ordering marker, not a wire message. Sent under status_mu_
  // (Send never blocks), so fences enter the FIFO in sequence order and
  // fence_seen >= seq means this fence, and its capture, was dispatched.
  inbound_.Send(std::move(fence));
  const auto done = [&] { return status_.fence_seen >= seq; };
  if (!status_cv_.wait_for(lock, timeout, done)) {
    lock.unlock();
    return Status::Unavailable("service fence (capture epoch " +
                               std::to_string(capture_at) +
                               ") timed out: " + StallDiagnostic());
  }
  return Status::Ok();
}

void Machine::HandleMigrateBegin(Message msg) {
  const std::uint64_t stream = msg.req_id;
  // The done-set doubles as the idempotence guard: a duplicate begin must
  // not re-capture keys that were already extracted and dropped.
  if (!migration_source_done_.insert(stream).second) return;
  Result<std::vector<ObjectKey>> keys = DecodeKeyList(msg.plan_bytes);
  TPART_CHECK(keys.ok()) << "bad migration key list on machine " << id_
                         << ": " << keys.status().ToString();
  const MachineId target = static_cast<MachineId>(msg.dst_txn);
  TPART_TRACE_SPAN("migrate_source", "elastic",
                   {{"machine", id_},
                    {"target", target},
                    {"keys", keys->size()},
                    {"cut", msg.epoch}});

  // Capture the partition image: record and version-discipline state per
  // key — then drop both locally. ExtractKeys CHECKs that no parked
  // storage work exists (the barrier quiesced the stream), and marks
  // every key changed so the forced capture folds the deletions into this
  // machine's checkpoint.
  std::unordered_map<ObjectKey, StorageService::MigratedKeyState> state_of;
  for (auto& st : storage_.ExtractKeys(*keys)) {
    const ObjectKey key = st.key;
    state_of.emplace(key, std::move(st));
  }
  PartitionImage image;
  image.entries.reserve(keys->size());
  std::uint64_t records = 0;
  for (const ObjectKey key : *keys) {
    PartitionImage::KeyEntry e;
    e.key = key;
    Result<Record> r = store_->Read(key);
    if (r.ok()) {
      e.present = true;
      e.value = std::move(*r);
      // Cannot miss: the key was read one line up under the same fence.
      (void)store_->Delete(key);
      ++records;
    }
    auto st = state_of.find(key);
    if (st != state_of.end()) {
      e.has_state = true;
      e.current = st->second.current;
      e.reads_served_since_wb = st->second.reads_served_since_wb;
      e.has_sticky = st->second.has_sticky;
      e.sticky_expire = st->second.sticky_expire;
    }
    image.entries.push_back(std::move(e));
  }

  const std::string encoded = EncodePartitionImage(image);
  const std::vector<std::string> chunks = ChunkImage(encoded);
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    Message chunk;
    chunk.type = Message::Type::kPartitionImage;
    chunk.req_id = stream;
    chunk.epoch = i;                 // chunk index
    chunk.txn = chunks.size();       // total chunks
    chunk.plan_bytes = chunks[i];
    chunk.term = msg.term;  // fence chain: begin's term covers the stream
    SendOut(target, std::move(chunk));
    // One chunk per frame: a chunk is well under the wire's frame bound,
    // a whole image need not be.
    FlushOutbox();
  }
  Message commit;
  commit.type = Message::Type::kMigrateCommit;
  commit.term = msg.term;
  commit.req_id = stream;
  commit.key = WireChecksum(encoded);  // image checksum
  commit.txn = chunks.size();
  commit.version = image.entries.size();
  commit.epoch = msg.epoch;
  SendOut(target, std::move(commit));

  migration_counters_.keys_moved_out += keys->size();
  migration_counters_.records_moved += records;
  migration_counters_.bytes_shipped += encoded.size();
  migration_counters_.chunks_shipped += chunks.size();
  ++migration_counters_.images_sent;
}

void Machine::HandleImageChunk(Message msg) {
  const std::uint64_t stream = msg.req_id;
  if (migration_installed_.count(stream) != 0) {
    ++migration_counters_.duplicate_chunks_dropped;
    return;
  }
  InboundImage& img = inbound_images_[stream];
  if (!img.chunks.emplace(msg.epoch, std::move(msg.plan_bytes)).second) {
    ++migration_counters_.duplicate_chunks_dropped;
    return;
  }
  if (img.commit_seen && img.chunks.size() == img.expect_chunks) {
    InstallMigration(stream);
  }
}

void Machine::HandleMigrateCommit(Message msg) {
  const std::uint64_t stream = msg.req_id;
  if (migration_installed_.count(stream) != 0) return;  // dup commit
  InboundImage& img = inbound_images_[stream];
  if (img.commit_seen) return;  // dup commit, still assembling
  img.commit_seen = true;
  img.expect_chunks = msg.txn;
  img.expect_entries = msg.version;
  img.checksum = static_cast<std::uint32_t>(msg.key);
  // A faulty transport may reorder the commit ahead of trailing chunks;
  // install fires from the last chunk's handler in that case.
  if (img.chunks.size() == img.expect_chunks) InstallMigration(stream);
}

void Machine::InstallMigration(std::uint64_t stream) {
  auto it = inbound_images_.find(stream);
  TPART_CHECK(it != inbound_images_.end());
  const InboundImage& img = it->second;
  TPART_CHECK(img.chunks.size() == img.expect_chunks);
  std::string encoded;
  std::uint64_t next = 0;
  for (const auto& [idx, bytes] : img.chunks) {
    TPART_CHECK(idx == next++) << "migration chunk gap at " << idx;
    encoded += bytes;
  }
  const std::uint32_t checksum = img.checksum;
  const std::uint64_t expect_entries = img.expect_entries;
  inbound_images_.erase(it);
  TPART_CHECK(WireChecksum(encoded) == checksum)
      << "migration image checksum mismatch on machine " << id_
      << " (stream " << stream << ")";
  Result<PartitionImage> image = DecodePartitionImage(encoded);
  TPART_CHECK(image.ok()) << "bad migration image on machine " << id_
                          << ": " << image.status().ToString();
  TPART_CHECK(image->entries.size() == expect_entries);
  TPART_TRACE_SPAN("migrate_install", "elastic",
                   {{"machine", id_}, {"keys", image->entries.size()}});

  std::vector<StorageService::MigratedKeyState> states;
  std::vector<ObjectKey> all_keys;
  all_keys.reserve(image->entries.size());
  for (auto& e : image->entries) {
    all_keys.push_back(e.key);
    if (e.present) {
      store_->Upsert(e.key, std::move(e.value));
    } else if (store_->Contains(e.key)) {
      // Cannot miss: guarded by the Contains() probe above.
      (void)store_->Delete(e.key);
    }
    if (e.has_state) {
      states.push_back(StorageService::MigratedKeyState{
          e.key, e.current, e.reads_served_since_wb, e.has_sticky,
          e.sticky_expire});
    }
  }
  storage_.InstallKeys(states);
  // Mark every moved key dirty (not just the stateful ones) so the forced
  // post-migration checkpoint folds the installed records in.
  storage_.MarkDirty(all_keys);
  migration_installed_.insert(stream);
  migration_counters_.keys_moved_in += all_keys.size();
  ++migration_counters_.images_installed;
}

bool Machine::MigrationSourceDone(std::uint64_t stream) const {
  return migration_source_done_.count(stream) != 0;
}

bool Machine::MigrationInstalled(std::uint64_t stream) const {
  return migration_installed_.count(stream) != 0;
}

void Machine::set_diagnostic_context(std::function<std::string()> context) {
  std::lock_guard<std::mutex> lock(status_mu_);
  diagnostic_context_ = std::move(context);
}

std::string Machine::StallDiagnostic() const {
  std::ostringstream out;
  out << "machine " << id_;
  switch (run_state_.load(std::memory_order_acquire)) {
    case RunState::kLive:
      out << " state=live";
      break;
    case RunState::kDown:
      out << " state=down";
      break;
    case RunState::kRecovering:
      out << " state=recovering";
      break;
  }
  out << " inbound=" << inbound_.size();
  {
    std::lock_guard<std::mutex> lock(status_mu_);
    const Progress& p = status_.progress;
    out << " work=" << p.work << " rounds_in_progress=" << p.rounds_in_progress
        << " finished_enqueue=" << (p.finished_enqueue ? 1 : 0)
        << " pending_rounds=" << p.pending_rounds
        << " next_epoch=" << p.next_epoch
        << " dup_rounds_dropped=" << p.dup_rounds_dropped
        << " responses_pending=" << p.responses_pending
        << " credits_in_flight=" << status_.credits_in_flight
        << " stashed=" << p.stashed
        << " executed=" << executed_plans_.load(std::memory_order_relaxed)
        << " heartbeat_seen=" << heartbeat_seen()
        << " fence_term=" << fence_term() << " fenced=" << fenced_messages();
    // Called under the lock, so clearing the context waits out a caller.
    if (diagnostic_context_) out << diagnostic_context_();
  }
  std::string text = out.str();
  TPART_TRACE(Instant("stall_diagnostic", "fault", {{"machine", id_}},
                      text));
  // A stall diagnostic only fires on fault paths (a head plan parked past
  // its deadline, drain/fence timeouts, failure declarations), so it
  // doubles as the flight recorder's auto-dump trigger: the post-mortem
  // tail carries this marker plus whatever led up to it.
  TPART_FLIGHT(obs::FlightEvent::kStall, 1 + id_, id_,
               executed_plans_.load(std::memory_order_relaxed));
  TPART_FLIGHT_DUMP("stall");
  return text;
}

void Machine::AbortPendingWaits() {
  draining_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(status_mu_);
    status_.credit_shutdown = true;
  }
  status_cv_.notify_all();
  Wake();  // the loop drains its queue (a parked head too) and goes idle
}

// ---------------------------------------------------------------------
// Calvin transactions
// ---------------------------------------------------------------------

bool Machine::AdvanceCalvin() {
  if (calvin_work_.empty()) return false;
  TxnSpec& spec = calvin_work_.front();
  auto& values = scratch_.exec.values;
  auto& remote_keys = scratch_.remote_keys;
  if (!head_active_) {
    head_active_ = true;
    // Calvin (§2.1): read local footprint, push to peers, wait for peers'
    // reads, execute the full procedure, write local keys.
    scratch_.exec.Clear();
    remote_keys.clear();
    std::vector<MachineId> participants;
    std::vector<std::pair<ObjectKey, Record>> local_kvs;
    for (const ObjectKey k : spec.rw.AllKeys()) {
      const MachineId home = locate_(k);
      if (std::find(participants.begin(), participants.end(), home) ==
          participants.end()) {
        participants.push_back(home);
      }
      if (home == id_) {
        Result<Record> r = store_->Read(k);
        Record value = r.ok() ? std::move(*r) : Record::Absent();
        local_kvs.emplace_back(k, value);
        values.emplace(k, std::move(value));
      } else {
        remote_keys.push_back(k);
      }
    }
    for (const MachineId peer : participants) {
      if (peer == id_) continue;
      Message m;
      m.type = Message::Type::kPeerReads;
      m.txn = spec.id;
      m.kvs = local_kvs;
      SendOut(peer, std::move(m));
    }
  }
  if (!remote_keys.empty()) {
    auto it = peer_reads_.find(spec.id);
    const bool ready =
        it != peer_reads_.end() &&
        std::all_of(remote_keys.begin(), remote_keys.end(),
                    [&](ObjectKey k) { return it->second.count(k) != 0; });
    // A failed run takes what arrived instead of waiting for the rest.
    if (!ready && !draining_.load(std::memory_order_acquire)) {
      NoteParked(0);
      return false;
    }
    if (it != peer_reads_.end()) {
      for (auto& [key, value] : it->second) values[key] = std::move(value);
      peer_reads_.erase(it);
    }
  }

  TPART_TRACE_SPAN("txn", "exec", {{"txn", spec.id}});
  GatheredTxnContext ctx(&spec, &scratch_.exec);
  Result<TxnResult> result = RunProcedure(*registry_, spec, ctx);
  TPART_CHECK(result.ok()) << "engine failure executing T" << spec.id
                           << ": " << result.status().ToString();
  if (result->committed) {
    for (auto& [key, rec] : ctx.writes()) {
      if (locate_(key) != id_) continue;  // "local write" (§2.1)
      if (rec.is_absent()) {
        // Blind delete: an absent write may target a key that never
        // existed here; kNotFound is the expected no-op, not an error.
        (void)store_->Delete(key);
      } else {
        store_->Upsert(key, std::move(rec));
      }
    }
  }
  CompletePlan(std::move(*result), /*epoch=*/0);
  calvin_work_.pop_front();
  ReleaseHead();
  return true;
}

}  // namespace tpart
