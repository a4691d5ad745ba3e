#include "runtime/machine.h"

#include <algorithm>
#include <sstream>

#include <unordered_map>

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

}  // namespace

Machine::Machine(MachineId id, std::size_t num_machines, KvStore* store,
                 const ProcedureRegistry* registry, SendFn send)
    : id_(id),
      num_machines_(num_machines),
      store_(store),
      registry_(registry),
      send_(std::move(send)),
      storage_(store) {}

Machine::~Machine() {
  if (executor_.joinable()) executor_.join();
  if (recovery_executor_.joinable()) recovery_executor_.join();
  if (service_.joinable()) {
    Deliver(Message{});  // kShutdown default
    service_.join();
  }
}

void Machine::SendOut(MachineId to, Message msg) {
  if (replay_) return;  // §5.4 replay is local
  send_(to, std::move(msg));
}

void Machine::SendOutBatch(std::vector<std::pair<MachineId, Message>>& msgs) {
  if (replay_ || msgs.empty()) return;  // §5.4 replay is local
  send_batch_(msgs);
}

void Machine::EnqueueTPartEpoch(SinkEpoch epoch,
                                std::vector<PlanItem> items) {
  {
    std::lock_guard<std::mutex> lock(work_mu_);
    for (auto& item : items) {
      tpart_work_.push_back(WorkUnit{epoch, std::move(item), false});
    }
  }
  work_cv_.notify_all();
}

void Machine::EnqueueCalvinTxn(TxnSpec spec) {
  {
    std::lock_guard<std::mutex> lock(work_mu_);
    calvin_work_.push_back(std::move(spec));
  }
  work_cv_.notify_one();
}

void Machine::FinishEnqueue() {
  {
    std::lock_guard<std::mutex> lock(work_mu_);
    finished_enqueue_ = true;
  }
  work_cv_.notify_all();
}

void Machine::StartTPart() {
  service_running_ = true;
  service_ = std::thread([this] { ServiceLoop(); });
  executor_ = std::thread([this] { TPartExecutorLoop(/*initial=*/true); });
}

void Machine::StartCalvin() {
  service_running_ = true;
  service_ = std::thread([this] { ServiceLoop(); });
  executor_ = std::thread([this] { CalvinExecutorLoop(); });
}

void Machine::JoinExecutor() {
  if (executor_.joinable()) executor_.join();
}

void Machine::JoinRecoveredExecutor() {
  if (recovery_executor_.joinable()) recovery_executor_.join();
}

void Machine::Stop() {
  // Drain first: by the time a machine is stopped, every peer executor
  // has joined and the cluster has Flush()ed the transport, so all
  // in-flight messages already sit in the inbound queue; processing up
  // to the shutdown sentinel applies any remaining write-backs before
  // the storage front-end closes.
  if (service_.joinable()) {
    Message stop;
    stop.type = Message::Type::kShutdown;
    inbound_.Send(std::move(stop));
    service_.join();
  }
  cache_.Shutdown();
  storage_.Shutdown();
  {
    std::lock_guard<std::mutex> lock(resp_mu_);
    resp_shutdown_ = true;
  }
  resp_cv_.notify_all();
  {
    std::lock_guard<std::mutex> lock(peer_mu_);
    peer_shutdown_ = true;
  }
  peer_cv_.notify_all();
  {
    std::lock_guard<std::mutex> lock(credit_mu_);
    credit_shutdown_ = true;
  }
  credit_cv_.notify_all();
  service_running_ = false;
}

std::vector<TxnResult> Machine::TakeResults() {
  std::lock_guard<std::mutex> lock(results_mu_);
  return std::move(results_);
}

// ---------------------------------------------------------------------
// Service thread
// ---------------------------------------------------------------------

void Machine::ServiceLoop() {
  TPART_TRACE(SetThreadInfo(static_cast<int>(1 + id_), "service"));
  while (true) {
    Message msg = inbound_.Receive();
    if (msg.type == Message::Type::kShutdown) return;
    if (run_state_.load(std::memory_order_acquire) == RunState::kDown) {
      // Crash-stop: the machine is gone. Heartbeats are dropped so the
      // failure detector sees the stall; everything else is stashed — the
      // reliability layer already acked it on delivery into our inbound
      // queue, so dropping it would lose it forever. Re-injecting the
      // stash at recovery models the peers' transport retransmitting to
      // the rebuilt machine. A local service fence is still served:
      // Recover() uses one to wait out a dispatch that began before the
      // crash-stop. (A capturing fence is never pending here: its poster
      // waits for it, and only the executor crash-stops, after its wait.)
      if (msg.type != Message::Type::kHeartbeat &&
          msg.type != Message::Type::kServiceFence) {
        std::lock_guard<std::mutex> lock(crash_mu_);
        if (run_state_.load(std::memory_order_relaxed) == RunState::kDown) {
          down_stash_.push_back(std::move(msg));
          continue;
        }
        // Recovery flipped the state (under crash_mu_) since the fast
        // check; fall through and process normally.
      } else if (msg.type != Message::Type::kServiceFence) {
        continue;
      }
    }
    Dispatch(std::move(msg));
  }
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
  // logged — a later crash must be able to replay it too. So is a message
  // whose dispatch races the executor's crash-stop: ServiceLoop saw the
  // machine live, so it is applied here, and Recover() wipes what it
  // applied; only the log brings it back.
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
    case Message::Type::kCacheReadReq: {
      // Logged so replay re-serves the same reads and entry/version
      // refcounts line up (§5.4 local replay).
      if (log) LogNetworkMessage(msg);
      auto v = cache_.TryEpochEntry(msg.key, msg.version, msg.invalidate,
                                    msg.total_reads);
      if (v.has_value()) {
        Message resp;
        resp.type = Message::Type::kCacheReadResp;
        resp.req_id = msg.req_id;
        resp.value = std::move(*v);
        SendOut(msg.reply_to, std::move(resp));
      } else {
        std::lock_guard<std::mutex> lock(stream_mu_);
        parked_pulls_[{msg.key, msg.version}].push_back(std::move(msg));
      }
      break;
    }
    case Message::Type::kLocalPublish: {
      std::vector<Message> reqs;
      {
        std::lock_guard<std::mutex> lock(stream_mu_);
        auto it = parked_pulls_.find({msg.key, msg.version});
        if (it != parked_pulls_.end()) {
          reqs = std::move(it->second);
          parked_pulls_.erase(it);
        }
      }
      for (Message& req : reqs) {
        auto v = cache_.TryEpochEntry(req.key, req.version, req.invalidate,
                                      req.total_reads);
        if (!v.has_value()) {
          // A stale publish note re-injected from the crash stash can
          // precede the replay's re-publication of the entry; re-park
          // and let the genuine note serve it.
          std::lock_guard<std::mutex> lock(stream_mu_);
          parked_pulls_[{req.key, req.version}].push_back(std::move(req));
          continue;
        }
        Message resp;
        resp.type = Message::Type::kCacheReadResp;
        resp.req_id = req.req_id;
        resp.value = std::move(*v);
        SendOut(req.reply_to, std::move(resp));
      }
      break;
    }
    case Message::Type::kCacheReadResp:
    case Message::Type::kStorageReadResp: {
      if (log) LogNetworkMessage(msg);
      {
        std::lock_guard<std::mutex> lock(resp_mu_);
        responses_[msg.req_id] = std::move(msg.value);
      }
      resp_cv_.notify_all();
      break;
    }
    case Message::Type::kStorageReadReq: {
      if (log) LogNetworkMessage(msg);
      const MachineId reply_to = msg.reply_to;
      const std::uint64_t req_id = msg.req_id;
      // The tag lets a checkpoint capture a still-parked remote read and
      // a recovery rebuild this reply callback from it.
      storage_.AsyncRead(msg.key, msg.version,
                         [this, reply_to, req_id](Record value) {
                           Message resp;
                           resp.type = Message::Type::kStorageReadResp;
                           resp.req_id = req_id;
                           resp.value = std::move(value);
                           SendOut(reply_to, std::move(resp));
                         },
                         StorageService::RemoteReadTag{reply_to, req_id});
      break;
    }
    case Message::Type::kWriteBackApply:
      if (log) LogNetworkMessage(msg);
      storage_.ApplyWriteBack(msg.key, msg.version, msg.replaces,
                              std::move(msg.value), msg.awaits, msg.sticky,
                              msg.epoch);
      break;
    case Message::Type::kPeerReads: {
      if (log) LogNetworkMessage(msg);
      {
        std::lock_guard<std::mutex> lock(peer_mu_);
        auto& bucket = peer_reads_[msg.txn];
        for (auto& [key, value] : msg.kvs) {
          bucket[key] = std::move(value);
        }
      }
      peer_cv_.notify_all();
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
      // applied. A capturing fence is posted at a quiescent epoch
      // boundary, so capture here and truncate the logs before releasing
      // the poster.
      if (msg.epoch != 0) CaptureCheckpoint(msg.epoch);
      {
        std::lock_guard<std::mutex> lock(fence_mu_);
        if (msg.req_id > fence_seen_) fence_seen_ = msg.req_id;
      }
      fence_cv_.notify_all();
      break;
    // Streaming dissemination. Not network-logged: §5.4 replay re-runs
    // from the request log, which ExecutePlan populates either way.
    case Message::Type::kSinkPlan:
      HandleSinkPlan(std::move(msg));
      break;
    case Message::Type::kPlanStreamEnd: {
      bool finish = false;
      {
        std::lock_guard<std::mutex> lock(stream_mu_);
        stream_end_seen_ = true;
        stream_final_epoch_ = msg.epoch;
        // The end marker can overtake delayed rounds on an unordered
        // transport; only finish once every round up to it is enqueued.
        finish = next_stream_epoch_ > stream_final_epoch_;
      }
      if (finish) FinishEnqueue();
      break;
    }
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
        {
          std::lock_guard<std::mutex> lock(stream_mu_);
          ack.epoch = next_stream_epoch_ - 1;
        }
        SendOut(msg.reply_to, std::move(ack));
      }
      break;
  }
}

// ---------------------------------------------------------------------
// Streaming intake
// ---------------------------------------------------------------------

void Machine::HandleSinkPlan(Message msg) {
  Result<SinkPlan> plan = DecodeSinkPlan(msg.plan_bytes);
  TPART_CHECK(plan.ok()) << "bad sink plan on the wire: "
                         << plan.status().ToString();
  std::unordered_map<TxnId, TxnSpec> spec_of;
  spec_of.reserve(msg.specs.size());
  for (TxnSpec& spec : msg.specs) spec_of.emplace(spec.id, std::move(spec));

  std::vector<PlanItem> slice;
  for (TxnPlan& p : plan->txns) {
    if (p.machine != id_) continue;
    auto node = spec_of.extract(p.txn);
    TPART_CHECK(!node.empty()) << "round " << plan->epoch
                               << " plan for T" << p.txn << " has no spec";
    slice.push_back(PlanItem{std::move(p), std::move(node.mapped())});
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

  std::vector<std::pair<SinkEpoch, std::vector<PlanItem>>> ready;
  bool finish = false;
  {
    std::lock_guard<std::mutex> lock(stream_mu_);
    if (plan->epoch < next_stream_epoch_ ||
        pending_stream_plans_.count(plan->epoch) != 0) {
      // Duplicate round: recovery re-ships a window of recent rounds and
      // cannot know how far this machine got, so intake is idempotent.
      ++duplicate_rounds_dropped_;
      TPART_TRACE(Instant("dup_round_dropped", "stream",
                          {{"epoch", plan->epoch}}));
      return;
    }
    if (plan->epoch == recovered_partial_epoch_ &&
        !recovered_partial_txns_.empty()) {
      // The machine crashed mid-round; the §5.4 replay already re-ran the
      // round's logged prefix, so only the remainder executes live.
      slice.erase(std::remove_if(slice.begin(), slice.end(),
                                 [&](const PlanItem& item) {
                                   return recovered_partial_txns_.count(
                                              item.plan.txn) != 0;
                                 }),
                  slice.end());
    }
    pending_stream_plans_.emplace(plan->epoch, std::move(slice));
    // Deliver in order; a reliable-but-unordered transport may have
    // handed us later rounds first.
    for (auto it = pending_stream_plans_.begin();
         it != pending_stream_plans_.end() &&
         it->first == next_stream_epoch_;
         it = pending_stream_plans_.erase(it), ++next_stream_epoch_) {
      ready.emplace_back(it->first, std::move(it->second));
    }
    finish = stream_end_seen_ && next_stream_epoch_ > stream_final_epoch_;
  }
  for (auto& [epoch, items] : ready) {
    EnqueueStreamEpoch(epoch, std::move(items));
  }
  if (finish) FinishEnqueue();
}

void Machine::EnqueueStreamEpoch(SinkEpoch epoch,
                                 std::vector<PlanItem> items) {
  // Request the round's remote reads before its plans reach the executor,
  // so their round trips overlap earlier plans. A round re-shipped after
  // Recover() at or below the watermark already has its requests out.
  bool request = false;
  {
    std::lock_guard<std::mutex> lock(stream_mu_);
    if (epoch > reads_issued_through_) {
      reads_issued_through_ = epoch;
      request = true;
    }
  }
  if (request) RequestRemoteReads(items);
  const bool empty = items.empty();
  {
    std::lock_guard<std::mutex> lock(work_mu_);
    if (!empty) epoch_outstanding_[epoch] = items.size();
    for (auto& item : items) {
      tpart_work_.push_back(WorkUnit{epoch, std::move(item), false});
    }
  }
  work_cv_.notify_all();
  // A round with no local slice holds its credit for no reason.
  if (empty) ReleaseEpochCredit();
}

void Machine::RequestRemoteReads(const std::vector<PlanItem>& items) {
  // Per-service-thread scratch (DESIGN §4h), like the executor's outbox.
  thread_local std::vector<std::pair<MachineId, Message>> requests;
  requests.clear();
  for (const PlanItem& item : items) {
    const TxnPlan& p = item.plan;
    for (std::size_t i = 0; i < p.reads.size(); ++i) {
      const ReadStep& r = p.reads[i];
      const bool pull = r.kind == ReadSourceKind::kCacheRemote;
      if (!pull &&
          (r.kind != ReadSourceKind::kStorage || r.src_machine == id_)) {
        continue;  // served locally by the executor's gather
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
      requests.emplace_back(r.src_machine, std::move(req));
    }
  }
  SendOutBatch(requests);
}

bool Machine::OnPlanItemDone(SinkEpoch epoch) {
  const bool release = MarkPlanItemDone(epoch);
  if (release) ReleaseEpochCredit();
  return release;
}

bool Machine::MarkPlanItemDone(SinkEpoch epoch) {
  std::lock_guard<std::mutex> lock(work_mu_);
  auto it = epoch_outstanding_.find(epoch);
  if (it != epoch_outstanding_.end() && --it->second == 0) {
    epoch_outstanding_.erase(it);
    return true;
  }
  return false;
}

Machine::CreditGrant Machine::AcquireEpochCreditFor(
    std::chrono::microseconds timeout) {
  std::unique_lock<std::mutex> lock(credit_mu_);
  bool waited = false;
  const auto open = [&] {
    return epochs_in_flight_ < epoch_queue_capacity_ || credit_shutdown_;
  };
  if (!open()) {
    waited = true;
    if (!credit_cv_.wait_for(lock, timeout, open)) {
      return CreditGrant::kTimedOut;
    }
  }
  ++epochs_in_flight_;
  if (epochs_in_flight_ > epoch_high_water_) {
    epoch_high_water_ = epochs_in_flight_;
  }
  return waited ? CreditGrant::kGrantedAfterWait : CreditGrant::kGranted;
}

void Machine::ReleaseEpochCredit() {
  {
    std::lock_guard<std::mutex> lock(credit_mu_);
    if (epochs_in_flight_ > 0) --epochs_in_flight_;
  }
  // notify_all: a migration barrier's WaitStreamDrained may be waiting on
  // the same cv as an AcquireEpochCreditFor caller.
  credit_cv_.notify_all();
}

std::size_t Machine::epoch_queue_high_water() const {
  std::lock_guard<std::mutex> lock(credit_mu_);
  return epoch_high_water_;
}

std::size_t Machine::epochs_in_flight() const {
  std::lock_guard<std::mutex> lock(credit_mu_);
  return epochs_in_flight_;
}

// ---------------------------------------------------------------------
// T-Part executor
// ---------------------------------------------------------------------

void Machine::TPartExecutorLoop(bool initial) {
  TPART_TRACE(SetThreadInfo(static_cast<int>(1 + id_), "executor"));
  // The epoch-0 edge of the chaos matrix: the machine dies before any
  // plan runs. Only the StartTPart() executor honours it — a recovery
  // executor must not re-fire the same point.
  if (initial && crash_armed_.load(std::memory_order_acquire)) {
    bool fire = false;
    {
      std::lock_guard<std::mutex> lock(crash_mu_);
      fire = !crash_points_.empty() && crash_points_.front().at_start;
    }
    if (fire) {
      CrashStop(/*resume=*/1);
      return;
    }
  }
  // Plans pop in total order; a read blocks until its named version
  // exists, produced by an earlier — hence already-popped — transaction
  // or a remote machine.
  while (true) {
    WorkUnit unit;
    bool evict = false;
    {
      std::unique_lock<std::mutex> lock(work_mu_);
      work_cv_.wait(lock, [&] {
        return !tpart_work_.empty() || finished_enqueue_ ||
               run_state_.load(std::memory_order_relaxed) ==
                   RunState::kDown;
      });
      // Crash-stop: abandon queued work mid-stream. The executor
      // observes this re-evaluating the predicate right after its own
      // CrashStop() call.
      if (run_state_.load(std::memory_order_relaxed) == RunState::kDown) {
        return;
      }
      if (tpart_work_.empty()) return;
      unit = std::move(tpart_work_.front());
      tpart_work_.pop_front();
      if (unit.epoch > evicted_upto_) {
        evicted_upto_ = unit.epoch;
        evict = true;
      }
    }
    if (evict) {
      cache_.EvictExpiredSticky(
          unit.epoch > kStickyTtl ? unit.epoch - kStickyTtl : 0);
    }
    ExecutePlan(unit.epoch, unit.item, unit.replay);
  }
}

void Machine::ExecutePlan(SinkEpoch epoch, const PlanItem& item,
                          bool is_replay) {
  const TxnPlan& p = item.plan;
  const TxnSpec& spec = item.spec;
  TPART_CHECK(p.machine == id_);
  // Request log: "the transaction requests are logged only after they are
  // partitioned, and each machine logs only those requests that are
  // assigned to itself" (§5.4). Entries land in execution order.
  // Replayed plans are already in the log.
  if (log_recording_ && !replay_ && !is_replay) {
    std::lock_guard<std::mutex> lock(log_mu_);
    request_log_.push_back(RequestLogEntry{epoch, item});
    request_log_bytes_ +=
        sizeof(RequestLogEntry) +
        item.spec.params.size() * sizeof(item.spec.params[0]);
    if (request_log_bytes_ > request_log_bytes_peak_) {
      request_log_bytes_peak_ = request_log_bytes_;
    }
  }

  TPART_TRACE_SPAN("txn", is_replay ? "replay" : "exec",
                   {{"txn", p.txn}, {"epoch", epoch}});
  TPART_FLIGHT(obs::FlightEvent::kExecute, 1 + id_, p.txn, epoch);
  if (obs::SampledTxn(p.txn, txn_sample_)) {
    TPART_TRACE(AsyncInstant(is_replay ? "replayed" : "executed", "timeline",
                             p.txn, {{"machine", id_}, {"epoch", epoch}}));
  }

  // ---- Gather every planned read (the version-based deterministic CC:
  // each read waits for its exact version, §5.2). Remote reads were
  // requested when the round arrived (RequestRemoteReads); the gather
  // only awaits their responses.
  TPART_TRACE(Begin("gather", "exec", {{"reads", p.reads.size()}}));
  // Per-executor scratch (DESIGN §4h): the gather map, pending-response
  // list, and publish outbox keep their capacity across plans, so the
  // steady-state executor loop stops allocating. An executor runs one
  // plan at a time, and the scratch never escapes the call.
  struct PendingResp {
    ObjectKey key;
    std::uint64_t req_id;
  };
  struct PlanScratch {
    ExecScratch exec;
    std::vector<PendingResp> pending;
    std::vector<std::pair<MachineId, Message>> outbox;
  };
  thread_local PlanScratch scratch;
  scratch.exec.Clear();
  scratch.pending.clear();
  auto& values = scratch.exec.values;
  auto& pending = scratch.pending;
  std::size_t read_idx = 0;
  for (const ReadStep& r : p.reads) {
    const std::uint64_t req_id = ReadRequestId(p.txn, read_idx++);
    switch (r.kind) {
      case ReadSourceKind::kLocalVersion:
      case ReadSourceKind::kPush: {
        auto v = cache_.AwaitVersion(r.key, r.src_txn, p.txn, kStallTimeout);
        // nullopt is a shutdown (a draining run reads it as absent) or an
        // expired wait (a lost push or hand-off: fail the run).
        TPART_CHECK(v.has_value() ||
                    draining_.load(std::memory_order_acquire))
            << "T" << p.txn << " stalled on "
            << (r.kind == ReadSourceKind::kPush ? "push" : "local version")
            << " of key " << r.key << " v" << r.src_txn << ": "
            << StallDiagnostic();
        values[r.key] = v.has_value() ? std::move(*v) : Record::Absent();
        // The consumer end of the forward-push arrow: the producing
        // transaction's span holds the matching FlowStart.
        if (r.kind == ReadSourceKind::kPush && !is_replay) {
          TPART_TRACE(FlowEnd("push", obs::PushFlowId(r.key, r.src_txn,
                                                      p.txn)));
        }
        break;
      }
      case ReadSourceKind::kCacheLocal: {
        auto v = cache_.AwaitEpochEntry(r.key, r.src_txn,
                                        r.invalidate_entry,
                                        r.entry_total_reads, kStallTimeout);
        TPART_CHECK(v.has_value() ||
                    draining_.load(std::memory_order_acquire))
            << "T" << p.txn << " stalled on cache entry of key " << r.key
            << " v" << r.src_txn << ": " << StallDiagnostic();
        values[r.key] = v.has_value() ? std::move(*v) : Record::Absent();
        TPART_TRACE(Instant("cache_hit", "cache",
                            {{"key", r.key}, {"txn", p.txn}}));
        break;
      }
      case ReadSourceKind::kCacheRemote:
        pending.push_back(PendingResp{r.key, req_id});
        break;
      case ReadSourceKind::kStorage: {
        if (r.src_machine == id_) {
          Result<Record> v =
              storage_.BlockingReadFor(r.key, r.src_txn, kStallTimeout);
          TPART_CHECK(v.ok())
              << "T" << p.txn << " stalled on local storage read of key "
              << r.key << " v" << r.src_txn << ": " << StallDiagnostic();
          values[r.key] = std::move(*v);
        } else {
          pending.push_back(PendingResp{r.key, req_id});
        }
        break;
      }
    }
  }
  for (auto& pr : pending) {
    values[pr.key] = AwaitResponse(pr.req_id);
  }
  TPART_TRACE(End());  // gather

  // A failed run (AbortPendingWaits) drains without executing: the
  // gathered values are shutdown placeholders, and procedures are
  // entitled to assume real records.
  if (draining_.load(std::memory_order_acquire)) {
    TxnResult res;
    res.id = p.txn;
    {
      std::lock_guard<std::mutex> lock(results_mu_);
      results_.push_back(std::move(res));
    }
    OnPlanItemDone(epoch);
    executed_plans_.fetch_add(1, std::memory_order_relaxed);
    if (is_replay &&
        replay_remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(crash_mu_);
      run_state_.store(RunState::kLive, std::memory_order_release);
      crash_cv_.notify_all();
    }
    return;
  }

  // ---- Execute the stored procedure.
  TPART_TRACE(Begin("procedure", "exec"));
  GatheredTxnContext ctx(&spec, &scratch.exec);
  Result<TxnResult> result = RunProcedure(*registry_, spec, ctx);
  TPART_CHECK(result.ok()) << "engine failure executing T" << p.txn << ": "
                           << result.status().ToString();
  const bool committed = result->committed;
  TPART_TRACE(End());  // procedure

  // ---- Outbound plan steps. An aborted transaction forwards the values
  // it read (§5.3), which OutgoingValue() encapsulates. Pushes and remote
  // write-backs are staged in an outbox and flushed as ONE batch at the
  // end of the phase (nothing here awaits a reply, so deferring them is
  // safe).
  TPART_TRACE(Begin("publish", "exec", {{"pushes", p.pushes.size()}}));
  auto& outbox = scratch.outbox;
  outbox.clear();
  outbox.reserve(p.pushes.size() + p.write_backs.size());
  // In-run recovery re-executes logged plans with outbound traffic
  // suppressed, exactly like offline replay (§5.4): peers already
  // received these pushes and write-backs before the crash, and
  // version/epoch entries are consume-once, so re-sending would corrupt
  // their refcounts.
  const auto stage_out = [&](MachineId to, Message m) {
    if (!is_replay) outbox.emplace_back(to, std::move(m));
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
    Message note;
    note.type = Message::Type::kLocalPublish;
    note.key = s.key;
    note.version = p.txn;
    inbound_.Send(std::move(note));  // wake parked remote pulls
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
  SendOutBatch(outbox);
  TPART_TRACE(End());  // publish

  {
    std::lock_guard<std::mutex> lock(results_mu_);
    results_.push_back(std::move(*result));
  }
  // Replayed plans already fired their commit hook pre-crash; firing
  // again would double-count latency samples.
  if (commit_hook_ && !is_replay) commit_hook_(p.txn);
  // The credit release for a drained round is deferred past the crash
  // trigger below (see MarkPlanItemDone): anyone woken by the release —
  // in particular a membership barrier's WaitStreamDrained — must already
  // observe CrashStop's state flip.
  const bool drained = MarkPlanItemDone(epoch);
  const std::uint64_t executed =
      executed_plans_.fetch_add(1, std::memory_order_relaxed) + 1;

  if (is_replay &&
      replay_remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Replay complete: the machine rejoins the stream. Recover() is
    // blocked on this flip; the cluster re-ships lost rounds only after
    // it returns, so live rounds never race the replay.
    std::lock_guard<std::mutex> lock(crash_mu_);
    run_state_.store(RunState::kLive, std::memory_order_release);
    crash_cv_.notify_all();
  }

  // Periodic checkpoint: the executor fences at the first drained epoch
  // boundary at or past the cadence point, before any crash trigger at
  // the same boundary — a crash at epoch E then recovers from the fresh
  // checkpoint at E with an empty replay suffix. The capture costs
  // O(keys changed and results added since the previous one); other
  // machines keep executing, but this service thread serves none of
  // their reads until it is done.
  if (!is_replay && drained && checkpoint_ != nullptr &&
      checkpoint_every_ > 0 &&
      !draining_.load(std::memory_order_acquire) &&
      run_state_.load(std::memory_order_relaxed) == RunState::kLive &&
      epoch >= next_checkpoint_epoch_) {
    const Status captured = FenceService(kStallTimeout, epoch);
    TPART_CHECK(captured.ok()) << "machine " << id_
                               << " checkpoint capture at epoch " << epoch
                               << ": " << captured.ToString();
    next_checkpoint_epoch_ = epoch + checkpoint_every_;
  }

  if (!is_replay && crash_armed_.load(std::memory_order_relaxed)) {
    CrashPoint point;
    {
      std::lock_guard<std::mutex> lock(crash_mu_);
      if (!crash_points_.empty()) point = crash_points_.front();
    }
    // >= so a round with no local slice (which never drains here) cannot
    // disarm the trigger: the first drained round at or past the target
    // fires it.
    const bool epoch_hit =
        point.at_epoch != 0 && epoch >= point.at_epoch && drained;
    const bool txn_hit =
        point.after_txns != 0 && executed == point.after_txns;
    if (epoch_hit || txn_hit) {
      // FIFO execution means rounds complete in order: if the current
      // round drained, everything lost starts at the next round;
      // otherwise this round itself is partially lost.
      CrashStop(drained ? epoch + 1 : epoch);
    }
  }
  if (drained) ReleaseEpochCredit();
}

Record Machine::AwaitResponse(std::uint64_t req_id) {
  std::unique_lock<std::mutex> lock(resp_mu_);
  const auto ready = [&] {
    return resp_shutdown_ || responses_.contains(req_id);
  };
  const bool arrived = resp_cv_.wait_for(lock, kStallTimeout, ready);
  if (!arrived) lock.unlock();  // StallDiagnostic takes resp_mu_
  TPART_CHECK(arrived) << "stalled awaiting response " << req_id << ": "
                       << StallDiagnostic();
  auto it = responses_.find(req_id);
  if (it == responses_.end()) return Record::Absent();
  Record v = std::move(it->second);
  responses_.erase(it);
  return v;
}

// ---------------------------------------------------------------------
// Crash injection & in-run recovery (§5.4 made live)
// ---------------------------------------------------------------------

void Machine::ArmCrash(CrashPoint point) {
  TPART_CHECK(point.armed()) << "empty crash point";
  TPART_CHECK(log_recording_)
      << "crash recovery replays the §5.4 logs; enable log recording";
  std::lock_guard<std::mutex> lock(crash_mu_);
  TPART_CHECK(!point.at_start || crash_points_.empty())
      << "an at_start crash point must be the first queued";
  crash_points_.push_back(point);
  crash_armed_.store(true, std::memory_order_release);
}

void Machine::ArmStraggler(std::uint64_t delay_us, std::uint64_t period_us) {
  TPART_CHECK(delay_us > 0 && period_us > 0) << "empty straggler schedule";
  straggle_delay_us_ = delay_us;
  straggle_period_us_ = period_us;
}

void Machine::CrashStop(SinkEpoch resume) {
  std::lock_guard<std::mutex> lock(crash_mu_);
  if (run_state_.load(std::memory_order_relaxed) != RunState::kLive) return;
  // Pop the fired point; more queued points (the chaos matrix's repeat
  // crashes) keep the trigger armed for the recovered machine.
  if (!crash_points_.empty()) crash_points_.pop_front();
  crash_armed_.store(!crash_points_.empty(), std::memory_order_relaxed);
  crash_time_ = std::chrono::steady_clock::now();
  resume_epoch_ = resume;
  run_state_.store(RunState::kDown, std::memory_order_release);
  TPART_TRACE(Instant("crash_stop", "fault",
                      {{"machine", id_}, {"resume_epoch", resume}}));
  TPART_FLIGHT(obs::FlightEvent::kCrashStop, 1 + id_, id_, resume);
}

bool Machine::crashed() const {
  return run_state_.load(std::memory_order_acquire) != RunState::kLive;
}

std::chrono::steady_clock::time_point Machine::crash_time() const {
  std::lock_guard<std::mutex> lock(crash_mu_);
  return crash_time_;
}

SinkEpoch Machine::resume_epoch() const {
  std::lock_guard<std::mutex> lock(crash_mu_);
  return resume_epoch_;
}

std::size_t Machine::Recover(const std::function<void()>& restore_partition) {
  TPART_CHECK(run_state_.load(std::memory_order_acquire) == RunState::kDown)
      << "Recover() on a machine that did not crash";
  TPART_TRACE_SPAN("recover", "fault", {{"machine", id_}});
  SinkEpoch resume;
  {
    std::lock_guard<std::mutex> lock(crash_mu_);
    resume = resume_epoch_;
  }

  // 1. The crash lost all volatile state. The dead executor has exited
  //    its loop (it observes kDown under work_mu_) and the service thread
  //    only stashes while kDown — once the fence below has passed, so a
  //    message it was already dispatching at the crash-stop (applied and
  //    logged, see Dispatch) is fully applied before the wipe, and the
  //    log replays it exactly once. Every structure below is quiescent.
  {
    Status fenced = FenceService(kStallTimeout);
    TPART_CHECK(fenced.ok()) << fenced.ToString();
  }
  {
    std::lock_guard<std::mutex> lock(work_mu_);
    tpart_work_.clear();
    epoch_outstanding_.clear();
    finished_enqueue_ = false;
    evicted_upto_ = 0;
  }
  {
    std::lock_guard<std::mutex> lock(stream_mu_);
    pending_stream_plans_.clear();
    parked_pulls_.clear();
    stream_end_seen_ = false;
    stream_final_epoch_ = 0;
    next_stream_epoch_ = resume;
    recovered_partial_epoch_ = resume;
    recovered_partial_txns_.clear();
  }
  {
    std::lock_guard<std::mutex> lock(resp_mu_);
    responses_.clear();
  }
  {
    std::lock_guard<std::mutex> lock(peer_mu_);
    peer_reads_.clear();
  }
  {
    std::lock_guard<std::mutex> lock(results_mu_);
    results_.clear();
  }
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
      // resumes strictly past it; an inverted pair would mean the resend
      // window was pruned past rounds we still need.
      TPART_CHECK(cp_epoch < resume)
          << "machine " << id_ << " checkpoint at epoch " << cp_epoch
          << " does not precede resume epoch " << resume;
      RestoreImages(*checkpoint_);
    }
  }

  // 3. §5.4 local replay: re-enqueue the request log in log order,
  //    tagged as replay (outbound suppressed, not re-logged). The one
  //    executor logged plans as it ran them: round by round, and within a
  //    round in txn-id order (TGraph::Sink emits a round's slots by id).
  //    Plans logged for the resume round itself are the partially-executed
  //    prefix of a mid-round crash; the re-shipped round skips them
  //    (recovered_partial_txns_).
  std::vector<RequestLogEntry> entries;
  {
    std::lock_guard<std::mutex> lock(log_mu_);
    entries = request_log_;
  }
  const std::size_t replayed = entries.size();
  {
    std::lock_guard<std::mutex> lock(stream_mu_);
    for (const RequestLogEntry& entry : entries) {
      if (entry.epoch == resume) {
        recovered_partial_txns_.insert(entry.item.plan.txn);
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(work_mu_);
    for (RequestLogEntry& entry : entries) {
      tpart_work_.push_back(WorkUnit{entry.epoch, std::move(entry.item), true});
    }
  }
  replay_remaining_.store(replayed, std::memory_order_release);

  // 4. Reopen the service and re-deliver the inbound past: the parked
  //    remote pulls the checkpoint saved, then the network log (the §5.4
  //    PUSH-log generalised, now just the post-checkpoint suffix), then
  //    the traffic that arrived while down. Parking in the cache and the
  //    storage service makes processing order irrelevant. The state flip
  //    happens under crash_mu_, so no concurrent message can be stranded
  //    in the stash afterwards. Log/checkpoint re-injections carry the
  //    redelivery mark (already logged once); the stash does not — those
  //    messages were never processed, and a second crash must be able to
  //    replay them.
  std::vector<Message> stash;
  {
    std::lock_guard<std::mutex> lock(crash_mu_);
    run_state_.store(replayed == 0 ? RunState::kLive : RunState::kRecovering,
                     std::memory_order_release);
    stash.swap(down_stash_);
  }
  if (cp_epoch > 0) {
    for (Message m : checkpoint_->parked_pulls) {
      m.redelivery = true;
      inbound_.Send(std::move(m));
    }
  }
  {
    std::lock_guard<std::mutex> lock(log_mu_);
    for (const Message& m : network_log_) {
      Message copy = m;
      copy.redelivery = true;
      inbound_.Send(std::move(copy));
    }
  }
  for (Message& m : stash) inbound_.Send(std::move(m));

  // 5. A fresh executor re-runs the replay, then keeps serving live
  //    rounds until the (re-shipped) stream end. Block until the replay
  //    drains: the caller re-ships lost rounds only after that, so live
  //    work never interleaves with the replayed suffix. A repeat crash
  //    fires on the previous recovery executor itself, which then exits —
  //    join it before spawning its replacement.
  if (recovery_executor_.joinable()) recovery_executor_.join();
  recovery_executor_ =
      std::thread([this] { TPartExecutorLoop(/*initial=*/false); });
  {
    std::unique_lock<std::mutex> lock(crash_mu_);
    crash_cv_.wait(lock, [&] {
      return run_state_.load(std::memory_order_relaxed) == RunState::kLive;
    });
  }
  TPART_TRACE(Instant("replay_done", "fault",
                      {{"machine", id_}, {"replayed", replayed}}));
  TPART_FLIGHT(obs::FlightEvent::kRecover, 1 + id_, id_, replayed);
  return replayed;
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

  // Every message that preceded the fence in the inbound FIFO has been
  // fully applied, and the fence's poster (the executor at a drained
  // boundary, or the membership barrier on a quiesced stream) has
  // executed every request-log entry — so the images below cover exactly
  // the effects of rounds <= epoch, and both §5.4 logs truncate to
  // empty: later traffic forms the replay suffix. The storage and record
  // images fold only the keys changed since the previous capture.
  std::vector<ObjectKey> written;
  cp.state_keys_captured += storage_.FoldChanges(cp.storage, written);
  cp.records_captured += cp.FoldRecords(*store_, written);
  cp.cache = cache_.Capture();
  {
    // Suffix replay cannot regenerate the truncated prefix's results, so
    // the capture carries everything accumulated up to the boundary.
    // Results only grow, and a restore resets them to the capture's, so
    // the capture already holds a prefix: append the rest.
    std::lock_guard<std::mutex> lock(results_mu_);
    const std::size_t held = cp.results.size();
    TPART_CHECK(held <= results_.size() &&
                (held == 0 || results_[held - 1].id == cp.results.back().id))
        << "machine " << id_ << " checkpoint results (" << held
        << ") are not a prefix of its " << results_.size() << " results";
    cp.results.insert(cp.results.end(),
                      results_.begin() + static_cast<std::ptrdiff_t>(held),
                      results_.end());
  }
  {
    std::lock_guard<std::mutex> lock(stream_mu_);
    cp.parked_pulls.clear();
    for (const auto& [key_version, reqs] : parked_pulls_) {
      (void)key_version;
      cp.parked_pulls.insert(cp.parked_pulls.end(), reqs.begin(), reqs.end());
    }
  }
  {
    // Responses to requests of rounds past the capture: the network log
    // that delivered them truncates below, and the watermark keeps them
    // from being requested again.
    std::lock_guard<std::mutex> lock(resp_mu_);
    cp.responses.clear();
    for (const auto& entry : responses_) cp.responses.push_back(entry);
  }
  std::sort(cp.responses.begin(), cp.responses.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  {
    std::lock_guard<std::mutex> lock(log_mu_);
    cp.truncated_request_entries += request_log_.size();
    cp.truncated_network_messages += network_log_.size();
    request_log_.clear();
    network_log_.clear();
    request_log_bytes_ = 0;
    network_log_bytes_ = 0;
  }
  ++cp.captures_taken;
  cp.capture_us += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  // Publish the epoch last: once visible, the cluster may prune resend
  // rounds <= epoch, which is only safe after the images are complete.
  cp.set_epoch(epoch);
  TPART_FLIGHT(obs::FlightEvent::kCheckpoint, 1 + id_, id_, epoch);
}

void Machine::RestoreImages(const MachineCheckpoint& cp) {
  {
    // The truncated prefix's results only exist in the capture.
    std::lock_guard<std::mutex> lock(results_mu_);
    results_ = cp.results;
  }
  {
    std::lock_guard<std::mutex> lock(resp_mu_);
    for (const auto& [req_id, value] : cp.responses) {
      responses_[req_id] = value;
    }
  }
  cache_.Restore(cp.cache);
  storage_.Restore(cp.storage,
                   [this](const StorageService::RemoteReadTag& tag) {
                     return [this, tag](Record value) {
                       Message resp;
                       resp.type = Message::Type::kStorageReadResp;
                       resp.req_id = tag.req_id;
                       resp.value = std::move(value);
                       SendOut(tag.reply_to, std::move(resp));
                     };
                   });
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
  std::lock_guard<std::mutex> lock(log_mu_);
  network_log_.push_back(msg);
  network_log_bytes_ += ApproxMessageBytes(msg);
  if (network_log_bytes_ > network_log_bytes_peak_) {
    network_log_bytes_peak_ = network_log_bytes_;
  }
}

std::size_t Machine::request_log_bytes() const {
  std::lock_guard<std::mutex> lock(log_mu_);
  return request_log_bytes_;
}

std::size_t Machine::network_log_bytes() const {
  std::lock_guard<std::mutex> lock(log_mu_);
  return network_log_bytes_;
}

std::size_t Machine::request_log_bytes_peak() const {
  std::lock_guard<std::mutex> lock(log_mu_);
  return request_log_bytes_peak_;
}

std::size_t Machine::network_log_bytes_peak() const {
  std::lock_guard<std::mutex> lock(log_mu_);
  return network_log_bytes_peak_;
}

// ---------------------------------------------------------------------
// Elastic migration (src/elastic)
// ---------------------------------------------------------------------

Status Machine::WaitStreamDrained(std::chrono::microseconds timeout) {
  std::unique_lock<std::mutex> lock(credit_mu_);
  const auto drained = [&] {
    return epochs_in_flight_ == 0 || credit_shutdown_;
  };
  if (!credit_cv_.wait_for(lock, timeout, drained)) {
    lock.unlock();  // StallDiagnostic takes credit_mu_
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
  std::unique_lock<std::mutex> lock(fence_mu_);
  const std::uint64_t seq = ++fence_posted_;
  Message fence;
  fence.type = Message::Type::kServiceFence;
  fence.req_id = seq;
  fence.epoch = capture_at;
  // Direct into the inbound queue, never through the transport: the fence
  // is a local ordering marker, not a wire message. Sent under fence_mu_
  // (Send never blocks), so fences enter the FIFO in sequence order and
  // fence_seen_ >= seq means this fence, and its capture, was dispatched.
  inbound_.Send(std::move(fence));
  const auto done = [&] { return fence_seen_ >= seq; };
  if (!fence_cv_.wait_for(lock, timeout, done)) {
    lock.unlock();
    return Status::Unavailable("service fence (capture epoch " +
                               std::to_string(capture_at) +
                               ") timed out: " + StallDiagnostic());
  }
  return Status::Ok();
}

void Machine::HandleMigrateBegin(Message msg) {
  const std::uint64_t stream = msg.req_id;
  {
    // The done-set doubles as the idempotence guard: a duplicate begin
    // must not re-capture keys that were already extracted and dropped.
    std::lock_guard<std::mutex> lock(migrate_mu_);
    if (!migration_source_done_.insert(stream).second) return;
  }
  Result<std::vector<ObjectKey>> keys = DecodeKeyList(msg.plan_bytes);
  TPART_CHECK(keys.ok()) << "bad migration key list on machine " << id_
                         << ": " << keys.status().ToString();
  const MachineId target = static_cast<MachineId>(msg.dst_txn);
  TPART_TRACE_SPAN("migrate_source", "elastic",
                   {{"machine", id_},
                    {"target", target},
                    {"keys", keys->size()},
                    {"cut", msg.epoch}});

  // Capture the partition image: record, version-discipline state, and
  // sticky cache entry per key — then drop everything locally. ExtractKeys
  // CHECKs that no parked storage work exists (the barrier quiesced the
  // stream), and marks every key changed so the forced capture folds the
  // deletions into this machine's checkpoint.
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
    if (auto sticky = cache_.ExtractSticky(key); sticky.has_value()) {
      e.has_cache_sticky = true;
      e.cache_sticky_value = std::move(sticky->value);
      e.cache_sticky_version = sticky->version;
      e.cache_sticky_expire = sticky->expire_epoch;
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

  {
    std::lock_guard<std::mutex> lock(migrate_mu_);
    migration_counters_.keys_moved_out += keys->size();
    migration_counters_.records_moved += records;
    migration_counters_.bytes_shipped += encoded.size();
    migration_counters_.chunks_shipped += chunks.size();
    ++migration_counters_.images_sent;
  }
}

void Machine::HandleImageChunk(Message msg) {
  const std::uint64_t stream = msg.req_id;
  bool install = false;
  {
    std::lock_guard<std::mutex> lock(migrate_mu_);
    if (migration_installed_.count(stream) != 0) {
      ++migration_counters_.duplicate_chunks_dropped;
      return;
    }
    InboundImage& img = inbound_images_[stream];
    if (!img.chunks.emplace(msg.epoch, std::move(msg.plan_bytes)).second) {
      ++migration_counters_.duplicate_chunks_dropped;
      return;
    }
    install = img.commit_seen && img.chunks.size() == img.expect_chunks;
  }
  if (install) InstallMigration(stream);
}

void Machine::HandleMigrateCommit(Message msg) {
  const std::uint64_t stream = msg.req_id;
  bool install = false;
  {
    std::lock_guard<std::mutex> lock(migrate_mu_);
    if (migration_installed_.count(stream) != 0) return;  // dup commit
    InboundImage& img = inbound_images_[stream];
    if (img.commit_seen) return;  // dup commit, still assembling
    img.commit_seen = true;
    img.expect_chunks = msg.txn;
    img.expect_entries = msg.version;
    img.checksum = static_cast<std::uint32_t>(msg.key);
    // A faulty transport may reorder the commit ahead of trailing chunks;
    // install fires from the last chunk's handler in that case.
    install = img.chunks.size() == img.expect_chunks;
  }
  if (install) InstallMigration(stream);
}

void Machine::InstallMigration(std::uint64_t stream) {
  std::string encoded;
  std::uint32_t checksum = 0;
  std::uint64_t expect_entries = 0;
  {
    std::lock_guard<std::mutex> lock(migrate_mu_);
    auto it = inbound_images_.find(stream);
    TPART_CHECK(it != inbound_images_.end());
    InboundImage& img = it->second;
    TPART_CHECK(img.chunks.size() == img.expect_chunks);
    std::uint64_t next = 0;
    for (const auto& [idx, bytes] : img.chunks) {
      TPART_CHECK(idx == next++) << "migration chunk gap at " << idx;
      encoded += bytes;
    }
    checksum = img.checksum;
    expect_entries = img.expect_entries;
    inbound_images_.erase(it);
  }
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
    if (e.has_cache_sticky) {
      cache_.InstallSticky(CacheArea::Image::StickyImage{
          e.key, std::move(e.cache_sticky_value), e.cache_sticky_version,
          e.cache_sticky_expire});
    }
  }
  storage_.InstallKeys(states);
  // Mark every moved key dirty (not just the stateful ones) so the forced
  // post-migration checkpoint folds the installed records in.
  storage_.MarkDirty(all_keys);
  {
    std::lock_guard<std::mutex> lock(migrate_mu_);
    migration_installed_.insert(stream);
    migration_counters_.keys_moved_in += all_keys.size();
    ++migration_counters_.images_installed;
  }
}

bool Machine::MigrationSourceDone(std::uint64_t stream) const {
  std::lock_guard<std::mutex> lock(migrate_mu_);
  return migration_source_done_.count(stream) != 0;
}

bool Machine::MigrationInstalled(std::uint64_t stream) const {
  std::lock_guard<std::mutex> lock(migrate_mu_);
  return migration_installed_.count(stream) != 0;
}

Machine::MigrationCounters Machine::migration_counters() const {
  std::lock_guard<std::mutex> lock(migrate_mu_);
  return migration_counters_;
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
    std::lock_guard<std::mutex> lock(work_mu_);
    out << " work=" << tpart_work_.size()
        << " rounds_in_progress=" << epoch_outstanding_.size()
        << " finished_enqueue=" << (finished_enqueue_ ? 1 : 0);
  }
  {
    std::lock_guard<std::mutex> lock(stream_mu_);
    out << " pending_rounds=" << pending_stream_plans_.size()
        << " next_epoch=" << next_stream_epoch_
        << " reads_issued_through=" << reads_issued_through_
        << " dup_rounds_dropped=" << duplicate_rounds_dropped_;
  }
  {
    std::lock_guard<std::mutex> lock(resp_mu_);
    out << " responses_pending=" << responses_.size();
  }
  {
    std::lock_guard<std::mutex> lock(credit_mu_);
    out << " credits_in_flight=" << epochs_in_flight_;
  }
  {
    std::lock_guard<std::mutex> lock(crash_mu_);
    out << " stashed=" << down_stash_.size();
  }
  out << " executed=" << executed_plans_.load(std::memory_order_relaxed)
      << " heartbeat_seen=" << heartbeat_seen()
      << " fence_term=" << fence_term()
      << " fenced=" << fenced_messages();
  if (diagnostic_context_) out << diagnostic_context_();
  std::string text = out.str();
  TPART_TRACE(Instant("stall_diagnostic", "fault", {{"machine", id_}},
                      text));
  // A stall diagnostic only fires on fault paths (expired executor waits,
  // drain/fence timeouts, failure declarations), so it doubles as the
  // flight recorder's auto-dump trigger: the post-mortem tail carries
  // this marker plus whatever led up to it.
  TPART_FLIGHT(obs::FlightEvent::kStall, 1 + id_, id_,
               executed_plans_.load(std::memory_order_relaxed));
  TPART_FLIGHT_DUMP("stall");
  return text;
}

void Machine::AbortPendingWaits() {
  draining_.store(true, std::memory_order_release);
  cache_.Shutdown();
  storage_.Shutdown();
  {
    std::lock_guard<std::mutex> lock(resp_mu_);
    resp_shutdown_ = true;
  }
  resp_cv_.notify_all();
  {
    std::lock_guard<std::mutex> lock(peer_mu_);
    peer_shutdown_ = true;
  }
  peer_cv_.notify_all();
  {
    std::lock_guard<std::mutex> lock(credit_mu_);
    credit_shutdown_ = true;
  }
  credit_cv_.notify_all();
}

// ---------------------------------------------------------------------
// Calvin executor
// ---------------------------------------------------------------------

void Machine::CalvinExecutorLoop() {
  TPART_TRACE(SetThreadInfo(static_cast<int>(1 + id_), "executor"));
  while (true) {
    TxnSpec spec;
    {
      std::unique_lock<std::mutex> lock(work_mu_);
      work_cv_.wait(lock, [&] {
        return !calvin_work_.empty() || finished_enqueue_;
      });
      if (calvin_work_.empty()) return;
      spec = std::move(calvin_work_.front());
      calvin_work_.pop_front();
    }
    ExecuteCalvin(spec);
  }
}

void Machine::ExecuteCalvin(const TxnSpec& spec) {
  TPART_TRACE_SPAN("txn", "exec", {{"txn", spec.id}});
  // Calvin (§2.1): read local footprint, push to peers, wait for peers'
  // reads, execute the full procedure, write local keys.
  const KeySet all_keys = spec.rw.AllKeys();
  std::vector<MachineId> participants;
  std::vector<ObjectKey> remote_keys;
  // Per-executor scratch, reused across transactions (DESIGN §4h).
  thread_local ExecScratch exec_scratch;
  exec_scratch.Clear();
  auto& values = exec_scratch.values;
  std::vector<std::pair<ObjectKey, Record>> local_kvs;
  for (const ObjectKey k : all_keys) {
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

  if (!remote_keys.empty()) {
    std::unique_lock<std::mutex> lock(peer_mu_);
    const auto ready = [&] {
      if (peer_shutdown_) return true;
      auto it = peer_reads_.find(spec.id);
      if (it == peer_reads_.end()) return false;
      for (const ObjectKey k : remote_keys) {
        if (it->second.count(k) == 0) return false;
      }
      return true;
    };
    // StallDiagnostic never touches peer_mu_.
    TPART_CHECK(peer_cv_.wait_for(lock, kStallTimeout, ready))
        << "stalled awaiting peer reads for T" << spec.id << ": "
        << StallDiagnostic();
    auto it = peer_reads_.find(spec.id);
    if (it != peer_reads_.end()) {
      for (auto& [key, value] : it->second) {
        values[key] = std::move(value);
      }
      peer_reads_.erase(it);
    }
  }

  GatheredTxnContext ctx(&spec, &exec_scratch);
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
  {
    std::lock_guard<std::mutex> lock(results_mu_);
    results_.push_back(std::move(*result));
  }
}

}  // namespace tpart
