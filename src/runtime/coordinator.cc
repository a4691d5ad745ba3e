#include "runtime/coordinator.h"

#include <algorithm>
#include <sstream>
#include <string>

#include "common/logging.h"
#include "common/random.h"

namespace tpart {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t UsBetween(Clock::time_point a, Clock::time_point b) {
  if (b <= a) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(b - a).count());
}

}  // namespace

CoordinatorReplicaSet::CoordinatorReplicaSet(CoordinatorOptions options,
                                             std::size_t num_machines,
                                             SendFn send)
    : options_(options), num_machines_(num_machines), send_(std::move(send)) {
  TPART_CHECK(options_.standbys >= 1)
      << "a replicated coordinator needs at least one standby";
  const std::size_t n = 1 + options_.standbys;
  replicas_.reserve(n);
  for (std::size_t r = 0; r < n; ++r) {
    replicas_.push_back(std::make_unique<Replica>());
  }
}

CoordinatorReplicaSet::~CoordinatorReplicaSet() { Shutdown(); }

void CoordinatorReplicaSet::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return;
  started_ = true;
  shutdown_ = false;
  const auto now = Clock::now();
  for (auto& rep : replicas_) rep->last_hb = now;
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    replicas_[r]->pump = std::thread([this, r] { PumpLoop(r); });
  }
  heartbeat_thread_ = std::thread([this] { HeartbeatLoop(); });
}

void CoordinatorReplicaSet::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    started_ = false;
    shutdown_ = true;
  }
  commit_cv_.notify_all();
  elected_cv_.notify_all();
  sync_cv_.notify_all();
  wm_cv_.notify_all();
  for (auto& rep : replicas_) {
    Message stop;
    stop.type = Message::Type::kShutdown;
    rep->inbound.Send(std::move(stop));
  }
  for (auto& rep : replicas_) {
    if (rep->pump.joinable()) rep->pump.join();
  }
  if (heartbeat_thread_.joinable()) heartbeat_thread_.join();
}

void CoordinatorReplicaSet::Deliver(std::size_t r, Message msg) {
  TPART_CHECK(r < replicas_.size());
  replicas_[r]->inbound.Send(std::move(msg));
}

void CoordinatorReplicaSet::HeartbeatLoop() {
  for (;;) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(options_.heartbeat_interval_us));
    std::size_t leader;
    std::uint64_t seq;
    std::vector<MachineId> targets;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (shutdown_) return;
      leader = leader_;
      if (replicas_[leader]->down) continue;
      seq = ++hb_seq_;
      for (std::size_t r = 0; r < replicas_.size(); ++r) {
        if (r != leader && !replicas_[r]->down) targets.push_back(endpoint(r));
      }
    }
    for (MachineId to : targets) {
      Message hb;
      hb.type = Message::Type::kHeartbeat;
      hb.req_id = seq;
      send_(endpoint(leader), to, std::move(hb));
    }
  }
}

void CoordinatorReplicaSet::PumpLoop(std::size_t r) {
  // A replica both pumps its inbound queue and, as a standby, watches the
  // leader's heartbeat. The receive timeout doubles as the election-check
  // cadence.
  const auto tick =
      std::chrono::microseconds(std::max<std::uint64_t>(
          options_.heartbeat_interval_us / 2, 100));
  std::vector<Message> batch;
  for (;;) {
    replicas_[r]->inbound.WaitTakeAll(batch, Clock::now() + tick);
    for (Message& msg : batch) {
      if (msg.type == Message::Type::kShutdown) return;
      bool down;
      {
        std::lock_guard<std::mutex> lock(mu_);
        down = replicas_[r]->down;
      }
      // Crash-stop: a down replica neither acks nor appends. Messages are
      // simply dropped — the replication protocol re-ships the committed
      // suffix at RestartReplica(), so nothing is lost.
      if (down) continue;
      switch (msg.type) {
        case Message::Type::kHeartbeat: {
          std::lock_guard<std::mutex> lock(mu_);
          replicas_[r]->last_hb = Clock::now();
          // A heartbeat from a live leader cancels any armed candidacy.
          replicas_[r]->candidate = false;
          break;
        }
        case Message::Type::kLogAppend:
          HandleAppend(r, std::move(msg));
          break;
        case Message::Type::kLogAck:
          HandleAck(r, std::move(msg));
          break;
        case Message::Type::kLeaderClaim:
          HandleClaim(r, std::move(msg));
          break;
        default:
          break;  // stray worker traffic; ignore
      }
    }
    batch.clear();
    MaybeElect(r);
  }
}

void CoordinatorReplicaSet::HandleAppend(std::size_t r, Message msg) {
  // In-order append of one replicated batch. The link layer delivers
  // exactly once but a dropped packet's retry can land after its
  // successors, so an entry past the tail is parked until the gap fills
  // (reliable links guarantee it does). An entry already held is a
  // duplicate from catch-up shipping and is simply re-acked.
  const std::uint64_t index = msg.req_id;
  std::vector<std::pair<std::uint64_t, MachineId>> acks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Term fence (DESIGN §4j): an append stamped with a term below the
    // ensemble's current one comes from a deposed (zombie) leader —
    // reject it before it can park or duplicate-ack, let alone extend
    // the log. Live appends always carry the current term, so this only
    // ever trips on genuinely stale traffic.
    if (msg.term != 0 && msg.term < term_) {
      ++fenced_appends_;
      return;
    }
    Replica& rep = *replicas_[r];
    auto& log = rep.log;
    if (index > log.size()) {
      TxnBatch batch;
      batch.batch_id = msg.txn;
      batch.txns = std::move(msg.specs);
      rep.pending.emplace(index,
                          std::make_pair(msg.reply_to, std::move(batch)));
    } else {
      if (index == log.size()) {
        TxnBatch batch;
        batch.batch_id = msg.txn;
        batch.txns = std::move(msg.specs);
        log.push_back(std::move(batch));
      }
      acks.emplace_back(index, msg.reply_to);
      // Drain parked successors the new tail made contiguous. Stale
      // entries below the tail were applied (and acked) via another
      // delivery already.
      auto it = rep.pending.begin();
      while (it != rep.pending.end() && it->first <= log.size()) {
        if (it->first == log.size()) {
          log.push_back(std::move(it->second.second));
          acks.emplace_back(it->first, it->second.first);
        }
        it = rep.pending.erase(it);
      }
    }
  }
  // The new leader may be adopting a suffix SyncNewLeader waits on.
  if (!acks.empty()) sync_cv_.notify_all();
  for (const auto& [idx, ack_to] : acks) {
    Message ack;
    ack.type = Message::Type::kLogAck;
    ack.key = 0;  // append ack
    ack.req_id = idx;
    ack.txn = static_cast<TxnId>(r);
    send_(endpoint(r), ack_to, std::move(ack));
  }
}

void CoordinatorReplicaSet::HandleAck(std::size_t r, Message msg) {
  std::lock_guard<std::mutex> lock(mu_);
  ++log_acks_;
  switch (msg.key) {
    case 0: {  // append ack: count toward the entry's quorum
      ++append_acks_[msg.req_id];
      commit_cv_.notify_all();
      break;
    }
    case 1: {  // claim ack: a live replica adopted the new leader
      if (msg.term != term_) break;  // ack to a claim a later one overrode
      ++claim_acks_;
      claim_ack_len_ = std::max<std::uint64_t>(claim_ack_len_, msg.req_id);
      sync_cv_.notify_all();
      break;
    }
    case 2: {  // watermark reply from worker machine msg.txn
      if (msg.req_id == probe_round_) {
        watermarks_[static_cast<MachineId>(msg.txn)] = msg.epoch;
        wm_cv_.notify_all();
      }
      break;
    }
    default:
      break;
  }
  (void)r;
}

void CoordinatorReplicaSet::HandleClaim(std::size_t r, Message msg) {
  const std::size_t claimant = static_cast<std::size_t>(msg.txn);
  const std::uint64_t claim_len = msg.req_id;
  std::size_t own_len;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Term fence: a claim from an older term is a zombie's — never
    // adopt, never reset the election timer for it.
    if (msg.term != 0 && msg.term < term_) {
      ++fenced_appends_;
      return;
    }
    own_len = replicas_[r]->log.size();
    // A claim is never refused, not even by a candidate with a longer
    // log: the claimant already leads, and its heartbeats would cancel
    // our candidacy before we could ever claim ourselves.
    if (replicas_[r]->candidate) ++dueling_claims_;
    replicas_[r]->candidate = false;
    replicas_[r]->last_hb = Clock::now();
  }
  // Ship any suffix the claimant is missing, then ack with our own log
  // length: SyncNewLeader holds the new leader until its log reaches the
  // longest acked length, so the longest history still wins.
  if (own_len > claim_len) {
    ShipLogRange(r, endpoint(claimant), claim_len, own_len);
  }
  Message ack;
  ack.type = Message::Type::kLogAck;
  ack.key = 1;  // claim ack
  ack.req_id = own_len;
  ack.txn = static_cast<TxnId>(r);
  ack.term = msg.term;
  send_(endpoint(r), endpoint(claimant), std::move(ack));
}

void CoordinatorReplicaSet::MaybeElect(std::size_t r) {
  const auto now = Clock::now();
  bool claim_now = false;
  std::uint64_t claim_len = 0;
  std::uint64_t claim_term = 0;
  std::vector<MachineId> targets;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Replica& rep = *replicas_[r];
    if (shutdown_ || rep.down || leader_ == r) return;
    if (replicas_[leader_]->down == false) {
      // Leader believed alive; only heartbeat silence arms a candidacy.
      if (UsBetween(rep.last_hb, now) <= options_.election_timeout_us) {
        return;
      }
    } else if (UsBetween(rep.last_hb, now) <= options_.election_timeout_us) {
      // Leader known down but our timer has not fired yet — the timer is
      // the detector; CrashLeader() does not short-circuit it.
      return;
    }
    if (!rep.candidate) {
      // Election timer fired: record detection, arm the randomized
      // backoff, keep pumping (a rival's claim can still cancel us).
      if (!timeout_recorded_) {
        timeout_recorded_ = true;
        t_timeout_ = now;
      }
      Rng jitter(options_.seed + 0x9E37ULL * (r + 1) + term_);
      const std::uint64_t backoff =
          options_.backoff_base_us * r +
          jitter.NextBelow(std::max<std::uint64_t>(options_.backoff_base_us,
                                                   1));
      rep.candidate = true;
      rep.claim_deadline = now + std::chrono::microseconds(backoff);
      return;
    }
    if (now < rep.claim_deadline) return;
    // Backoff elapsed with no live leader and no winning rival: claim.
    rep.candidate = false;
    leader_ = r;
    ++term_;
    elected_ = true;
    elected_leader_ = r;
    claim_acks_ = 0;
    claim_ack_len_ = 0;
    t_claimed_ = now;
    claim_now = true;
    claim_len = rep.log.size();
    claim_term = term_;
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
      if (i != r && !replicas_[i]->down) targets.push_back(endpoint(i));
    }
  }
  if (!claim_now) return;
  for (MachineId to : targets) {
    Message claim;
    claim.type = Message::Type::kLeaderClaim;
    claim.txn = static_cast<TxnId>(r);
    claim.req_id = claim_len;
    claim.epoch = static_cast<SinkEpoch>(claim_term);
    claim.term = claim_term;
    send_(endpoint(r), to, std::move(claim));
  }
  elected_cv_.notify_all();
}

void CoordinatorReplicaSet::ShipLogRange(std::size_t src, MachineId dst_ep,
                                         std::size_t from, std::size_t to) {
  std::vector<Message> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto& log = replicas_[src]->log;
    for (std::size_t i = from; i < to && i < log.size(); ++i) {
      Message m;
      m.type = Message::Type::kLogAppend;
      m.req_id = i;
      m.txn = static_cast<TxnId>(log[i].batch_id);
      m.epoch = static_cast<SinkEpoch>(term_);
      m.term = term_;
      m.specs = log[i].txns;
      m.reply_to = endpoint(src);
      out.push_back(std::move(m));
      ++log_appends_;
    }
  }
  for (Message& m : out) send_(endpoint(src), dst_ep, std::move(m));
}

Result<bool> CoordinatorReplicaSet::LeaderAppend(
    const TxnBatch& batch, std::chrono::microseconds timeout) {
  std::size_t leader;
  std::uint64_t index;
  std::uint64_t term;
  std::vector<MachineId> targets;
  {
    std::unique_lock<std::mutex> lock(mu_);
    leader = leader_;
    if (replicas_[leader]->down || shutdown_) return false;
    index = replicas_[leader]->log.size();
    term = term_;
    replicas_[leader]->log.push_back(batch);
    for (std::size_t r = 0; r < replicas_.size(); ++r) {
      if (r != leader && !replicas_[r]->down) targets.push_back(endpoint(r));
    }
    log_appends_ += targets.size();
  }
  for (MachineId to : targets) {
    Message m;
    m.type = Message::Type::kLogAppend;
    m.req_id = index;
    m.txn = static_cast<TxnId>(batch.batch_id);
    m.term = term;
    m.specs = batch.txns;
    m.reply_to = endpoint(leader);
    send_(endpoint(leader), to, std::move(m));
  }
  // Majority of the full ensemble, leader's own copy included.
  const std::size_t quorum = replicas_.size() / 2 + 1;
  const std::size_t acks_needed = quorum - 1;
  std::unique_lock<std::mutex> lock(mu_);
  const bool settled = commit_cv_.wait_for(lock, timeout, [&] {
    return shutdown_ || replicas_[leader]->down ||
           append_acks_[index] >= acks_needed;
  });
  if (!settled) {
    std::ostringstream out;
    out << "log append " << index << " (term " << term << ") has "
        << append_acks_[index] << " of " << acks_needed
        << " standby acks after " << timeout.count() << "us; down replicas:";
    bool any_down = false;
    for (std::size_t r = 0; r < replicas_.size(); ++r) {
      if (!replicas_[r]->down) continue;
      out << ' ' << r;
      any_down = true;
    }
    if (!any_down) out << " none";
    append_acks_.erase(index);
    return Status::Unavailable(out.str());
  }
  if (shutdown_ || replicas_[leader]->down) return false;
  append_acks_.erase(index);
  ++committed_batches_;
  return true;
}

void CoordinatorReplicaSet::CrashLeader() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    replicas_[leader_]->down = true;
    elected_ = false;
    timeout_recorded_ = false;
    t_crash_ = Clock::now();
  }
  commit_cv_.notify_all();
}

Result<std::size_t> CoordinatorReplicaSet::WaitElected(
    std::chrono::microseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto deadline = Clock::now() + timeout;
  if (!elected_cv_.wait_until(lock, deadline,
                              [&] { return elected_ || shutdown_; })) {
    return Status::Unavailable("no standby claimed leadership in time");
  }
  if (shutdown_) return Status::Unavailable("coordinator shut down");
  return elected_leader_;
}

Status CoordinatorReplicaSet::SyncNewLeader(
    std::chrono::microseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  std::size_t live_peers = 0;
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    if (r != leader_ && !replicas_[r]->down) ++live_peers;
  }
  const auto deadline = Clock::now() + timeout;
  if (!sync_cv_.wait_until(lock, deadline, [&] {
        return shutdown_ || (claim_acks_ >= live_peers &&
                             replicas_[leader_]->log.size() >= claim_ack_len_);
      })) {
    return Status::Unavailable("new leader never synced with its peers");
  }
  if (shutdown_) return Status::Unavailable("coordinator shut down");
  return Status::Ok();
}

void CoordinatorReplicaSet::RestartReplica(std::size_t r) {
  std::size_t leader_len;
  std::size_t rep_len;
  std::size_t src;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Replica& rep = *replicas_[r];
    src = leader_;
    leader_len = replicas_[leader_]->log.size();
    // Drop any uncommitted divergent tail: the new leader's committed
    // history is the authority (Zab truncation on rejoin).
    if (rep.log.size() > leader_len) rep.log.resize(leader_len);
    // Parked out-of-order entries from before the crash are stale: every
    // one of them is either already committed (the catch-up ship below
    // re-delivers it) or uncommitted (the new leader re-appends it at
    // the same index with identical content — the stream is
    // deterministic).
    rep.pending.clear();
    rep_len = rep.log.size();
    rep.down = false;
    rep.candidate = false;
    rep.last_hb = Clock::now();
  }
  if (leader_len > rep_len) {
    ShipLogRange(src, endpoint(r), rep_len, leader_len);
  }
}

Result<std::vector<SinkEpoch>> CoordinatorReplicaSet::ProbeWatermarks(
    std::chrono::microseconds timeout) {
  std::uint64_t round;
  std::size_t leader;
  std::uint64_t term;
  {
    std::lock_guard<std::mutex> lock(mu_);
    round = ++probe_round_;
    leader = leader_;
    term = term_;
    watermarks_.clear();
  }
  const auto deadline = Clock::now() + timeout;
  const auto reprobe_every =
      std::chrono::microseconds(options_.election_timeout_us);
  for (;;) {
    // (Re-)probe every machine; a machine mid-recovery answers once its
    // service loop is back (the probe sits in its down-stash meanwhile,
    // but re-probing keeps us independent of stash timing).
    for (MachineId m = 0; m < static_cast<MachineId>(num_machines_); ++m) {
      Message probe;
      probe.type = Message::Type::kLeaderClaim;
      probe.reply_to = endpoint(leader);
      probe.req_id = round;
      // Probes carry the new term: machines witness it (and raise their
      // fence) before any zombie traffic could possibly reach them.
      probe.term = term;
      send_(endpoint(leader), m, std::move(probe));
    }
    std::unique_lock<std::mutex> lock(mu_);
    const auto wait_until = std::min(deadline, Clock::now() + reprobe_every);
    wm_cv_.wait_until(lock, wait_until, [&] {
      return shutdown_ || watermarks_.size() >= num_machines_;
    });
    if (shutdown_) return Status::Unavailable("coordinator shut down");
    if (watermarks_.size() >= num_machines_) {
      std::vector<SinkEpoch> out(num_machines_, 0);
      for (const auto& [m, e] : watermarks_) {
        out[static_cast<std::size_t>(m)] = e;
      }
      return out;
    }
    if (Clock::now() >= deadline) {
      return Status::Unavailable("watermark probe timed out");
    }
  }
}

void CoordinatorReplicaSet::InjectStaleAppend(std::uint64_t stale_term,
                                              std::size_t zombie) {
  // Replay the zombie replica's last log entry onto the wire under its
  // deposed term — the append a paused-then-revived leader would send.
  // HandleAppend's term fence must reject it at every live replica.
  std::vector<std::pair<MachineId, Message>> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto& log = replicas_[zombie]->log;
    if (log.empty()) return;
    const std::uint64_t index = log.size() - 1;
    for (std::size_t r = 0; r < replicas_.size(); ++r) {
      if (r == zombie || replicas_[r]->down) continue;
      Message m;
      m.type = Message::Type::kLogAppend;
      m.req_id = index;
      m.txn = static_cast<TxnId>(log[index].batch_id);
      m.term = stale_term;
      m.specs = log[index].txns;
      m.reply_to = endpoint(zombie);
      out.emplace_back(endpoint(r), std::move(m));
    }
  }
  for (auto& [to, m] : out) send_(endpoint(zombie), to, std::move(m));
}

std::vector<TxnBatch> CoordinatorReplicaSet::CommittedLog() const {
  std::lock_guard<std::mutex> lock(mu_);
  return replicas_[leader_]->log;
}

std::size_t CoordinatorReplicaSet::leader() const {
  std::lock_guard<std::mutex> lock(mu_);
  return leader_;
}

std::uint64_t CoordinatorReplicaSet::log_appends() const {
  std::lock_guard<std::mutex> lock(mu_);
  return log_appends_;
}

std::uint64_t CoordinatorReplicaSet::log_acks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return log_acks_;
}

std::uint64_t CoordinatorReplicaSet::committed_batches() const {
  std::lock_guard<std::mutex> lock(mu_);
  return committed_batches_;
}

std::uint64_t CoordinatorReplicaSet::dueling_claims() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dueling_claims_;
}

std::uint64_t CoordinatorReplicaSet::term() const {
  std::lock_guard<std::mutex> lock(mu_);
  return term_;
}

std::uint64_t CoordinatorReplicaSet::fenced_appends() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fenced_appends_;
}

std::uint64_t CoordinatorReplicaSet::last_detection_us() const {
  std::lock_guard<std::mutex> lock(mu_);
  return UsBetween(t_crash_, t_timeout_);
}

std::uint64_t CoordinatorReplicaSet::last_election_us() const {
  std::lock_guard<std::mutex> lock(mu_);
  return UsBetween(t_timeout_, t_claimed_);
}

}  // namespace tpart
