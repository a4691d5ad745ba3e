#include "runtime/cluster.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <limits>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "common/random.h"
#include "elastic/migration.h"
#include "net/resend_window.h"
#include "net/wire.h"
#include "obs/flight_recorder.h"
#include "obs/live_sampler.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "runtime/failure_detector.h"

namespace tpart {

namespace {

/// Names the trace tracks: pid 0 is the control plane, pid 1 + m is
/// machine m. Idempotent; called at the top of every Run*.
void NameTraceTracks(std::size_t num_machines) {
#if !defined(TPART_TRACING_DISABLED)
  obs::TraceRecorder* rec = obs::GlobalTrace();
  if (rec == nullptr) return;
  rec->SetProcessName(0, "control");
  for (std::size_t m = 0; m < num_machines; ++m) {
    rec->SetProcessName(static_cast<int>(1 + m),
                        "machine-" + std::to_string(m));
  }
#else
  (void)num_machines;
#endif
}

}  // namespace

LocalCluster::LocalCluster(const Workload* workload,
                           LocalClusterOptions options)
    : workload_(workload), options_(options) {
  Reset();
}

LocalCluster::~LocalCluster() { StopAll(); }

void LocalCluster::Reset() {
  StopAll();
  machines_.clear();
  transport_ = MakeTransport(options_.transport);
  // Elastic membership: allocate every machine slot the run ever uses up
  // front (max membership over the schedule) and route all placement
  // through the versioned map. A membership change then never
  // reallocates anything — it only changes where keys are homed.
  elastic_.reset();
  std::size_t total_slots = workload_->num_machines;
  std::shared_ptr<const DataPartitionMap> machine_map =
      workload_->partition_map;
  if (options_.resize.enabled()) {
    std::size_t n = workload_->num_machines;
    std::size_t max_n = n;
    SinkEpoch prev_cut = 0;
    for (const LocalClusterOptions::ResizeEvent& ev : options_.resize.events) {
      TPART_CHECK(ev.at_epoch > prev_cut)
          << "resize cut epochs must be strictly increasing and >= 1";
      prev_cut = ev.at_epoch;
      const long long after = static_cast<long long>(n) + ev.delta;
      TPART_CHECK(ev.delta != 0 && after >= 1)
          << "resize event at epoch " << ev.at_epoch << " takes membership "
          << n << " to " << after;
      n = static_cast<std::size_t>(after);
      max_n = std::max(max_n, n);
    }
    total_slots = max_n;
    auto elastic = std::make_shared<ElasticPartitionMap>(
        workload_->partition_map, total_slots);
    n = workload_->num_machines;
    for (const LocalClusterOptions::ResizeEvent& ev : options_.resize.events) {
      MembershipStep step;
      step.cut_epoch = ev.at_epoch;
      step.n_before = n;
      step.n_after = static_cast<std::size_t>(static_cast<long long>(n) +
                                              ev.delta);
      step.policy = options_.resize.policy;
      step.hot_keys = options_.resize.hot_keys;
      n = step.n_after;
      elastic->AddStep(std::move(step));
    }
    elastic_ = std::move(elastic);
    machine_map = elastic_;
  }
  store_ = std::make_unique<PartitionedStore>(
      total_slots, machine_map,
      /*maintain_ordered_index=*/true);
  workload_->loader(*store_);
  for (std::size_t m = 0; m < total_slots; ++m) {
    machines_.push_back(std::make_unique<Machine>(
        static_cast<MachineId>(m), total_slots,
        &store_->store(static_cast<MachineId>(m)),
        workload_->procedures.get(),
        [this, m](MachineId to, Message msg) {
          transport_->Send(static_cast<MachineId>(m), to, std::move(msg));
        },
        options_.sticky_ttl));
    if (options_.transport.batch_fanout) {
      machines_.back()->set_send_batch(
          [this, m](std::vector<std::pair<MachineId, Message>>& msgs) {
            transport_->SendBatch(static_cast<MachineId>(m), msgs);
          });
    }
    const DataPartitionMap* map = machine_map.get();
    machines_.back()->set_locator(
        [map](ObjectKey key) { return map->Locate(key); });
    machines_.back()->set_log_recording(options_.record_recovery_logs);
    machines_.back()->set_stall_timeout(
        std::chrono::microseconds(options_.stall_timeout_us));
    machines_.back()->set_txn_sample(options_.txn_sample);
  }
  // Crash and periodic-checkpointing runs keep a per-machine checkpoint
  // seeded with the loaded state: the recovery baseline each crashed
  // partition is rebuilt from. With checkpoint_every set, each machine
  // folds its dirty keys and volatile state in at every cadence boundary.
  // Resize runs need one too: the migration barrier forces a capture at
  // each cut so no later replay can resurrect moved keys.
  checkpoints_.clear();
  if (options_.crash.enabled() || options_.checkpoint_every > 0 ||
      options_.resize.enabled()) {
    for (std::size_t m = 0; m < machines_.size(); ++m) {
      auto cp = std::make_unique<MachineCheckpoint>();
      store_->store(static_cast<MachineId>(m))
          .Scan(0, std::numeric_limits<ObjectKey>::max(),
                [&](ObjectKey key, const Record& value) {
                  cp->records.Put(key, value);
                });
      machines_[m]->ConfigureCheckpoint(cp.get(), options_.checkpoint_every);
      checkpoints_.push_back(std::move(cp));
    }
  }
  std::vector<Transport::DeliverFn> sinks;
  sinks.reserve(machines_.size());
  for (std::size_t m = 0; m < machines_.size(); ++m) {
    sinks.push_back([this, m](Message msg) {
      machines_[m]->Deliver(std::move(msg));
    });
  }
  // Coordinator replication (DESIGN §4i): the replica ensemble occupies
  // extra transport endpoints [M, M+R) — every transport derives its
  // endpoint count from this sink vector, so leader/standby traffic rides
  // the same wire (and the same fault injector) as machine traffic.
  coordinator_.reset();
  if (options_.coordinator.standbys > 0) {
    coordinator_ = std::make_unique<CoordinatorReplicaSet>(
        options_.coordinator, machines_.size(),
        [this](MachineId from, MachineId to, Message msg) {
          transport_->Send(from, to, std::move(msg));
        });
    for (std::size_t r = 0; r < coordinator_->num_replicas(); ++r) {
      sinks.push_back([this, r](Message msg) {
        coordinator_->Deliver(r, std::move(msg));
      });
    }
  }
  transport_->Start(std::move(sinks));
}

std::size_t LocalCluster::RestorePartition(MachineId m) {
  KvStore& store = store_->store(m);
  std::vector<ObjectKey> keys;
  keys.reserve(store.size());
  store.Scan(0, std::numeric_limits<ObjectKey>::max(),
             [&](ObjectKey key, const Record&) { keys.push_back(key); });
  for (const ObjectKey key : keys) {
    // Cannot miss: every key came from the Scan() one loop up.
    (void)store.Delete(key);
  }
  return checkpoints_.at(m)->records.Checkpoint(
      [&](ObjectKey key, const Record& value) { store.Upsert(key, value); });
}

void LocalCluster::StopAll() {
  // Coordinator replicas first (their pump/heartbeat threads send through
  // the transport), then the transport: once it stops, no delivery can
  // race machine teardown.
  if (coordinator_) coordinator_->Shutdown();
  if (transport_) transport_->Stop();
  for (auto& m : machines_) {
    if (m) m->Stop();
  }
}

namespace {

/// One sunk round in flight between the scheduler and dissemination
/// stages: the plan plus the owned specs of its transactions, in plan
/// order. Ownership moves with the stream; nothing points back into a
/// caller-scoped container.
struct PlanEnvelope {
  SinkPlan plan;
  std::vector<TxnSpec> specs;
};

}  // namespace

ClusterRunOutcome LocalCluster::RunTPart() {
  if (options_.resize.enabled()) {
    TPART_CHECK(options_.pipeline.epoch_queue_capacity > 0)
        << "elastic membership needs a bounded epoch queue: the migration "
           "barrier quiesces the stream by waiting for every epoch credit "
           "to free";
  }
  if (used_) Reset();
  used_ = true;
  NameTraceTracks(machines_.size());
  TPART_TRACE(SetThreadInfo(0, "dissemination"));

  const std::chrono::microseconds stall_timeout(options_.stall_timeout_us);
  const LocalClusterOptions::CrashSchedule& crash = options_.crash;
  // Which machines carry at least one scheduled crash (the machines the
  // end-of-run quiesce loop must see recovered before teardown).
  std::vector<bool> crash_scheduled(machines_.size(), false);
  if (crash.enabled()) {
    TPART_CHECK(options_.record_recovery_logs)
        << "crash recovery replays the §5.4 logs; keep them recorded";
    for (const LocalClusterOptions::CrashEvent& event : crash.events) {
      TPART_CHECK(static_cast<std::size_t>(event.machine) < machines_.size())
          << "crash schedule names machine " << event.machine << " of "
          << machines_.size();
      crash_scheduled[event.machine] = true;
      Machine::CrashPoint point;
      point.at_epoch = event.at_epoch;
      point.after_txns = event.after_txns;
      point.at_start = event.at_start;
      machines_[event.machine]->ArmCrash(point);
    }
  }
  if (options_.straggler.enabled()) {
    TPART_CHECK(static_cast<std::size_t>(options_.straggler.machine) <
                machines_.size())
        << "straggler schedule names machine " << options_.straggler.machine
        << " of " << machines_.size();
    machines_[options_.straggler.machine]->ArmStraggler(
        options_.straggler.delay_us, options_.straggler.period_us);
  }

  // Admission-to-result latency: the admission stage stamps each real
  // transaction at batch formation; the executor's commit hook closes the
  // pair and erases it, so the map holds only in-flight transactions.
  struct LatencyTracker {
    std::mutex mu;
    std::unordered_map<TxnId, std::chrono::steady_clock::time_point> admitted;
    Histogram us;
  } latency;

  for (auto& m : machines_) {
    m->set_epoch_queue_capacity(options_.pipeline.epoch_queue_capacity);
    m->set_commit_hook([&latency](TxnId id) {
      const auto now = std::chrono::steady_clock::now();
      // Closes the admit->commit lifecycle span opened by admission.
      TPART_TRACE(AsyncEnd("txn", "lifecycle", id));
      std::lock_guard<std::mutex> lock(latency.mu);
      auto it = latency.admitted.find(id);
      if (it == latency.admitted.end()) return;
      latency.us.Add(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              now - it->second)
              .count()));
      latency.admitted.erase(it);
    });
  }
  for (auto& m : machines_) m->StartTPart();

  // ---- Failure detection & in-run recovery (watchdog thread). ----------
  // Dissemination keeps every disseminated round (crash and checkpoint
  // runs) so recovery can re-ship what a crashed machine lost. The window
  // cannot be pruned by the epoch-credit bound: a round with no slice for
  // the victim releases its credit immediately, so dissemination may run
  // arbitrarily far ahead of the victim's resume round. Without periodic
  // checkpointing the run pays one retained Message per round — the same
  // order of memory as the §5.4 request logs it already requires; with
  // checkpoint_every set, rounds at or below the minimum checkpointed
  // epoch across machines are pruned (no recovery can need them: a
  // machine resumes strictly after its own checkpoint epoch).
  const bool keep_resend_window =
      crash.enabled() || options_.checkpoint_every > 0;
  ResendWindow resend_window;
  std::mutex end_mu;
  bool end_sent = false;
  SinkEpoch end_epoch = 0;

  std::mutex fault_mu;
  Status fault;
  auto declare_fault = [&](const std::string& message) {
    {
      std::lock_guard<std::mutex> lock(fault_mu);
      if (fault.ok()) fault = Status::Unavailable(message);
    }
    // Release every blocked wait (reads, credits, parked storage) so the
    // doomed run drains and reports instead of hanging.
    for (auto& m : machines_) m->AbortPendingWaits();
  };

  // ---- Link-fault schedule & coordinator-term fencing (DESIGN §4j). ---
  // `fault_epoch_live` mirrors the epoch the dissemination stage last
  // advanced the transport's fault clock to, so the watchdog can excuse
  // heartbeat silence a severed window explains. `current_term` is the
  // fencing stamp on every control message this cluster ships; it tracks
  // the coordinator's election term across failovers (stays 1 without
  // replication — the fence is then uniform but inert).
  const PartitionSchedule& partition = options_.transport.faults.partition;
  if (partition.Any() && options_.pipeline.epoch_queue_capacity > 0) {
    TPART_CHECK(partition.MaxPartitionSpan() <=
                options_.pipeline.epoch_queue_capacity)
        << "a partition window spans " << partition.MaxPartitionSpan()
        << " epochs but only " << options_.pipeline.epoch_queue_capacity
        << " epoch credits can be in flight: dissemination would stall on "
           "a severed machine's credits before ever reaching the heal "
           "epoch";
  }
  const std::size_t n_endpoints =
      machines_.size() +
      (coordinator_ != nullptr ? coordinator_->num_replicas() : 0);
  std::atomic<std::uint64_t> fault_epoch_live{0};
  std::atomic<std::uint64_t> current_term{
      coordinator_ != nullptr ? coordinator_->term() : 1};

  RecoveryStats recovery;
  std::mutex wd_mu;
  std::condition_variable wd_cv;
  bool fatal_declared = false;
  std::uint64_t recoveries_handled = 0;
  std::atomic<bool> watchdog_stop{false};
  const bool detector_on = options_.detector.enabled || crash.enabled();
  // Stall diagnostics (satellite of §4j): every machine's StallDiagnostic
  // also reports the transport's per-link retry backlog, the resend
  // window depth, and the watchdog's latest suspicion snapshot.
  std::mutex fd_mu;
  std::string fd_describe;
  for (auto& m : machines_) {
    m->set_diagnostic_context([&]() {
      std::ostringstream ctx;
      const std::string links = transport_->LinkDiagnostic();
      if (!links.empty()) ctx << " links{" << links << "}";
      ctx << " resend_window=" << resend_window.size();
      {
        std::lock_guard<std::mutex> lock(fd_mu);
        if (!fd_describe.empty()) ctx << " fd{" << fd_describe << "}";
      }
      return ctx.str();
    });
  }
  std::thread watchdog;
  if (detector_on) {
    watchdog = std::thread([&] {
      TPART_TRACE(SetThreadInfo(0, "watchdog"));
      const auto interval = std::chrono::microseconds(std::max<std::uint64_t>(
          options_.detector.heartbeat_interval_us, 50));
      // Straggler-aware deadlines: a seeded straggler freezes its machine
      // for delay_us every period, so its heartbeat responses legitimately
      // stall that long. Widen that machine's deadline additively rather
      // than declaring a false positive (the paper's failure detector
      // assumes bounded delay; the bound must include injected delay).
      // With the adaptive detector this fixed deadline is demoted to a
      // *floor*: expiry alone no longer declares a failure, it merely
      // makes the machine eligible — the phi-accrual suspicion level
      // (learned from observed inter-arrivals, so slow links and
      // stragglers widen it organically) must corroborate.
      std::vector<std::chrono::microseconds> deadlines(
          machines_.size(),
          std::chrono::microseconds(options_.detector.deadline_us));
      if (options_.straggler.enabled()) {
        deadlines[options_.straggler.machine] +=
            std::chrono::microseconds(options_.straggler.delay_us);
      }
      const bool adaptive = options_.detector.adaptive;
      PhiAccrualDetector::Options fd_opts;
      fd_opts.history = options_.detector.history;
      fd_opts.phi_threshold = options_.detector.phi_threshold;
      fd_opts.expected_interval_us = static_cast<std::uint64_t>(
          interval.count());
      PhiAccrualDetector detector(machines_.size(), fd_opts);
      std::uint64_t seq = 0;
      const auto start = std::chrono::steady_clock::now();
      const auto us_since_start = [&start](
          std::chrono::steady_clock::time_point t) {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(t - start)
                .count());
      };
      std::vector<std::uint64_t> last_seen(machines_.size(), 0);
      std::vector<std::chrono::steady_clock::time_point> last_alive(
          machines_.size(), start);
      std::vector<bool> declared(machines_.size(), false);
      // One suppression count per silence episode, not per scan: the flag
      // arms when the phi gate first overrides an expired deadline and
      // clears on the next heartbeat progress.
      std::vector<bool> suppressing(machines_.size(), false);
      while (!watchdog_stop.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(interval);
        ++seq;
        const std::uint64_t hb_term =
            current_term.load(std::memory_order_acquire);
        for (std::size_t m = 0; m < machines_.size(); ++m) {
          Message hb;
          hb.type = Message::Type::kHeartbeat;
          hb.req_id = seq;
          // Heartbeats carry the live term so machines witness an
          // election between rounds and raise their fences before any
          // zombie traffic can arrive.
          hb.term = hb_term;
          transport_->Send(0, static_cast<MachineId>(m), std::move(hb));
        }
        const auto now = std::chrono::steady_clock::now();
        const std::uint64_t now_us = us_since_start(now);
        const std::uint64_t fe =
            fault_epoch_live.load(std::memory_order_acquire);
        {
          std::lock_guard<std::mutex> lock(fd_mu);
          fd_describe = detector.Describe(now_us);
        }
        for (std::size_t m = 0; m < machines_.size(); ++m) {
          if (declared[m]) continue;
          const std::uint64_t seen = machines_[m]->heartbeat_seen();
          if (seen > last_seen[m]) {
            last_seen[m] = seen;
            last_alive[m] = now;
            detector.Observe(m, now_us);
            suppressing[m] = false;
            continue;
          }
          // A seeded partition currently severing the watchdog<->machine
          // link fully explains the silence: excuse it (hold both the
          // deadline clock and the phi history) instead of suspecting a
          // machine the schedule says we simply cannot hear.
          if (partition.Severed(0, static_cast<int>(m), fe, n_endpoints) ||
              partition.Severed(static_cast<int>(m), 0, fe, n_endpoints)) {
            detector.Excuse(m, now_us);
            last_alive[m] = now;
            continue;
          }
          if (now - last_alive[m] < deadlines[m]) continue;
          double phi = 0.0;
          if (adaptive) {
            phi = detector.Phi(m, now_us);
            if (!machines_[m]->crashed() &&
                phi > recovery.peak_healthy_phi) {
              recovery.peak_healthy_phi = phi;
            }
            if (phi < options_.detector.phi_threshold) {
              // Deadline expired but the learned inter-arrival
              // distribution says this silence is unexceptional (gray
              // failure / straggler regime): suppress the declaration.
              if (!suppressing[m]) {
                suppressing[m] = true;
                ++recovery.suspicions_suppressed;
                TPART_TRACE(Instant(
                    "suspicion_suppressed", "fault",
                    {{"machine", m},
                     {"phi_x100",
                      static_cast<std::uint64_t>(phi * 100.0)}}));
              }
              continue;
            }
          }
          // Heartbeat sequence stalled past the deadline floor (and, when
          // adaptive, past the phi threshold): declare failed.
          declared[m] = true;
          TPART_TRACE(Instant("failure_declared", "fault",
                              {{"machine", m}, {"last_seen", last_seen[m]}}));
          TPART_FLIGHT(obs::FlightEvent::kFailureDeclared, 0, m,
                       last_seen[m]);
          const std::string diag = machines_[m]->StallDiagnostic();
          const bool recoverable = crash.enabled() && crash_scheduled[m] &&
                                   crash.recover && machines_[m]->crashed();
          if (!recoverable) {
            std::ostringstream out;
            out << "machine " << m << " failed: no heartbeat progress for "
                << options_.detector.deadline_us << "us";
            if (adaptive) out << " (phi=" << phi << ")";
            out << "; " << diag;
            declare_fault(out.str());
            std::lock_guard<std::mutex> lock(wd_mu);
            fatal_declared = true;
            wd_cv.notify_all();
            return;
          }
          // In-run recovery: checkpoint restore + §5.4 local replay,
          // then re-ship the rounds the crash lost. Count fields
          // accumulate across a multi-crash schedule; machine / epoch /
          // detection reflect this (the most recent) crash.
          ++recovery.crashes_injected;
          recovery.crashed_machine = static_cast<MachineId>(m);
          const SinkEpoch resume = machines_[m]->resume_epoch();
          recovery.crash_epoch = resume > 0 ? resume - 1 : 0;
          recovery.detection_latency_us = static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  now - machines_[m]->crash_time())
                  .count());
          recovery.replayed_txns += machines_[m]->Recover([&] {
            recovery.checkpoint_records +=
                RestorePartition(static_cast<MachineId>(m));
          });
          // Intake is idempotent, so over-shipping is harmless; the
          // front-of-window check guarantees we never under-ship (pruning
          // stops strictly below every machine's resume round).
          {
            TPART_CHECK(resend_window.empty() ||
                        resend_window.front_epoch() <= resume)
                << "resend window pruned past resume round " << resume;
            // Re-ships carry the *current* term, not the term the round
            // originally shipped under: a round retained across a
            // failover would otherwise arrive pre-fenced.
            const std::uint64_t resend_term =
                current_term.load(std::memory_order_acquire);
            recovery.resent_rounds += resend_window.ForEachFrom(
                resume, [&](const Message& round) {
                  Message copy = round;
                  copy.term = resend_term;
                  transport_->Send(0, static_cast<MachineId>(m),
                                   std::move(copy));
                });
            std::lock_guard<std::mutex> lock(end_mu);
            if (end_sent) {
              Message end;
              end.type = Message::Type::kPlanStreamEnd;
              end.epoch = end_epoch;
              end.term = resend_term;
              transport_->Send(0, static_cast<MachineId>(m), std::move(end));
            }
          }
          recovery.downtime_us += static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - machines_[m]->crash_time())
                  .count());
          // The blocking recovery stalled this loop: every other
          // machine's liveness stamp is stale by the full recovery span.
          // Restart the clocks (and re-admit the victim) or the next
          // scan would mass-declare healthy machines.
          const auto after_recovery = std::chrono::steady_clock::now();
          const std::uint64_t after_us = us_since_start(after_recovery);
          for (std::size_t k = 0; k < machines_.size(); ++k) {
            last_alive[k] = after_recovery;
            detector.Excuse(k, after_us);
          }
          // The rebuilt machine's timing regime may differ from its
          // pre-crash one; drop its inter-arrival history entirely.
          detector.Reset(m, after_us);
          declared[m] = false;
          suppressing[m] = false;
          last_seen[m] = machines_[m]->heartbeat_seen();
          std::lock_guard<std::mutex> lock(wd_mu);
          ++recoveries_handled;
          wd_cv.notify_all();
        }
      }
    });
  }

  // ---- Coordinator replication (DESIGN §4i). With standbys configured,
  // every sequenced batch is quorum-committed to the replica ensemble
  // before it enters the pipeline, and the coordinator below runs as a
  // sequence of leader *terms*: a scheduled leader crash aborts the term,
  // a standby detects the silence and wins the election, and the next
  // term rebuilds all coordinator state by deterministic replay of the
  // committed request log — a fresh Sequencer primed past it, a fresh
  // TPartScheduler fed the replayed batches — then resumes the plan
  // stream exactly once (rounds at or below the per-machine dissemination
  // watermarks are skipped; the rest re-ship and dedupe idempotently).
  const bool coord_on = coordinator_ != nullptr;
  if (coord_on) coordinator_->Start();
  // Crash epochs sort as (crash, revive) pairs: revive entries are
  // paired index-wise with coordinator_at and must travel with their
  // crash when the schedule is reordered.
  std::vector<std::pair<SinkEpoch, SinkEpoch>> coord_crashes;
  for (std::size_t i = 0; i < crash.coordinator_at.size(); ++i) {
    coord_crashes.emplace_back(crash.coordinator_at[i],
                               i < crash.coordinator_revive_at.size()
                                   ? crash.coordinator_revive_at[i]
                                   : 0);
  }
  std::sort(coord_crashes.begin(), coord_crashes.end());
  TPART_CHECK(coord_crashes.empty() || coord_on)
      << "coordinator crash injection requires coordinator.standbys >= 1";

  // Pipeline counters accumulate across terms. A failover run re-pulls
  // the in-flight (uncommitted) suffix, so admitted/batches may exceed
  // the crash-free counts; committed results are what must match.
  // `admitted`, `plans`, and `last_epoch` are atomic so the live sampler
  // may read them from its own thread mid-run; everything else stays
  // single-writer / read-after-join.
  std::atomic<std::uint64_t> admitted{0};
  std::uint64_t dummies = 0, batches = 0;
  std::uint64_t admission_waits = 0;
  double admission_seconds = 0.0;
  std::uint64_t scheduler_waits = 0;
  std::atomic<std::uint64_t> plans{0};
  std::uint64_t credit_waits = 0;
  std::uint64_t batch_q_hw = 0, plan_q_hw = 0;
  std::atomic<SinkEpoch> last_epoch{0};
  MigrationStats migration;
  std::size_t steps_done = 0;
  const bool record_timeline =
      options_.record_epoch_timeline || options_.resize.enabled();
  std::vector<ClusterRunOutcome::EpochTick> timeline;
  const auto stream_t0 = std::chrono::steady_clock::now();

  FailoverStats failover;
  std::size_t coord_event_idx = 0;
  std::size_t crashed_leader = 0;
  std::vector<SinkEpoch> watermarks(machines_.size(), 0);
  SinkEpoch catchup_through = 0;
  auto t_crash = stream_t0;
  auto t_term_start = stream_t0;
  bool pending_replan_stamp = false;
  // Zombie-leader revival state (--crash seq@E+revive@E'): the deposed
  // leader's last in-flight round, a premature stream-end, and a stale
  // log append are replayed under the old term once the new term's
  // stream reaches the revival epoch; end-to-end term fencing must
  // reject every one of them.
  bool zombie_pending = false;
  SinkEpoch zombie_at = 0;
  std::uint64_t zombie_term = 0;
  std::size_t zombie_leader = 0;
  SinkEpoch zombie_end_epoch = 0;
  Message zombie_round;

  // ---- Live observability (DESIGN §4f). The sampler's source reads only
  // counters the pipeline already maintains (relaxed atomics, per-machine
  // accessors) plus the handful of `live_*` mirrors below, which the
  // scheduler and dissemination threads refresh off the critical path.
  // Nothing here blocks the pipeline; with no sampler installed the
  // mirrors cost nothing (every store is guarded on `sampler`).
  std::atomic<std::uint64_t> live_tgraph{0};
  std::atomic<std::uint64_t> live_planned_txns{0};
  std::atomic<std::uint64_t> live_distributed_txns{0};
  std::atomic<std::uint64_t> live_hot_key{0};
  std::atomic<double> live_hot_share{0.0};
  std::atomic<std::uint64_t> live_term{0};
  obs::LiveSampler* const sampler = options_.live_sampler;
  if (sampler != nullptr) {
    sampler->set_source([&](obs::LiveSampler::Sample& s) {
      std::uint64_t executed = 0;
      std::uint64_t inbound_hw = 0;
      std::uint64_t in_flight = 0;
      for (const auto& m : machines_) {
        executed += m->executed_plans();
        inbound_hw =
            std::max<std::uint64_t>(inbound_hw, m->inbound_queue_high_water());
        in_flight += m->epochs_in_flight();
      }
      const double planned = static_cast<double>(
          live_planned_txns.load(std::memory_order_relaxed));
      const double distributed = static_cast<double>(
          live_distributed_txns.load(std::memory_order_relaxed));
      s.emplace_back("tpart_live_admitted_total",
                     static_cast<double>(
                         admitted.load(std::memory_order_relaxed)));
      s.emplace_back("tpart_live_plans_total",
                     static_cast<double>(plans.load(std::memory_order_relaxed)));
      s.emplace_back("tpart_live_committed_total",
                     static_cast<double>(executed));
      s.emplace_back("tpart_live_tgraph_size",
                     static_cast<double>(
                         live_tgraph.load(std::memory_order_relaxed)));
      s.emplace_back("tpart_live_distributed_ratio",
                     planned > 0 ? distributed / planned : 0.0);
      s.emplace_back("tpart_live_inbound_peak_depth",
                     static_cast<double>(inbound_hw));
      s.emplace_back("tpart_live_epochs_in_flight_depth",
                     static_cast<double>(in_flight));
      s.emplace_back("tpart_live_term_index",
                     static_cast<double>(
                         live_term.load(std::memory_order_relaxed)));
      s.emplace_back("tpart_live_hot_key_index",
                     static_cast<double>(
                         live_hot_key.load(std::memory_order_relaxed)));
      s.emplace_back("tpart_live_hot_key_share_ratio",
                     live_hot_share.load(std::memory_order_relaxed));
    });
    if (sampler->domain() == obs::LiveSampler::Domain::kWall) {
      sampler->StartWall(options_.sample_every_us);
    }
  }

  // Runs one leader term end to end; returns true if the scheduled
  // coordinator crash aborted it (the caller fails over and reruns).
  auto run_term = [&]() -> bool {
    // Stage channels, fresh per term. An empty batch / nullopt envelope
    // is the end-of-stream sentinel (real batches are never empty).
    BlockingQueue<TxnBatch> batch_queue(
        options_.pipeline.batch_queue_capacity);
    BlockingQueue<std::optional<PlanEnvelope>> plan_queue(
        options_.pipeline.plan_queue_capacity);
    std::atomic<bool> term_abort{false};

    // Resume state from the new leader's committed log: batch composition
    // is a pure function of stream position, so skipping the committed
    // prefix of the request source and priming the sequencer past the
    // last committed ids regenerates the exact remainder of the stream.
    std::vector<TxnBatch> committed_log;
    std::uint64_t source_skip = 0;
    TxnId primed_next_id = 0;
    std::uint64_t primed_next_batch = 0;
    bool primed = false;
    if (coord_on) {
      committed_log = coordinator_->CommittedLog();
      for (const TxnBatch& b : committed_log) {
        source_skip += b.NumRealTxns();
        primed_next_batch = b.batch_id + 1;
        if (!b.txns.empty()) primed_next_id = b.txns.back().id + 1;
        primed = true;
      }
    }

    // ---- Stage 1: admission. Pulls requests incrementally — the full
    // workload is never materialized — and batches them through the
    // Sequencer (ids assigned, short tail dummy-padded, §3.3).
    std::thread admission([&] {
      TPART_TRACE(SetThreadInfo(0, "admission"));
      const auto t0 = std::chrono::steady_clock::now();
      Sequencer sequencer(options_.pipeline.sequencer);
      if (primed) sequencer.Prime(primed_next_id, primed_next_batch);
      std::unique_ptr<RequestSource> source = workload_->MakeRequestSource();
      for (std::uint64_t i = 0; i < source_skip; ++i) {
        TPART_CHECK(source->Next().has_value())
            << "committed log covers " << source_skip
            << " requests but the source ran dry at " << i;
      }
      // Returns false once the leader crash-stops mid-append: that batch
      // never committed, so the next term re-pulls it from the source
      // (an append that did reach a standby commits through the new
      // leader's log instead, and the skip count above absorbs it).
      auto emit = [&](TxnBatch batch) -> bool {
        TPART_TRACE_SPAN("admit_batch", "pipeline",
                         {{"txns", batch.txns.size()}});
        TPART_FLIGHT(obs::FlightEvent::kAdmitBatch, 0, batch.batch_id,
                     batch.txns.size());
        if (coord_on && !coordinator_->LeaderAppend(batch)) return false;
        const auto now = std::chrono::steady_clock::now();
        {
          std::lock_guard<std::mutex> lock(latency.mu);
          for (const TxnSpec& spec : batch.txns) {
            if (!spec.is_dummy) {
              // emplace: a surviving pre-crash stamp wins, so the
              // measured latency spans the failover — the honest number.
              latency.admitted.emplace(spec.id, now);
              // Opens the per-transaction admit->commit lifecycle span,
              // closed by the executor's commit hook.
              TPART_TRACE(AsyncBegin("txn", "lifecycle", spec.id));
              if (obs::SampledTxn(spec.id, options_.txn_sample)) {
                TPART_TRACE(AsyncInstant("admitted", "timeline", spec.id,
                                         {{"batch", batch.batch_id}}));
              }
            }
          }
        }
        if (batch_queue.Send(std::move(batch))) ++admission_waits;
        ++batches;
        return true;
      };
      bool alive = true;
      while (alive && !term_abort.load(std::memory_order_acquire)) {
        std::optional<TxnSpec> spec = source->Next();
        if (!spec.has_value()) break;
        sequencer.Submit(std::move(*spec));
        ++admitted;
        while (std::optional<TxnBatch> batch = sequencer.NextBatch()) {
          if (!emit(std::move(*batch))) {
            alive = false;
            break;
          }
        }
      }
      // Only a non-empty tail is flushed: padding an empty tail would
      // append a round of pure dummies for nothing.
      if (alive && !term_abort.load(std::memory_order_acquire) &&
          sequencer.pending() > 0) {
        if (std::optional<TxnBatch> batch = sequencer.Flush()) {
          emit(std::move(*batch));
        }
      }
      dummies += sequencer.num_dummies_issued();
      admission_seconds += std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
      batch_queue.Send(TxnBatch{});
    });

    // ---- Stage 2: scheduler. Consumes ordered batches, maintains the
    // T-graph, and emits each sunk round the moment it exists. Specs are
    // parked here between arrival and sinking — the T-graph's unsunk
    // bound caps that parking, so this stage is bounded too.
    std::thread scheduling([&] {
      TPART_TRACE(SetThreadInfo(0, "scheduler"));
      TPartScheduler::Options sched_opts = options_.scheduler;
      // The graph starts at the base membership; each membership step
      // re-targets it (Rehome) when the scheduler crosses the cut.
      // Placement routes through the versioned map so rounds past a cut
      // home keys at their post-step machines.
      sched_opts.graph.num_machines = workload_->num_machines;
      sched_opts.elastic = elastic_;
      sched_opts.track_key_frequencies =
          sched_opts.track_key_frequencies || sampler != nullptr;
      TPartScheduler scheduler(
          sched_opts, elastic_ != nullptr
                          ? std::static_pointer_cast<const DataPartitionMap>(
                                elastic_)
                          : workload_->partition_map);
      std::unordered_map<TxnId, TxnSpec> parked;
      int hot_refresh_countdown = 16;
      auto emit = [&](SinkPlan plan) {
        TPART_FLIGHT(obs::FlightEvent::kScheduleRound, 0, plan.epoch,
                     plan.txns.size());
        PlanEnvelope env;
        env.specs.reserve(plan.txns.size());
        for (const TxnPlan& p : plan.txns) {
          auto node = parked.extract(p.txn);
          TPART_CHECK(!node.empty())
              << "round " << plan.epoch << " sank T" << p.txn
              << " with no parked spec";
          env.specs.push_back(std::move(node.mapped()));
        }
        env.plan = std::move(plan);
        if (plan_queue.Send(std::move(env))) ++scheduler_waits;
      };
      // Deterministic replay of the committed log (§5.4 semantics applied
      // to the coordinator): the fresh T-graph re-derives every round and
      // every Rehome decision of the crashed leader, because both are
      // pure functions of the transaction stream.
      for (const TxnBatch& b : committed_log) {
        for (const TxnSpec& spec : b.txns) {
          std::vector<SinkPlan> replayed = scheduler.OnTxn(spec);
          if (!spec.is_dummy) parked.emplace(spec.id, spec);
          for (SinkPlan& plan : replayed) emit(std::move(plan));
        }
        ++failover.replayed_batches;
      }
      while (true) {
        Result<TxnBatch> batch = batch_queue.ReceiveFor(stall_timeout);
        TPART_CHECK(batch.ok())
            << "scheduler stalled awaiting the admission stage: "
            << batch.status().message();
        if (batch->txns.empty()) break;
        // An aborted term keeps draining (a blocked admission Send would
        // deadlock the join) but schedules nothing further.
        if (term_abort.load(std::memory_order_acquire)) continue;
        TPART_TRACE_SPAN("schedule_batch", "pipeline",
                         {{"txns", batch->txns.size()}});
        for (TxnSpec& spec : batch->txns) {
          std::vector<SinkPlan> plans = scheduler.OnTxn(spec);
          // Dummies are discarded at plan generation (§3.3); only real
          // specs ever travel to a machine.
          if (!spec.is_dummy) parked.emplace(spec.id, std::move(spec));
          for (SinkPlan& plan : plans) emit(std::move(plan));
        }
        if (sampler != nullptr) {
          live_tgraph.store(scheduler.graph().num_unsunk(),
                            std::memory_order_relaxed);
          // The hot-key scan walks the whole frequency map; refresh it
          // on a coarse cadence rather than per batch.
          if (++hot_refresh_countdown >= 16) {
            hot_refresh_countdown = 0;
            const auto [key, share] = scheduler.HottestKey();
            live_hot_key.store(key, std::memory_order_relaxed);
            live_hot_share.store(share, std::memory_order_relaxed);
          }
        }
      }
      if (!term_abort.load(std::memory_order_acquire)) {
        for (SinkPlan& plan : scheduler.Drain()) emit(std::move(plan));
        TPART_CHECK(parked.empty()) << parked.size() << " specs never sank";
      }
      plan_queue.Send(std::nullopt);
    });

    // ---- Stage 3: dissemination (this thread). Each round is
    // serialized once and shipped to every machine as a kSinkPlan wire
    // message; epoch credits bound how far dissemination may run ahead
    // of execution. Round r reaches every machine before r+1 reaches
    // any, which the FIFO executors rely on.
    bool aborted = false;
    while (true) {
      Result<std::optional<PlanEnvelope>> env =
          plan_queue.ReceiveFor(stall_timeout);
      TPART_CHECK(env.ok())
          << "dissemination stalled awaiting the scheduler stage: "
          << env.status().message();
      if (!env->has_value()) break;
      // Keep draining after the crash fires (a scheduler blocked mid-Send
      // would deadlock the join); everything drained here regenerates in
      // the next term.
      if (aborted) continue;
      const SinkEpoch epoch = (*env)->plan.epoch;
      // Advance the transport's link-fault clock before anything for
      // this round ships — membership traffic included: severed /
      // flapping / slow windows open and close on sink-epoch boundaries,
      // and a window healing at or before a cut must be healed before
      // the cut's migration chunks flow.
      // Rounds at or below the failover catch-up horizon were already
      // shipped by the crashed leader; their window transitions (and the
      // quiesce barriers guarding them) happened in the term that first
      // shipped them, and the failover itself healed every window active
      // at the crash. Replaying the fault clock for them would roll the
      // mirror back and re-raise a quiesce barrier ahead of the very
      // re-ships the stalled machines are waiting on.
      const bool catchup = epoch <= catchup_through;
      if (partition.Any() && !catchup) {
        // A sever window opening at this round's epoch must not cut off
        // response / forward-push traffic still owed for earlier rounds:
        // dissemination runs ahead of execution, and severing a pending
        // response would pin its round's epoch credits until the heal —
        // which in turn needs credits to be disseminated. Quiesce every
        // in-flight round before crossing a sever boundary, so a window
        // "starting at epoch E" severs only rounds >= E. (Flapping and
        // slow links need no barrier: retries eventually pass.)
        const std::uint64_t prev_fault_epoch =
            fault_epoch_live.load(std::memory_order_acquire);
        if (epoch > prev_fault_epoch &&
            options_.pipeline.epoch_queue_capacity > 0 &&
            partition.OpensSeverWindowIn(prev_fault_epoch, epoch)) {
          for (auto& m : machines_) {
            Status drained = m->WaitStreamDrained(
                std::chrono::microseconds(options_.stall_timeout_us));
            if (!drained.ok()) {
              std::ostringstream out;
              out << "quiesce before sever window at epoch " << epoch
                  << " stalled: machine " << m->id() << ": "
                  << drained.message();
              declare_fault(out.str());
              break;
            }
          }
          transport_->Flush();
        }
        transport_->AdvanceFaultEpoch(epoch);
        fault_epoch_live.store(epoch, std::memory_order_release);
      }
      // Membership cuts fire between rounds: before the first round past
      // a cut ships — or even enters the resend window, since a recovery
      // re-ship must never hand a machine a post-cut round ahead of its
      // migration — quiesce the stream, move the keys, and force the cut
      // checkpoint everywhere. Catch-up rounds can never re-trigger a
      // step: any cut below the catch-up horizon stepped in the term
      // that first shipped those rounds (steps_done is run-scoped).
      while (elastic_ != nullptr && steps_done < elastic_->num_steps() &&
             (*env)->plan.epoch > elastic_->step(steps_done).cut_epoch) {
        Status step_status =
            RunMembershipStep(steps_done, migration,
                              current_term.load(std::memory_order_acquire));
        if (!step_status.ok()) {
          std::ostringstream out;
          out << "membership step " << steps_done << " (cut epoch "
              << elastic_->step(steps_done).cut_epoch
              << ") failed: " << step_status.message();
          declare_fault(out.str());
          TPART_FLIGHT(obs::FlightEvent::kMigrationAbort, 0, steps_done,
                       elastic_->step(steps_done).cut_epoch);
          TPART_FLIGHT_DUMP("migration_abort");
          // Abandon the remaining schedule; the doomed run still drains.
          steps_done = elastic_->num_steps();
          break;
        }
        ++steps_done;
      }
      // Rounds at or below the failover catch-up horizon were already
      // shipped by the crashed leader: re-ship them only to machines
      // whose watermark shows a gap, with no credit / window / timeline
      // side effects (those all happened in the term that shipped them;
      // machines drop duplicate rounds before enqueue, touching no
      // credits, so the credit ledger stays exactly balanced).
      TPART_TRACE_SPAN("disseminate", "pipeline",
                       {{"epoch", epoch}, {"txns", (*env)->plan.txns.size()}});
      TPART_FLIGHT(obs::FlightEvent::kDisseminateRound, 0, epoch,
                   (*env)->plan.txns.size());
      Message msg;
      msg.type = Message::Type::kSinkPlan;
      msg.epoch = epoch;
      // Term fence (DESIGN §4j): every round carries the term that
      // shipped it, so a deposed leader's in-flight traffic is
      // rejectable by every machine the moment a newer term is
      // witnessed. Catch-up re-ships deliberately carry the *new* term.
      msg.term = current_term.load(std::memory_order_acquire);
      // Causal timelines: stamp the round with a packed trace context
      // (origin = control plane, current coordinator term) so receive-side
      // markers on every machine know which term shipped it.
      if (options_.txn_sample != 0) {
        msg.trace_ctx = obs::PackTraceCtx(
            /*origin=*/0, live_term.load(std::memory_order_relaxed));
      }
      msg.plan_bytes = EncodeSinkPlan((*env)->plan);
      msg.specs = std::move((*env)->specs);
      if (catchup) {
        ++failover.catchup_rounds;
        for (std::size_t m = 0; m < machines_.size(); ++m) {
          if (epoch > watermarks[m]) {
            transport_->Send(0, static_cast<MachineId>(m), msg);
            ++failover.reshipped_rounds;
          }
        }
      } else {
        ++plans;
        last_epoch = epoch;
        if (sampler != nullptr) {
          live_planned_txns.fetch_add((*env)->plan.txns.size(),
                                      std::memory_order_relaxed);
          live_distributed_txns.fetch_add((*env)->plan.NumDistributed(),
                                          std::memory_order_relaxed);
        }
        if (keep_resend_window) {
          resend_window.Append(msg);
          if (options_.checkpoint_every > 0 && !checkpoints_.empty()) {
            // No recovery can ever need a round at or below the minimum
            // checkpointed epoch across machines: each machine resumes
            // strictly after its own checkpoint epoch.
            SinkEpoch prune_through = checkpoints_.front()->epoch();
            for (const auto& cp : checkpoints_) {
              prune_through = std::min(prune_through, cp->epoch());
            }
            if (prune_through > 0) resend_window.PruneThrough(prune_through);
          }
        }
        if (pending_replan_stamp) {
          // First fresh round past the catch-up horizon: the plan stream
          // has fully resumed.
          const auto now = std::chrono::steady_clock::now();
          failover.replan_us = static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  now - t_term_start)
                  .count());
          failover.plan_stream_gap_us = static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  now - t_crash)
                  .count());
          failover.phase_replan_us.Add(failover.replan_us);
          failover.phase_plan_stream_gap_us.Add(failover.plan_stream_gap_us);
          pending_replan_stamp = false;
        }
        for (std::size_t m = 0; m < machines_.size(); ++m) {
          switch (machines_[m]->AcquireEpochCreditFor(stall_timeout)) {
            case Machine::CreditGrant::kGranted:
              break;
            case Machine::CreditGrant::kGrantedAfterWait:
              ++credit_waits;
              TPART_TRACE(
                  Instant("credit_wait", "pipeline", {{"machine", m}}));
              break;
            case Machine::CreditGrant::kTimedOut: {
              std::ostringstream out;
              out << "dissemination stalled acquiring an epoch credit for "
                     "machine "
                  << m << ": " << machines_[m]->StallDiagnostic();
              // Credits are non-blocking after this (shutdown flag), so
              // the remaining stream still drains.
              declare_fault(out.str());
              break;
            }
          }
          transport_->Send(0, static_cast<MachineId>(m), msg);
        }
        if (record_timeline) {
          timeline.push_back(ClusterRunOutcome::EpochTick{
              last_epoch,
              static_cast<std::uint64_t>(
                  std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - stream_t0)
                      .count())});
        }
        // Epoch-domain samplers (tests pinning deterministic cadence to
        // sink epochs) tick here; wall-domain sampling rides its thread.
        if (sampler != nullptr &&
            sampler->domain() == obs::LiveSampler::Domain::kEpoch) {
          sampler->TickEpoch(epoch);
        }
      }
      if (!catchup && zombie_pending &&
          current_term.load(std::memory_order_acquire) > zombie_term &&
          epoch >= zombie_at) {
        // ---- Zombie-leader revival (DESIGN §4j). The deposed leader
        // wakes up and replays its stale in-flight traffic: the round it
        // was shipping when it was paused, a premature plan-stream-end
        // (the genuinely dangerous message — unfenced, it would truncate
        // every machine's stream), and a stale log append to the replica
        // ensemble. Wait until every machine has witnessed the new term
        // (heartbeats, rounds, and watermark probes all carry it) so the
        // run proves the *fence* rejects the zombie, not a lucky race.
        zombie_pending = false;
        const std::uint64_t new_term =
            current_term.load(std::memory_order_acquire);
        const auto fence_deadline =
            std::chrono::steady_clock::now() + stall_timeout;
        for (std::size_t m = 0; m < machines_.size(); ++m) {
          while (machines_[m]->fence_term() < new_term) {
            if (stall_timeout.count() > 0 &&
                std::chrono::steady_clock::now() > fence_deadline) {
              std::ostringstream out;
              out << "machine " << m << " never witnessed term " << new_term
                  << " before the zombie revival (fence at "
                  << machines_[m]->fence_term() << ")";
              declare_fault(out.str());
              break;
            }
            std::this_thread::sleep_for(std::chrono::microseconds(50));
          }
        }
        ++failover.zombie_revivals;
        TPART_FLIGHT(obs::FlightEvent::kZombieRevival, 0, zombie_term, epoch);
        TPART_TRACE(Instant("zombie_revival", "fault",
                            {{"stale_term", zombie_term},
                             {"epoch", epoch}}));
        for (std::size_t m = 0; m < machines_.size(); ++m) {
          transport_->Send(0, static_cast<MachineId>(m), zombie_round);
          Message stale_end;
          stale_end.type = Message::Type::kPlanStreamEnd;
          stale_end.epoch = zombie_end_epoch;
          stale_end.term = zombie_term;
          transport_->Send(0, static_cast<MachineId>(m),
                           std::move(stale_end));
        }
        coordinator_->InjectStaleAppend(zombie_term, zombie_leader);
      }
      if (!catchup && coord_event_idx < coord_crashes.size() &&
          epoch >= coord_crashes[coord_event_idx].first) {
        // Scheduled coordinator crash: fires after the first shipped
        // round with epoch >= the entry. Capture the leader index before
        // the crash-stop — the election moves it.
        const SinkEpoch revive_at = coord_crashes[coord_event_idx].second;
        ++coord_event_idx;
        crashed_leader = coordinator_->leader();
        coordinator_->CrashLeader();
        t_crash = std::chrono::steady_clock::now();
        ++failover.coordinator_crashes;
        TPART_FLIGHT(obs::FlightEvent::kCrashStop, 0, crashed_leader, epoch);
        if (revive_at > 0) {
          // The "crashed" leader was only paused: stash the round it had
          // in flight (still stamped with the dying term) so the revival
          // above can replay it once the next term is running. The stash
          // epoch doubles as the stale stream-end's epoch.
          zombie_pending = true;
          zombie_at = revive_at;
          zombie_term = current_term.load(std::memory_order_acquire);
          zombie_leader = crashed_leader;
          zombie_end_epoch = epoch;
          zombie_round = msg;
        }
        term_abort.store(true, std::memory_order_release);
        aborted = true;
      }
    }
    admission.join();
    scheduling.join();
    batch_q_hw = std::max<std::uint64_t>(batch_q_hw, batch_queue.high_water());
    plan_q_hw = std::max<std::uint64_t>(plan_q_hw, plan_queue.high_water());
    return aborted;
  };

  for (;;) {
    if (!run_term()) break;
    // ---- Failover. A standby detected the heartbeat silence, backed
    // off, and claimed; wait out the election, sync the claim across the
    // ensemble, rejoin the crashed replica as a standby, then probe every
    // machine's dissemination watermark so the next term re-ships exactly
    // the missing suffix of already-shipped rounds.
    const std::chrono::microseconds failover_wait =
        stall_timeout.count() > 0
            ? stall_timeout
            : std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::hours(24));
    Result<std::size_t> elected = coordinator_->WaitElected(failover_wait);
    TPART_CHECK(elected.ok())
        << "no standby claimed leadership: " << elected.status().message();
    ++failover.elections_won;
    live_term.store(failover.elections_won, std::memory_order_relaxed);
    // From here on, every shipped message carries the new term: the
    // deposed leader's in-flight traffic is now fenceable everywhere.
    current_term.store(coordinator_->term(), std::memory_order_release);
    failover.detection_latency_us = coordinator_->last_detection_us();
    failover.election_us = coordinator_->last_election_us();
    failover.phase_detection_us.Add(failover.detection_latency_us);
    failover.phase_election_us.Add(failover.election_us);
    TPART_FLIGHT(obs::FlightEvent::kElectionWon, 0, failover.elections_won,
                 failover.detection_latency_us);
    // A leader outage plus an election takes long enough that any sever
    // window active at the crash has healed by the time the successor
    // runs. Advance the fault clock past those windows before probing:
    // the dissemination loop (the only other fault-clock driver) is
    // parked until the probe completes, so a probe to a machine severed
    // at the stale fault epoch could otherwise never be answered.
    if (partition.Any()) {
      const std::uint64_t stale_fe =
          fault_epoch_live.load(std::memory_order_acquire);
      const std::uint64_t healed = partition.HealAllActiveAt(stale_fe);
      if (healed > stale_fe) {
        // No Flush here: the window is ACTIVE, so unacked packets to a
        // severed machine cannot drain until after this advance — the
        // retry loop redelivers them once the links are up again.
        transport_->AdvanceFaultEpoch(healed);
        fault_epoch_live.store(healed, std::memory_order_release);
      }
    }
    coordinator_->SyncNewLeader();
    coordinator_->RestartReplica(crashed_leader);
    Result<std::vector<SinkEpoch>> wm =
        coordinator_->ProbeWatermarks(failover_wait);
    TPART_CHECK(wm.ok()) << "watermark probe failed: "
                         << wm.status().message();
    watermarks = *wm;
    catchup_through = last_epoch;
    t_term_start = std::chrono::steady_clock::now();
    pending_replan_stamp = true;
    // New-term post-mortem: the dump tail carries the leader crash-stop
    // and the election that ended it.
    TPART_FLIGHT(obs::FlightEvent::kTermStart, 0, failover.elections_won,
                 catchup_through);
    TPART_FLIGHT_DUMP("failover");
  }
  // Heal every remaining link fault before the end-of-stream barrier:
  // the reliability layer must complete delivery of everything a severed
  // window swallowed, and a window configured to heal past the last
  // sunk epoch would otherwise never heal.
  if (partition.Any()) {
    transport_->AdvanceFaultEpoch(
        std::numeric_limits<std::uint64_t>::max());
    fault_epoch_live.store(std::numeric_limits<std::uint64_t>::max(),
                           std::memory_order_release);
  }
  if (crash.enabled()) {
    // Flag before sending: a recovery racing this must resend the end
    // marker whenever the original may already have been consumed (and
    // its flags wiped) by the pre-crash machine.
    std::lock_guard<std::mutex> lock(end_mu);
    end_sent = true;
    end_epoch = last_epoch;
  }
  for (std::size_t m = 0; m < machines_.size(); ++m) {
    Message end;
    end.type = Message::Type::kPlanStreamEnd;
    end.epoch = last_epoch;
    end.term = current_term.load(std::memory_order_acquire);
    transport_->Send(0, static_cast<MachineId>(m), std::move(end));
  }

  // Executors exit once the stream end reaches them (via the transport's
  // reliable delivery) and their queues drain.
  for (auto& m : machines_) m->JoinExecutor();
  if (detector_on) {
    // The joins above cover only the original executors. Quiesce the
    // crash schedule before tearing the stream down: wait for the
    // watchdog to recover any machine that is still down, join the
    // recovered executors (a later scheduled crash can fire on one of
    // those), and repeat until every scheduled machine ends up alive —
    // or the watchdog declared an unrecoverable fault.
    bool fatal = false;
    while (!fatal) {
      {
        std::unique_lock<std::mutex> lock(wd_mu);
        wd_cv.wait(lock, [&] {
          if (fatal_declared) return true;
          for (std::size_t m = 0; m < machines_.size(); ++m) {
            if (crash_scheduled[m] && machines_[m]->crashed()) return false;
          }
          return true;
        });
        fatal = fatal_declared;
      }
      if (fatal) break;
      for (auto& m : machines_) m->JoinRecoveredExecutor();
      bool any_down = false;
      for (std::size_t m = 0; m < machines_.size(); ++m) {
        if (crash_scheduled[m] && machines_[m]->crashed()) any_down = true;
      }
      if (!any_down) break;
    }
    watchdog_stop.store(true, std::memory_order_release);
    watchdog.join();
    for (auto& m : machines_) m->JoinRecoveredExecutor();
  }
  // The hooks capture this frame's LatencyTracker / fault state; no
  // executor can call them now, and the machines outlive this frame.
  for (auto& m : machines_) {
    m->set_commit_hook(nullptr);
    m->set_diagnostic_context(nullptr);
  }
  transport_->Flush();
  if (sampler != nullptr) {
    // The source captures this frame's counters by reference: stop the
    // sampling thread and detach the source before they go out of scope.
    if (sampler->domain() == obs::LiveSampler::Domain::kWall) {
      sampler->StopWall();
    }
    sampler->ClearSource();
  }

  ClusterRunOutcome outcome = CollectResults(/*dedup_participants=*/false);
  outcome.transport = transport_->stats();
  outcome.pipeline.admitted = admitted;
  outcome.pipeline.dummies = dummies;
  outcome.pipeline.batches = batches;
  outcome.pipeline.plans = plans;
  outcome.pipeline.backpressure_waits =
      admission_waits + scheduler_waits + credit_waits;
  outcome.pipeline.batch_queue_high_water = batch_q_hw;
  outcome.pipeline.plan_queue_high_water = plan_q_hw;
  for (const auto& m : machines_) {
    outcome.pipeline.epoch_queue_high_water =
        std::max<std::uint64_t>(outcome.pipeline.epoch_queue_high_water,
                                m->epoch_queue_high_water());
    outcome.pipeline.machine_inbound_high_water =
        std::max<std::uint64_t>(outcome.pipeline.machine_inbound_high_water,
                                m->inbound_queue_high_water());
    outcome.pipeline.machine_inbound_spills += m->inbound_overflow_spills();
  }
  outcome.pipeline.admission_seconds = admission_seconds;
  outcome.pipeline.admit_to_commit_us = latency.us;
  {
    std::lock_guard<std::mutex> lock(fault_mu);
    outcome.fault = fault;
  }
  outcome.recovery = recovery;  // watchdog joined; no concurrent writer
  // Checkpoint / log-footprint accounting: counters sum over machines,
  // byte peaks are maxima (the footprint claim is per-machine).
  for (std::size_t m = 0; m < checkpoints_.size(); ++m) {
    const MachineCheckpoint& cp = *checkpoints_[m];
    outcome.checkpoint.checkpoints_taken += cp.captures_taken;
    outcome.checkpoint.last_epoch =
        std::max(outcome.checkpoint.last_epoch, cp.epoch());
    outcome.checkpoint.records_captured += cp.records_captured;
    outcome.checkpoint.truncated_request_entries +=
        cp.truncated_request_entries;
    outcome.checkpoint.truncated_network_messages +=
        cp.truncated_network_messages;
    outcome.checkpoint.capture_us += cp.capture_us;
  }
  for (const auto& m : machines_) {
    outcome.checkpoint.request_log_bytes_peak =
        std::max(outcome.checkpoint.request_log_bytes_peak,
                 static_cast<std::uint64_t>(m->request_log_bytes_peak()));
    outcome.checkpoint.network_log_bytes_peak =
        std::max(outcome.checkpoint.network_log_bytes_peak,
                 static_cast<std::uint64_t>(m->network_log_bytes_peak()));
  }
  outcome.checkpoint.resend_window_bytes_peak = resend_window.bytes_peak();
  outcome.checkpoint.pruned_resend_rounds = resend_window.pruned_rounds();
  // Migration accounting: barrier-side counters from the dissemination
  // thread plus the per-machine wire counters (source capture / target
  // install sides).
  outcome.migration = migration;
  outcome.timeline = std::move(timeline);
  if (elastic_ != nullptr) {
    for (const auto& m : machines_) {
      const Machine::MigrationCounters mc = m->migration_counters();
      outcome.migration.records_moved += mc.records_moved;
      outcome.migration.bytes_shipped += mc.bytes_shipped;
      outcome.migration.chunks_shipped += mc.chunks_shipped;
      outcome.migration.duplicate_chunks_dropped +=
          mc.duplicate_chunks_dropped;
    }
  }
  if (coordinator_) {
    failover.log_appends = coordinator_->log_appends();
    failover.log_acks = coordinator_->log_acks();
    failover.committed_batches = coordinator_->committed_batches();
    failover.dueling_claims = coordinator_->dueling_claims();
    failover.leader = static_cast<std::uint32_t>(coordinator_->leader());
    failover.fenced_appends = coordinator_->fenced_appends();
  }
  for (const auto& m : machines_) {
    failover.fenced_messages += m->fenced_messages();
  }
  outcome.failover = failover;
  StopAll();
  return outcome;
}

Status LocalCluster::RunMembershipStep(std::size_t step_idx,
                                       MigrationStats& stats,
                                       std::uint64_t term) {
  const MembershipStep& step = elastic_->step(step_idx);
  const std::size_t version = step_idx + 1;
  const std::chrono::microseconds timeout(options_.stall_timeout_us);
  const auto t0 = std::chrono::steady_clock::now();
  TPART_TRACE_SPAN("membership_step", "elastic",
                   {{"cut", step.cut_epoch},
                    {"n_before", step.n_before},
                    {"n_after", step.n_after}});
  // 1. Quiesce: every disseminated round has fully executed everywhere.
  //    The scheduler may already have sunk rounds past the cut, but this
  //    thread is the only shipper, so nothing past the cut is in flight.
  //    A crash armed at the cut epoch flips its machine down BEFORE the
  //    round's credit is released (the executor defers the release past
  //    CrashStop), so a post-drain crashed() probe reliably sees it; the
  //    probe also covers the replay phase of an earlier crash, since the
  //    machine stays kRecovering until the replayed suffix finishes.
  //    When it trips, wait out the watchdog's detect + recover + replay,
  //    then re-drain: re-shipped rounds still hold their original ship
  //    credits, so the redo absorbs them.
  const auto quiesce_deadline = t0 + timeout;
  for (auto& m : machines_) {
    for (;;) {
      Status s = m->WaitStreamDrained(timeout);
      if (!s.ok()) return s;
      if (!m->crashed()) break;
      if (timeout.count() > 0 &&
          std::chrono::steady_clock::now() > quiesce_deadline) {
        std::ostringstream out;
        out << "membership step at epoch " << step.cut_epoch << ": machine "
            << m->id() << " is still down at the cut";
        return Status::Unavailable(out.str());
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  // 2. Push every in-flight write-back and forward-push to its
  //    destination queue, then fence each service FIFO so everything
  //    delivered is also applied before state is scanned.
  transport_->Flush();
  for (auto& m : machines_) {
    Status s = m->FenceService(timeout);
    if (!s.ok()) return s;
  }
  // 3. Plan the routes: a machine's key universe is its record store
  //    plus its version-discipline key state (PlanMigration drops keys
  //    whose home does not actually change across the step).
  std::vector<std::pair<MachineId, std::vector<ObjectKey>>> keys_by_source;
  for (std::size_t m = 0; m < machines_.size(); ++m) {
    std::vector<ObjectKey> keys = machines_[m]->storage().StateKeys();
    store_->store(static_cast<MachineId>(m)).ForEachKey([&](ObjectKey key) {
      keys.push_back(key);
    });
    if (!keys.empty()) {
      keys_by_source.emplace_back(static_cast<MachineId>(m), std::move(keys));
    }
  }
  const std::vector<MigrationRoute> routes =
      PlanMigration(*elastic_, version, keys_by_source);
  // 4. Ship each route (begin -> chunked image -> commit; the source
  //    captures and drops, the target installs exactly once) and wait
  //    for every install. Flush between polls pushes retried chunks
  //    through a fault-injecting transport.
  for (const MigrationRoute& route : routes) {
    const std::uint64_t stream = MigrationStreamId(
        static_cast<std::uint64_t>(version), route.source, route.target);
    Message begin;
    begin.type = Message::Type::kMigrateBegin;
    begin.req_id = stream;
    begin.dst_txn = route.target;
    begin.epoch = step.cut_epoch;
    begin.plan_bytes = EncodeKeyList(route.keys);
    // The migration stream inherits the issuing term: the source stamps
    // it onto every image chunk and the commit, so a zombie-issued
    // migration is fenced end to end.
    begin.term = term;
    transport_->Send(0, route.source, std::move(begin));
    stats.keys_moved += route.keys.size();
  }
  stats.routes += routes.size();
  const auto deadline = t0 + timeout;
  for (const MigrationRoute& route : routes) {
    const std::uint64_t stream = MigrationStreamId(
        static_cast<std::uint64_t>(version), route.source, route.target);
    while (!machines_[route.source]->MigrationSourceDone(stream) ||
           !machines_[route.target]->MigrationInstalled(stream)) {
      if (timeout.count() > 0 && std::chrono::steady_clock::now() > deadline) {
        std::ostringstream out;
        out << "migration stream " << route.source << " -> " << route.target
            << " (" << route.keys.size() << " keys) timed out";
        return Status::Unavailable(out.str());
      }
      transport_->Flush();
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  // 5. Force a checkpoint on every machine at the cut. The capture folds
  //    the migration's record deletions/insertions (marked dirty by the
  //    handlers) and truncates the §5.4 logs — a later crash replay can
  //    then never resurrect a moved key on its old home.
  for (auto& m : machines_) m->ForceCheckpoint(step.cut_epoch);
  stats.forced_checkpoints += machines_.size();
  ++stats.membership_steps;
  stats.last_cut_epoch = step.cut_epoch;
  const std::uint64_t step_barrier_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  stats.barrier_us += step_barrier_us;
  stats.phase_barrier_us.Add(step_barrier_us);
  TPART_FLIGHT(obs::FlightEvent::kMigrationStep, 0, step.cut_epoch,
               routes.size());
  return Status::Ok();
}

std::string ApplySeededChaos(std::uint64_t seed, std::size_t num_machines,
                             SinkEpoch span_epochs,
                             LocalClusterOptions& options, bool extended) {
  TPART_CHECK(num_machines >= 2)
      << "the chaos matrix crashes two distinct machines";
  TPART_CHECK(span_epochs >= 12)
      << "the chaos matrix spreads three crashes over the run; give it at "
         "least a dozen sinking rounds";
  Rng rng(seed);
  // Two distinct victims; the second crash hits a different machine than
  // the first, the third re-crashes the first victim after its recovery.
  const MachineId a = static_cast<MachineId>(rng.NextBelow(num_machines));
  MachineId b = static_cast<MachineId>(rng.NextBelow(num_machines - 1));
  if (b >= a) ++b;
  // Strictly increasing epochs with slack between them so each recovery
  // completes (epoch-wise) before the next crash arms its trigger. The
  // quarter-span stride keeps the last epoch strictly inside the run
  // (e3 <= 2 + 3 * span/4 < span for span >= 12) so every scheduled
  // crash actually fires.
  const SinkEpoch third = std::max<SinkEpoch>(span_epochs / 4, 2);
  const SinkEpoch e1 = 2 + static_cast<SinkEpoch>(rng.NextBelow(third));
  const SinkEpoch e2 = e1 + 1 + static_cast<SinkEpoch>(rng.NextBelow(third));
  const SinkEpoch e3 = e2 + 1 + static_cast<SinkEpoch>(rng.NextBelow(third));

  options.crash.events = {{a, e1, 0, false}, {b, e2, 0, false},
                           {a, e3, 0, false}};
  options.crash.recover = true;
  options.detector.enabled = true;

  std::ostringstream out;
  out << "chaos(seed=" << seed << "): crash m" << a << "@e" << e1 << ", m"
      << b << "@e" << e2 << ", m" << a << "@e" << e3 << " (repeat)";
  // With a third machine to spare, make it a straggler: heartbeat
  // handling stalls for half the detector deadline once per two deadline
  // periods — slow enough to show up, never slow enough to be declared.
  if (num_machines >= 3) {
    MachineId s = static_cast<MachineId>(rng.NextBelow(num_machines - 2));
    const MachineId lo = std::min(a, b), hi = std::max(a, b);
    if (s >= lo) ++s;
    if (s >= hi) ++s;
    options.straggler.machine = s;
    options.straggler.delay_us = options.detector.deadline_us / 2;
    options.straggler.period_us = 2 * options.detector.deadline_us;
    out << ", straggler m" << s << " (delay="
        << options.straggler.delay_us << "us)";
  }
  // With coordinator replication on, kill the leader once too (seq@E in
  // the --chaos grammar). Drawn after every other event so the worker
  // schedule for a fixed seed is unchanged by the standby count; the
  // epoch may coincide with e2, composing a coordinator crash with a
  // worker crash at the same round — a desired hard case.
  options.crash.coordinator_at.clear();
  options.crash.coordinator_revive_at.clear();
  if (options.coordinator.standbys > 0) {
    const SinkEpoch es = e1 + 1 + static_cast<SinkEpoch>(rng.NextBelow(third));
    options.crash.coordinator_at.push_back(es);
    out << ", seq@e" << es;
  }
  if (extended) {
    // Extended chaos (the nightly matrix): link-level faults, drawn
    // strictly AFTER every base draw so a fixed seed's crash / straggler
    // / leader-crash pattern is unchanged by the extended flag. One
    // symmetric isolation window (span 2, inside the default epoch
    // credit window), one gray-failure slow link, one flapping link, and
    // — with standbys — the leader crash above becomes a pause-and-
    // revive zombie whose stale traffic must be term-fenced.
    PartitionSchedule& net = options.transport.faults.partition;
    PartitionEvent part;
    part.group_a.push_back(
        static_cast<MachineId>(rng.NextBelow(num_machines)));
    part.from_epoch = 2 + rng.NextBelow(span_epochs - 4);
    part.heal_epoch = part.from_epoch + 2;
    net.partitions.push_back(part);
    SlowLinkEvent slow;
    slow.from = static_cast<MachineId>(rng.NextBelow(num_machines));
    slow.to = static_cast<MachineId>(rng.NextBelow(num_machines - 1));
    if (slow.to >= slow.from) ++slow.to;
    slow.from_epoch = 1 + rng.NextBelow(span_epochs / 2);
    slow.heal_epoch =
        slow.from_epoch + std::max<SinkEpoch>(span_epochs / 3, 2);
    net.slow_links.push_back(slow);
    FlappingLink flap;
    flap.from = static_cast<MachineId>(rng.NextBelow(num_machines));
    flap.to = static_cast<MachineId>(rng.NextBelow(num_machines - 1));
    if (flap.to >= flap.from) ++flap.to;
    flap.from_epoch = 1 + rng.NextBelow(span_epochs / 2);
    flap.heal_epoch = flap.from_epoch + 2;
    net.flapping.push_back(flap);
    out << ", " << net.Summary();
    if (!options.crash.coordinator_at.empty()) {
      const SinkEpoch revive = options.crash.coordinator_at.back() + 2 +
                               static_cast<SinkEpoch>(rng.NextBelow(third));
      options.crash.coordinator_revive_at.assign(
          options.crash.coordinator_at.size(), 0);
      options.crash.coordinator_revive_at.back() = revive;
      out << "+revive@e" << revive;
    }
  }
  return out.str();
}

ClusterRunOutcome LocalCluster::RunCalvin() {
  TPART_CHECK(!options_.resize.enabled())
      << "elastic membership is a T-Part feature";
  if (used_) Reset();
  used_ = true;
  NameTraceTracks(machines_.size());
  TPART_TRACE(SetThreadInfo(0, "driver"));
  const std::vector<TxnSpec> txns = workload_->SequencedRequests();
  for (const TxnSpec& spec : txns) {
    if (spec.is_dummy) continue;
    // Each scheduler "forwards the request to the local executor if the
    // read and write sets cover any data stored locally" (§2.1).
    std::vector<bool> participates(machines_.size(), false);
    for (const ObjectKey k : spec.rw.AllKeys()) {
      participates[workload_->partition_map->Locate(k)] = true;
    }
    for (std::size_t m = 0; m < machines_.size(); ++m) {
      if (participates[m]) machines_[m]->EnqueueCalvinTxn(spec);
    }
  }
  for (auto& m : machines_) m->StartCalvin();
  for (auto& m : machines_) m->FinishEnqueue();
  for (auto& m : machines_) m->JoinExecutor();
  transport_->Flush();
  ClusterRunOutcome outcome = CollectResults(/*dedup_participants=*/true);
  outcome.transport = transport_->stats();
  StopAll();
  return outcome;
}

ClusterRunOutcome LocalCluster::CollectResults(bool dedup_participants) {
  std::vector<TxnResult> all;
  for (auto& m : machines_) {
    for (auto& r : m->TakeResults()) all.push_back(std::move(r));
  }
  std::sort(all.begin(), all.end(),
            [](const TxnResult& a, const TxnResult& b) {
              return a.id < b.id;
            });
  ClusterRunOutcome outcome;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (dedup_participants && !outcome.results.empty() &&
        outcome.results.back().id == all[i].id) {
      // Determinism: every participant must reach the same decision and
      // outputs (§2.1).
      TPART_CHECK(outcome.results.back().committed == all[i].committed &&
                  outcome.results.back().output == all[i].output)
          << "participants diverged on T" << all[i].id;
      continue;
    }
    outcome.results.push_back(std::move(all[i]));
  }
  for (const auto& r : outcome.results) {
    if (r.committed) {
      ++outcome.committed;
    } else {
      ++outcome.aborted;
    }
  }
  return outcome;
}

}  // namespace tpart
