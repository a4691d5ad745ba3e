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
#include <utility>

#include "common/flat_map.h"
#include "common/logging.h"
#include "common/random.h"
#include "elastic/migration.h"
#include "net/wire.h"
#include "obs/flight_recorder.h"
#include "obs/live_sampler.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "runtime/failure_detector.h"
#include "runtime/recovery.h"

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
        }));
    machines_.back()->set_send_batch(
        [this, m](std::vector<std::pair<MachineId, Message>>& msgs) {
          transport_->SendBatch(static_cast<MachineId>(m), msgs);
        });
    const DataPartitionMap* map = machine_map.get();
    machines_.back()->set_locator(
        [map](ObjectKey key) { return map->Locate(key); });
    machines_.back()->set_log_recording(options_.record_recovery_logs);
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
      const KvStore& loaded = store_->store(static_cast<MachineId>(m));
      cp->records.reserve(loaded.size());
      loaded.Scan(0, std::numeric_limits<ObjectKey>::max(),
                  [&](ObjectKey key, const Record& value) {
                    cp->records.emplace(key, value);
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

using Clock = std::chrono::steady_clock;

std::uint64_t UsSince(Clock::time_point t0,
                      Clock::time_point t = Clock::now()) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(t - t0).count());
}

/// One sunk round in flight between the scheduler and dissemination
/// stages: the plan plus the owned specs of its transactions, in plan
/// order. Ownership moves with the stream; nothing points back into a
/// caller-scoped container.
struct PlanEnvelope {
  SinkPlan plan;
  std::vector<TxnSpec> specs;
};

/// What the stages of one RunTPart() share: the cluster parts they drive
/// (borrowed), the run's fault status, the coordinator-term fence, the
/// fault-clock mirror, the admit→commit latency map, and the counters the
/// live sampler reads.
struct RunContext {
  RunContext(const LocalClusterOptions& options, const Workload& workload,
             PartitionedStore& store, Transport& transport,
             std::vector<std::unique_ptr<Machine>>& machines,
             CoordinatorReplicaSet* coordinator,
             std::shared_ptr<ElasticPartitionMap> elastic,
             std::vector<std::unique_ptr<MachineCheckpoint>>& checkpoints)
      : options(options),
        workload(workload),
        store(store),
        transport(transport),
        machines(machines),
        coordinator(coordinator),
        elastic(std::move(elastic)),
        checkpoints(checkpoints) {}

  const LocalClusterOptions& options;
  const Workload& workload;
  PartitionedStore& store;
  Transport& transport;
  std::vector<std::unique_ptr<Machine>>& machines;
  /// The replica ensemble (coordinator.standbys > 0), else nullptr.
  CoordinatorReplicaSet* const coordinator;
  /// The versioned key map of a resize run, else nullptr.
  const std::shared_ptr<ElasticPartitionMap> elastic;
  std::vector<std::unique_ptr<MachineCheckpoint>>& checkpoints;
  const PartitionSchedule& partition = options.transport.faults.partition;
  const std::size_t n_endpoints =
      machines.size() +
      (coordinator != nullptr ? coordinator->num_replicas() : 0);
  obs::LiveSampler* const sampler = options.live_sampler;

  std::mutex fault_mu;
  Status fault;

  // ---- Link-fault schedule & coordinator-term fencing (DESIGN §4j). ---
  // `current_term` is the fencing stamp on every control message this
  // cluster ships; it tracks the coordinator's election term across
  // failovers (stays 1 without replication — the fence is then uniform
  // but inert). `fault_epoch_live` mirrors the epoch dissemination last
  // advanced the transport's fault clock to, so the watchdog can excuse
  // heartbeat silence a severed window explains.
  std::atomic<std::uint64_t> current_term{
      coordinator != nullptr ? coordinator->term() : 1};
  std::atomic<std::uint64_t> fault_epoch_live{0};

  // Admission-to-result latency: the admission stage stamps each real
  // transaction at batch formation; the machine's commit hook closes the
  // pair and erases it, so the map holds only in-flight transactions.
  struct {
    std::mutex mu;
    FlatMap<TxnId, Clock::time_point> admitted;
    Histogram us;
  } latency;

  // Pipeline counters the live sampler may read from its own thread
  // mid-run; they accumulate across terms. A failover run re-pulls the
  // in-flight (uncommitted) suffix, so admitted may exceed the crash-free
  // count; committed results are what must match. The `live_*` mirrors
  // are refreshed by the scheduler and dissemination threads off the
  // critical path, and only while a sampler is installed.
  std::atomic<std::uint64_t> admitted{0};
  std::atomic<std::uint64_t> plans{0};
  std::atomic<SinkEpoch> last_epoch{0};
  std::atomic<std::uint64_t> live_tgraph{0};
  std::atomic<std::uint64_t> live_planned_txns{0};
  std::atomic<std::uint64_t> live_distributed_txns{0};
  std::atomic<std::uint64_t> live_hot_key{0};
  std::atomic<double> live_hot_share{0.0};
  std::atomic<std::uint64_t> live_term{0};

  /// Records the run's first fault, then releases every blocked wait
  /// (reads, credits, parked storage) so the doomed run drains and
  /// reports instead of hanging.
  void DeclareFault(const std::string& message) {
    {
      std::lock_guard<std::mutex> lock(fault_mu);
      if (fault.ok()) fault = Status::Unavailable(message);
    }
    for (auto& m : machines) m->AbortPendingWaits();
  }
};

/// Installs the live sampler's source (DESIGN §4f). It reads only
/// counters the pipeline already maintains (relaxed atomics, per-machine
/// accessors) plus the context's `live_*` mirrors, so sampling never
/// blocks the pipeline.
void InstallSamplerSource(RunContext& ctx) {
  ctx.sampler->set_source([&ctx](obs::LiveSampler::Sample& s) {
    std::uint64_t executed = 0;
    std::uint64_t inbound_hw = 0;
    std::uint64_t in_flight = 0;
    for (const auto& m : ctx.machines) {
      executed += m->executed_plans();
      inbound_hw =
          std::max<std::uint64_t>(inbound_hw, m->inbound_queue_high_water());
      in_flight += m->epochs_in_flight();
    }
    const auto load = [](const std::atomic<std::uint64_t>& v) {
      return static_cast<double>(v.load(std::memory_order_relaxed));
    };
    const double planned = load(ctx.live_planned_txns);
    s.emplace_back("tpart_live_admitted_total", load(ctx.admitted));
    s.emplace_back("tpart_live_plans_total", load(ctx.plans));
    s.emplace_back("tpart_live_committed_total",
                   static_cast<double>(executed));
    s.emplace_back("tpart_live_tgraph_size", load(ctx.live_tgraph));
    s.emplace_back("tpart_live_distributed_ratio",
                   planned > 0 ? load(ctx.live_distributed_txns) / planned
                               : 0.0);
    s.emplace_back("tpart_live_inbound_peak_depth",
                   static_cast<double>(inbound_hw));
    s.emplace_back("tpart_live_epochs_in_flight_depth",
                   static_cast<double>(in_flight));
    s.emplace_back("tpart_live_term_index", load(ctx.live_term));
    s.emplace_back("tpart_live_hot_key_index", load(ctx.live_hot_key));
    s.emplace_back("tpart_live_hot_key_share_ratio",
                   ctx.live_hot_share.load(std::memory_order_relaxed));
  });
}

/// One leader term's stage channels and resume point, fresh per term.
struct LeaderTerm {
  explicit LeaderTerm(const RunContext& ctx)
      : batches(ctx.options.pipeline.batch_queue_capacity),
        plans(ctx.options.pipeline.plan_queue_capacity) {
    // Resume state from the new leader's committed log: batch composition
    // is a pure function of stream position, so skipping the committed
    // prefix of the request source and priming the sequencer past the
    // last committed ids regenerates the exact remainder of the stream.
    if (ctx.coordinator == nullptr) return;
    committed_log = ctx.coordinator->CommittedLog();
    for (const TxnBatch& b : committed_log) {
      source_skip += b.NumRealTxns();
      primed_next_batch = b.batch_id + 1;
      if (!b.txns.empty()) primed_next_id = b.txns.back().id + 1;
    }
  }

  // An empty batch / nullopt envelope is the end-of-stream sentinel (real
  // batches are never empty).
  BlockingQueue<TxnBatch> batches;
  BlockingQueue<std::optional<PlanEnvelope>> plans;
  /// Set by dissemination once the scheduled coordinator crash fires.
  std::atomic<bool> abort{false};
  std::vector<TxnBatch> committed_log;
  std::uint64_t source_skip = 0;
  TxnId primed_next_id = 0;
  std::uint64_t primed_next_batch = 0;
};

/// Stage 1: admission. Pulls requests incrementally — the full workload
/// is never materialized — and batches them through the Sequencer (ids
/// assigned, short tail dummy-padded, §3.3). With standbys, every batch
/// is quorum-committed to the replica ensemble before it enters the
/// pipeline. Owns the run's admission counters (read after the joins).
class Admission {
 public:
  explicit Admission(RunContext& ctx) : ctx_(ctx) {}

  void Run(LeaderTerm& term) {
    TPART_TRACE(SetThreadInfo(0, "admission"));
    const auto t0 = Clock::now();
    Sequencer sequencer(ctx_.options.pipeline.sequencer);
    if (!term.committed_log.empty()) {
      sequencer.Prime(term.primed_next_id, term.primed_next_batch);
    }
    std::unique_ptr<RequestSource> source = ctx_.workload.MakeRequestSource();
    for (std::uint64_t i = 0; i < term.source_skip; ++i) {
      TPART_CHECK(source->Next().has_value())
          << "committed log covers " << term.source_skip
          << " requests but the source ran dry at " << i;
    }
    bool alive = true;
    while (alive && !term.abort.load(std::memory_order_acquire)) {
      std::optional<TxnSpec> spec = source->Next();
      if (!spec.has_value()) break;
      sequencer.Submit(std::move(*spec));
      ++ctx_.admitted;
      while (std::optional<TxnBatch> batch = sequencer.NextBatch()) {
        if (!Emit(term, std::move(*batch))) {
          alive = false;
          break;
        }
      }
    }
    // Only a non-empty tail is flushed: padding an empty tail would
    // append a round of pure dummies for nothing.
    if (alive && !term.abort.load(std::memory_order_acquire) &&
        sequencer.pending() > 0) {
      if (std::optional<TxnBatch> batch = sequencer.Flush()) {
        Emit(term, std::move(*batch));
      }
    }
    dummies += sequencer.num_dummies_issued();
    seconds += std::chrono::duration<double>(Clock::now() - t0).count();
    term.batches.Send(TxnBatch{});
    queue_high_water = std::max<std::uint64_t>(queue_high_water,
                                               term.batches.high_water());
  }

  std::uint64_t dummies = 0;
  std::uint64_t batches = 0;
  std::uint64_t waits = 0;
  std::uint64_t queue_high_water = 0;
  double seconds = 0.0;

 private:
  // Returns false once the leader crash-stops mid-append: that batch
  // never committed, so the next term re-pulls it from the source (an
  // append that did reach a standby commits through the new leader's log
  // instead, and the term's skip count absorbs it). Also false when the
  // append's quorum never forms: that is the run's fault.
  bool Emit(LeaderTerm& term, TxnBatch batch) {
    TPART_TRACE_SPAN("admit_batch", "pipeline",
                     {{"txns", batch.txns.size()}});
    TPART_FLIGHT(obs::FlightEvent::kAdmitBatch, 0, batch.batch_id,
                 batch.txns.size());
    if (ctx_.coordinator != nullptr) {
      Result<bool> appended = ctx_.coordinator->LeaderAppend(batch);
      if (!appended.ok()) {
        ctx_.DeclareFault("admission stalled appending batch " +
                          std::to_string(batch.batch_id) + ": " +
                          appended.status().message());
        return false;
      }
      if (!*appended) return false;
    }
    const auto now = Clock::now();
    {
      std::lock_guard<std::mutex> lock(ctx_.latency.mu);
      for (const TxnSpec& spec : batch.txns) {
        if (spec.is_dummy) continue;
        // emplace: a surviving pre-crash stamp wins, so the measured
        // latency spans the failover — the honest number.
        ctx_.latency.admitted.emplace(spec.id, now);
        // Opens the per-transaction admit->commit lifecycle span, closed
        // by the machine's commit hook.
        TPART_TRACE(AsyncBegin("txn", "lifecycle", spec.id));
        if (obs::SampledTxn(spec.id, ctx_.options.txn_sample)) {
          TPART_TRACE(AsyncInstant("admitted", "timeline", spec.id,
                                   {{"batch", batch.batch_id}}));
        }
      }
    }
    if (term.batches.Send(std::move(batch))) ++waits;
    ++batches;
    return true;
  }

  RunContext& ctx_;
};

/// Stage 2: scheduler. Consumes ordered batches, maintains the T-graph,
/// and emits each sunk round the moment it exists. Specs are parked here
/// between arrival and sinking, in a FIFO: rounds sink in id order and
/// skip dummies, so a round's specs are always at its front. The
/// T-graph's unsunk bound caps that parking, so this stage is bounded
/// too. A new term first replays the committed log into a fresh T-graph
/// (§5.4 semantics applied to the coordinator): every round and every
/// Rehome decision of the crashed leader is re-derived, because both are
/// pure functions of the stream.
class Scheduling {
 public:
  explicit Scheduling(RunContext& ctx) : ctx_(ctx) {}

  void Run(LeaderTerm& term) {
    TPART_TRACE(SetThreadInfo(0, "scheduler"));
    TPartScheduler::Options sched_opts = ctx_.options.scheduler;
    // The graph starts at the base membership; each membership step
    // re-targets it (Rehome) when the scheduler crosses the cut.
    // Placement routes through the versioned map so rounds past a cut
    // home keys at their post-step machines.
    sched_opts.graph.num_machines = ctx_.workload.num_machines;
    sched_opts.elastic = ctx_.elastic;
    sched_opts.track_key_frequencies =
        sched_opts.track_key_frequencies || ctx_.sampler != nullptr;
    TPartScheduler scheduler(
        sched_opts, ctx_.elastic != nullptr
                        ? std::static_pointer_cast<const DataPartitionMap>(
                              ctx_.elastic)
                        : ctx_.workload.partition_map);
    std::deque<TxnSpec> parked;
    int hot_refresh_countdown = 16;
    const auto emit = [&](SinkPlan plan) {
      TPART_FLIGHT(obs::FlightEvent::kScheduleRound, 0, plan.epoch,
                   plan.txns.size());
      PlanEnvelope env;
      env.specs.reserve(plan.txns.size());
      for (const TxnPlan& p : plan.txns) {
        TPART_CHECK(!parked.empty() && parked.front().id == p.txn)
            << "round " << plan.epoch << " sank T" << p.txn
            << " out of parked order (" << parked.size() << " parked)";
        env.specs.push_back(std::move(parked.front()));
        parked.pop_front();
      }
      env.plan = std::move(plan);
      if (term.plans.Send(std::move(env))) ++waits;
    };
    for (const TxnBatch& b : term.committed_log) {
      for (const TxnSpec& spec : b.txns) {
        std::vector<SinkPlan> replayed = scheduler.OnTxn(spec);
        if (!spec.is_dummy) parked.push_back(spec);
        for (SinkPlan& plan : replayed) emit(std::move(plan));
      }
      ++replayed_batches;
    }
    while (true) {
      Result<TxnBatch> batch = term.batches.ReceiveFor(kStallTimeout);
      TPART_CHECK(batch.ok())
          << "scheduler stalled awaiting the admission stage: "
          << batch.status().message();
      if (batch->txns.empty()) break;
      // An aborted term keeps draining (a blocked admission Send would
      // deadlock the join) but schedules nothing further.
      if (term.abort.load(std::memory_order_acquire)) continue;
      TPART_TRACE_SPAN("schedule_batch", "pipeline",
                       {{"txns", batch->txns.size()}});
      for (TxnSpec& spec : batch->txns) {
        std::vector<SinkPlan> plans = scheduler.OnTxn(spec);
        // Dummies are discarded at plan generation (§3.3); only real
        // specs ever travel to a machine.
        if (!spec.is_dummy) parked.push_back(std::move(spec));
        for (SinkPlan& plan : plans) emit(std::move(plan));
      }
      if (ctx_.sampler != nullptr) {
        ctx_.live_tgraph.store(scheduler.graph().num_unsunk(),
                               std::memory_order_relaxed);
        // The hot-key scan walks the whole frequency map; refresh it on a
        // coarse cadence rather than per batch.
        if (++hot_refresh_countdown >= 16) {
          hot_refresh_countdown = 0;
          const auto [key, share] = scheduler.HottestKey();
          ctx_.live_hot_key.store(key, std::memory_order_relaxed);
          ctx_.live_hot_share.store(share, std::memory_order_relaxed);
        }
      }
    }
    if (!term.abort.load(std::memory_order_acquire)) {
      for (SinkPlan& plan : scheduler.Drain()) emit(std::move(plan));
      TPART_CHECK(parked.empty()) << parked.size() << " specs never sank";
    }
    term.plans.Send(std::nullopt);
    queue_high_water = std::max<std::uint64_t>(queue_high_water,
                                               term.plans.high_water());
  }

  std::uint64_t waits = 0;
  std::uint64_t queue_high_water = 0;
  std::uint64_t replayed_batches = 0;

 private:
  RunContext& ctx_;
};

/// Failure detection and in-run recovery (the watchdog thread, on when
/// the detector is enabled or a crash schedule is armed): heartbeats
/// every machine, scans heartbeat progress through the phi-accrual
/// detector, and rebuilds a crashed machine in place from its own logs —
/// checkpoint restore plus §5.4 local replay.
class Watchdog {
 public:
  Watchdog(RunContext& ctx, std::vector<bool> crash_scheduled)
      : ctx_(ctx),
        crash_scheduled_(std::move(crash_scheduled)),
        interval_(std::max<std::uint64_t>(
            ctx.options.detector.heartbeat_interval_us, 50)),
        detector_(ctx.machines.size(),
                  {.expected_interval_us =
                       static_cast<std::uint64_t>(interval_.count())}),
        deadlines_(ctx.machines.size(), std::chrono::microseconds(
                                            ctx.options.detector.deadline_us)),
        last_seen_(ctx.machines.size(), 0),
        declared_(ctx.machines.size(), false),
        suppressing_(ctx.machines.size(), false) {
    // Straggler-aware deadlines: a seeded straggler freezes its machine
    // for delay_us every period, so its heartbeat responses legitimately
    // stall that long. Widen that machine's deadline additively rather
    // than declaring a false positive (the paper's failure detector
    // assumes bounded delay; the bound must include injected delay). The
    // deadline is only a floor: expiry makes a machine eligible, and the
    // phi-accrual suspicion level (learned from observed inter-arrivals,
    // so slow links and stragglers widen it organically) must
    // corroborate.
    const LocalClusterOptions::StragglerSchedule& s = ctx.options.straggler;
    if (s.enabled()) {
      deadlines_[s.machine] += std::chrono::microseconds(s.delay_us);
    }
  }

  void Start() {
    if (ctx_.options.detector.enabled || ctx_.options.crash.enabled()) {
      thread_ = std::thread([this] { Loop(); });
    }
  }

  /// Quiesce the crash schedule before the stream is torn down: wait for
  /// the watchdog to recover every scheduled victim that is still down
  /// (a failed run's JoinExecutor() returns on a machine that is down) —
  /// or to declare an unrecoverable fault. A victim still down after
  /// kStallTimeout faults the run. Then stop the thread.
  void QuiesceAndStop() {
    if (!thread_.joinable()) return;
    const auto any_down = [&] {
      for (std::size_t m = 0; m < ctx_.machines.size(); ++m) {
        if (crash_scheduled_[m] && ctx_.machines[m]->crashed()) return true;
      }
      return false;
    };
    bool recovered = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      recovered = cv_.wait_for(lock, kStallTimeout,
                               [&] { return fatal_ || !any_down(); });
    }
    if (!recovered) {
      std::ostringstream out;
      out << "crashed machines not recovered at the end of the run:";
      for (std::size_t m = 0; m < ctx_.machines.size(); ++m) {
        if (crash_scheduled_[m] && ctx_.machines[m]->crashed()) {
          out << " " << ctx_.machines[m]->StallDiagnostic() << ";";
        }
      }
      ctx_.DeclareFault(out.str());
    }
    stop_.store(true, std::memory_order_release);
    thread_.join();
  }

  /// The latest suspicion snapshot, for stall diagnostics.
  std::string Suspicion() const {
    std::lock_guard<std::mutex> lock(describe_mu_);
    return describe_;
  }

  /// Read after QuiesceAndStop().
  const RecoveryStats& stats() const { return stats_; }

 private:
  void Loop() {
    TPART_TRACE(SetThreadInfo(0, "watchdog"));
    start_ = Clock::now();
    last_alive_.assign(ctx_.machines.size(), start_);
    std::uint64_t seq = 0;
    while (!stop_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(interval_);
      ++seq;
      const std::uint64_t hb_term =
          ctx_.current_term.load(std::memory_order_acquire);
      for (std::size_t m = 0; m < ctx_.machines.size(); ++m) {
        Message hb;
        hb.type = Message::Type::kHeartbeat;
        hb.req_id = seq;
        // Heartbeats carry the live term so machines witness an election
        // between rounds and raise their fences before any zombie traffic
        // can arrive.
        hb.term = hb_term;
        ctx_.transport.Send(0, static_cast<MachineId>(m), std::move(hb));
      }
      const auto now = Clock::now();
      const std::uint64_t now_us = UsSince(start_, now);
      const std::uint64_t fe =
          ctx_.fault_epoch_live.load(std::memory_order_acquire);
      {
        std::lock_guard<std::mutex> lock(describe_mu_);
        describe_ = detector_.Describe(now_us);
      }
      for (std::size_t m = 0; m < ctx_.machines.size(); ++m) {
        if (declared_[m]) continue;
        const std::uint64_t seen = ctx_.machines[m]->heartbeat_seen();
        if (seen > last_seen_[m]) {
          last_seen_[m] = seen;
          last_alive_[m] = now;
          detector_.Observe(m, now_us);
          suppressing_[m] = false;
          continue;
        }
        // A seeded partition currently severing the watchdog<->machine
        // link fully explains the silence: excuse it (hold both the
        // deadline clock and the phi history) instead of suspecting a
        // machine the schedule says we simply cannot hear.
        const int mi = static_cast<int>(m);
        if (ctx_.partition.Severed(0, mi, fe, ctx_.n_endpoints) ||
            ctx_.partition.Severed(mi, 0, fe, ctx_.n_endpoints)) {
          detector_.Excuse(m, now_us);
          last_alive_[m] = now;
          continue;
        }
        if (now - last_alive_[m] < deadlines_[m]) continue;
        const double phi = detector_.Phi(m, now_us);
        if (!ctx_.machines[m]->crashed() && phi > stats_.peak_healthy_phi) {
          stats_.peak_healthy_phi = phi;
        }
        if (phi < PhiAccrualDetector::Options().phi_threshold) {
          // Deadline expired but the learned inter-arrival distribution
          // says this silence is unexceptional (gray failure / straggler
          // regime): suppress the declaration, once per silence episode.
          if (!suppressing_[m]) {
            suppressing_[m] = true;
            ++stats_.suspicions_suppressed;
            TPART_TRACE(Instant(
                "suspicion_suppressed", "fault",
                {{"machine", m},
                 {"phi_x100", static_cast<std::uint64_t>(phi * 100.0)}}));
          }
          continue;
        }
        if (!DeclareFailed(m, phi, now)) return;
      }
    }
  }

  /// Heartbeats stalled past the deadline floor and the phi threshold.
  /// Recovers the machine in place when its crash was scheduled with
  /// recovery; otherwise faults the run and returns false.
  bool DeclareFailed(std::size_t m, double phi, Clock::time_point now) {
    Machine& machine = *ctx_.machines[m];
    declared_[m] = true;
    TPART_TRACE(Instant("failure_declared", "fault",
                        {{"machine", m}, {"last_seen", last_seen_[m]}}));
    TPART_FLIGHT(obs::FlightEvent::kFailureDeclared, 0, m, last_seen_[m]);
    // Also dumps the flight recorder's post-mortem, recoverable or not.
    const std::string diag = machine.StallDiagnostic();
    Status failure = Status::Ok();
    if (!crash_scheduled_[m] || !ctx_.options.crash.recover ||
        !machine.crashed()) {
      std::ostringstream out;
      out << "machine " << m << " failed: no heartbeat progress for "
          << ctx_.options.detector.deadline_us << "us (phi=" << phi
          << "); " << diag;
      failure = Status::Unavailable(out.str());
    } else {
      failure = RecoverInPlace(m, now);
    }
    if (failure.ok()) return true;
    ctx_.DeclareFault(failure.message());
    std::lock_guard<std::mutex> lock(mu_);
    fatal_ = true;
    cv_.notify_all();
    return false;
  }

  // In-run recovery: checkpoint restore + §5.4 local replay. Nothing is
  // re-sent: the victim's request log still queues every round it
  // received, rounds that reached it while down wait in its stash, and
  // later rounds ship as usual. Count fields accumulate across a
  // multi-crash schedule; machine / epoch / detection reflect this (the
  // most recent) crash. A replay that does not drain is the run's fault.
  Status RecoverInPlace(std::size_t m, Clock::time_point now) {
    Machine& machine = *ctx_.machines[m];
    const auto id = static_cast<MachineId>(m);
    ++stats_.crashes_injected;
    stats_.crashed_machine = id;
    const SinkEpoch resume = machine.resume_epoch();
    stats_.crash_epoch = resume > 0 ? resume - 1 : 0;
    stats_.detection_latency_us = UsSince(machine.crash_time(), now);
    // The restore runs on the machine's loop while this thread waits in
    // Recover(), which never returns while it runs.
    Result<std::size_t> replayed = machine.Recover([&] {
      stats_.checkpoint_records +=
          RestorePartition(*ctx_.checkpoints.at(m), ctx_.store.store(id));
    });
    if (!replayed.ok()) return replayed.status();
    stats_.replayed_txns += *replayed;
    stats_.downtime_us += UsSince(machine.crash_time());
    // The blocking recovery stalled this loop: every other machine's
    // liveness stamp is stale by the full recovery span. Restart the
    // clocks (and re-admit the victim) or the next scan would
    // mass-declare healthy machines.
    const auto after_recovery = Clock::now();
    const std::uint64_t after_us = UsSince(start_, after_recovery);
    for (std::size_t k = 0; k < ctx_.machines.size(); ++k) {
      last_alive_[k] = after_recovery;
      detector_.Excuse(k, after_us);
    }
    // The rebuilt machine's timing regime may differ from its pre-crash
    // one; drop its inter-arrival history entirely.
    detector_.Reset(m, after_us);
    declared_[m] = false;
    suppressing_[m] = false;
    last_seen_[m] = machine.heartbeat_seen();
    std::lock_guard<std::mutex> lock(mu_);
    cv_.notify_all();
    return Status::Ok();
  }

  RunContext& ctx_;
  /// Machines carrying at least one scheduled crash: the ones the
  /// end-of-run quiesce must see recovered before teardown.
  const std::vector<bool> crash_scheduled_;
  const std::chrono::microseconds interval_;
  // Watchdog-thread state.
  PhiAccrualDetector detector_;
  std::vector<std::chrono::microseconds> deadlines_;
  std::vector<std::uint64_t> last_seen_;
  std::vector<Clock::time_point> last_alive_;
  std::vector<bool> declared_;
  /// One suppression count per silence episode, not per scan: armed when
  /// the phi gate first overrides an expired deadline, cleared on the
  /// next heartbeat progress.
  std::vector<bool> suppressing_;
  Clock::time_point start_;
  RecoveryStats stats_;
  mutable std::mutex describe_mu_;
  std::string describe_;
  // Handshake with QuiesceAndStop(): every recovery and the fatal
  // declaration notify.
  std::mutex mu_;
  std::condition_variable cv_;
  bool fatal_ = false;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Stage 3: dissemination, on RunTPart()'s own thread. Each round is split
/// into one kSinkPlan slice per machine (SliceSinkPlan: that machine's
/// plans, encoded once, and their specs) and each slice is moved to its
/// machine; epoch credits bound how far dissemination may run ahead of
/// execution. Round r reaches every machine before r+1 reaches any, which
/// the FIFO machine loops rely on. Being the only shipper, this stage also
/// owns the fault clock, the membership steps, catch-up re-ships after a
/// failover, zombie-leader revival, the coordinator-crash trigger and the
/// failover itself (DESIGN §4i/§4j).
class Disseminator {
 public:
  explicit Disseminator(RunContext& ctx) : ctx_(ctx) {
    // Crash epochs sort as (crash, revive) pairs: revive entries are
    // paired index-wise with coordinator_at and must travel with their
    // crash when the schedule is reordered.
    const LocalClusterOptions::CrashSchedule& crash = ctx.options.crash;
    for (std::size_t i = 0; i < crash.coordinator_at.size(); ++i) {
      coord_crashes_.emplace_back(crash.coordinator_at[i],
                                  i < crash.coordinator_revive_at.size()
                                      ? crash.coordinator_revive_at[i]
                                      : 0);
    }
    std::sort(coord_crashes_.begin(), coord_crashes_.end());
  }

  /// Ships one term's plan stream. Returns true if the scheduled
  /// coordinator crash aborted the term.
  bool Run(LeaderTerm& term) {
    bool aborted = false;
    while (true) {
      Result<std::optional<PlanEnvelope>> env =
          term.plans.ReceiveFor(kStallTimeout);
      TPART_CHECK(env.ok())
          << "dissemination stalled awaiting the scheduler stage: "
          << env.status().message();
      if (!env->has_value()) break;
      // Keep draining after the crash fires (a scheduler blocked mid-Send
      // would deadlock the join); everything drained here regenerates in
      // the next term.
      if (aborted) continue;
      PlanEnvelope& round = **env;
      const SinkEpoch epoch = round.plan.epoch;
      // Rounds at or below the failover catch-up horizon were already
      // shipped by the crashed leader; their window transitions (and the
      // quiesce barriers guarding them) happened in the term that first
      // shipped them, and the failover itself healed every window active
      // at the crash. Replaying the fault clock for them would roll the
      // mirror back and re-raise a quiesce barrier ahead of the very
      // re-ships the stalled machines are waiting on.
      const bool catchup = epoch <= catchup_through_;
      if (!catchup) AdvanceFaultClock(epoch);
      RunDueMembershipSteps(epoch);
      const std::size_t txns = round.plan.txns.size();
      TPART_TRACE_SPAN("disseminate", "pipeline",
                       {{"epoch", epoch}, {"txns", txns}});
      TPART_FLIGHT(obs::FlightEvent::kDisseminateRound, 0, epoch, txns);
      if (!catchup && ctx_.sampler != nullptr) {
        ctx_.live_planned_txns.fetch_add(txns, std::memory_order_relaxed);
        ctx_.live_distributed_txns.fetch_add(round.plan.NumDistributed(),
                                             std::memory_order_relaxed);
      }
      std::vector<Message> slices = SliceSinkPlan(
          std::move(round.plan), std::move(round.specs), ctx_.machines.size());
      // Term fence (DESIGN §4j): every round carries the term that
      // shipped it, so a deposed leader's in-flight traffic is rejectable
      // by every machine the moment a newer term is witnessed. Catch-up
      // re-ships deliberately carry the *new* term.
      const std::uint64_t shipping_term =
          ctx_.current_term.load(std::memory_order_acquire);
      // Causal timelines: stamp the round with a packed trace context
      // (origin = control plane, current coordinator term) so
      // receive-side markers on every machine know which term shipped it.
      const std::uint64_t trace_ctx =
          ctx_.options.txn_sample != 0
              ? obs::PackTraceCtx(
                    /*origin=*/0,
                    ctx_.live_term.load(std::memory_order_relaxed))
              : 0;
      for (Message& slice : slices) {
        slice.term = shipping_term;
        slice.trace_ctx = trace_ctx;
      }
      if (catchup) {
        // Re-ship only to machines whose watermark shows a gap, with no
        // credit / window / timeline side effects (those all happened in
        // the term that shipped them; machines drop duplicate rounds
        // before enqueue, touching no credits, so the credit ledger stays
        // exactly balanced).
        ++failover.catchup_rounds;
        for (std::size_t m = 0; m < slices.size(); ++m) {
          if (epoch > watermarks_[m]) {
            ctx_.transport.Send(0, static_cast<MachineId>(m),
                                std::move(slices[m]));
            ++failover.reshipped_rounds;
          }
        }
        continue;
      }
      const bool crash_coordinator =
          coord_event_idx_ < coord_crashes_.size() &&
          epoch >= coord_crashes_[coord_event_idx_].first;
      // A coordinator crash scheduled to revive keeps the slices it had
      // in flight, for the zombie to replay under its stale term.
      std::vector<Message> in_flight;
      if (crash_coordinator && coord_crashes_[coord_event_idx_].second > 0) {
        in_flight = slices;
      }
      Ship(epoch, std::move(slices));
      if (zombie_pending_ &&
          ctx_.current_term.load(std::memory_order_acquire) > zombie_term_ &&
          epoch >= zombie_at_) {
        ReviveZombie(epoch);
      }
      if (crash_coordinator) {
        CrashCoordinator(epoch, std::move(in_flight));
        term.abort.store(true, std::memory_order_release);
        aborted = true;
      }
    }
    return aborted;
  }

  /// Failover after an aborted term. A standby detected the heartbeat
  /// silence, backed off, and claimed; wait out the election, sync the
  /// claim across the ensemble, rejoin the crashed replica as a standby,
  /// then probe every machine's dissemination watermark so the next term
  /// re-ships exactly the missing suffix of already-shipped rounds.
  void FailOver() {
    CoordinatorReplicaSet& coordinator = *ctx_.coordinator;
    Result<std::size_t> elected = coordinator.WaitElected(kStallTimeout);
    TPART_CHECK(elected.ok())
        << "no standby claimed leadership: " << elected.status().message();
    ++failover.elections_won;
    ctx_.live_term.store(failover.elections_won, std::memory_order_relaxed);
    // From here on, every shipped message carries the new term: the
    // deposed leader's in-flight traffic is now fenceable everywhere.
    ctx_.current_term.store(coordinator.term(), std::memory_order_release);
    failover.detection_latency_us = coordinator.last_detection_us();
    failover.election_us = coordinator.last_election_us();
    failover.phase_detection_us.Add(failover.detection_latency_us);
    failover.phase_election_us.Add(failover.election_us);
    TPART_FLIGHT(obs::FlightEvent::kElectionWon, 0, failover.elections_won,
                 failover.detection_latency_us);
    // A leader outage plus an election takes long enough that any sever
    // window active at the crash has healed by the time the successor
    // runs. Advance the fault clock past those windows before probing:
    // Run() (the only other code that advances the fault clock) is parked
    // until the probe completes, so a probe to a machine severed at the
    // stale fault epoch could otherwise never be answered. No Flush here:
    // the window is ACTIVE, so unacked packets to a severed machine cannot
    // drain until after this advance — the retry loop redelivers them
    // once the links are up again.
    if (ctx_.partition.Any()) {
      const std::uint64_t stale =
          ctx_.fault_epoch_live.load(std::memory_order_acquire);
      const std::uint64_t healed = ctx_.partition.HealAllActiveAt(stale);
      if (healed > stale) SetFaultEpoch(healed);
    }
    const Status synced = coordinator.SyncNewLeader(kStallTimeout);
    TPART_CHECK(synced.ok()) << "failover stalled: " << synced.message();
    coordinator.RestartReplica(crashed_leader_);
    Result<std::vector<SinkEpoch>> wm =
        coordinator.ProbeWatermarks(kStallTimeout);
    TPART_CHECK(wm.ok()) << "watermark probe failed: "
                         << wm.status().message();
    watermarks_ = *wm;
    catchup_through_ = ctx_.last_epoch;
    t_term_start_ = Clock::now();
    pending_replan_stamp_ = true;
    // New-term post-mortem: the dump tail carries the leader crash-stop
    // and the election that ended it.
    TPART_FLIGHT(obs::FlightEvent::kTermStart, 0, failover.elections_won,
                 catchup_through_);
    TPART_FLIGHT_DUMP("failover");
  }

  /// Ends the plan stream. Every remaining link fault heals first: the
  /// reliability layer must complete delivery of everything a severed
  /// window swallowed, and a window configured to heal past the last sunk
  /// epoch would otherwise never heal.
  void EndStream() {
    if (ctx_.partition.Any()) {
      SetFaultEpoch(std::numeric_limits<std::uint64_t>::max());
    }
    const SinkEpoch last = ctx_.last_epoch;
    for (std::size_t m = 0; m < ctx_.machines.size(); ++m) {
      Message end;
      end.type = Message::Type::kPlanStreamEnd;
      end.epoch = last;
      end.term = ctx_.current_term.load(std::memory_order_acquire);
      ctx_.transport.Send(0, static_cast<MachineId>(m), std::move(end));
    }
  }

  // Run counters, read after the stream ends.
  std::uint64_t credit_waits = 0;
  MigrationStats migration;
  FailoverStats failover;
  std::vector<ClusterRunOutcome::EpochTick> timeline;

 private:
  void SetFaultEpoch(std::uint64_t epoch) {
    ctx_.transport.AdvanceFaultEpoch(epoch);
    ctx_.fault_epoch_live.store(epoch, std::memory_order_release);
  }

  // Advances the transport's link-fault clock before anything for this
  // round ships — membership traffic included: severed / flapping / slow
  // windows open and close on sink-epoch boundaries, and a window healing
  // at or before a cut must be healed before the cut's migration chunks
  // flow.
  void AdvanceFaultClock(SinkEpoch epoch) {
    if (!ctx_.partition.Any()) return;
    // A sever window opening at this round's epoch must not cut off
    // response / forward-push traffic still owed for earlier rounds:
    // dissemination runs ahead of execution, and severing a pending
    // response would pin its round's epoch credits until the heal — which
    // in turn needs credits to be disseminated. Quiesce every in-flight
    // round before crossing a sever boundary, so a window "starting at
    // epoch E" severs only rounds >= E. (Flapping and slow links need no
    // barrier: retries eventually pass.)
    const std::uint64_t prev =
        ctx_.fault_epoch_live.load(std::memory_order_acquire);
    if (epoch > prev && ctx_.partition.OpensSeverWindowIn(prev, epoch)) {
      for (auto& m : ctx_.machines) {
        Status drained = m->WaitStreamDrained(kStallTimeout);
        if (!drained.ok()) {
          std::ostringstream out;
          out << "quiesce before sever window at epoch " << epoch
              << " stalled: machine " << m->id() << ": "
              << drained.message();
          ctx_.DeclareFault(out.str());
          break;
        }
      }
      Status flushed = ctx_.transport.Flush();
      if (!flushed.ok()) {
        ctx_.DeclareFault("quiesce before sever window at epoch " +
                          std::to_string(epoch) +
                          " stalled: " + flushed.message());
      }
    }
    SetFaultEpoch(epoch);
  }

  // Membership cuts fire between rounds: before the first round past a
  // cut ships, quiesce the stream, move the keys, and force the cut
  // checkpoint everywhere. Catch-up rounds can never re-trigger a step:
  // any cut below the catch-up horizon stepped in the term that first
  // shipped those rounds (steps_done_ is run-scoped).
  void RunDueMembershipSteps(SinkEpoch epoch) {
    const ElasticPartitionMap* elastic = ctx_.elastic.get();
    while (elastic != nullptr && steps_done_ < elastic->num_steps() &&
           epoch > elastic->step(steps_done_).cut_epoch) {
      Status step_status = RunMembershipStep(steps_done_);
      if (!step_status.ok()) {
        const SinkEpoch cut = elastic->step(steps_done_).cut_epoch;
        std::ostringstream out;
        out << "membership step " << steps_done_ << " (cut epoch " << cut
            << ") failed: " << step_status.message();
        ctx_.DeclareFault(out.str());
        TPART_FLIGHT(obs::FlightEvent::kMigrationAbort, 0, steps_done_, cut);
        TPART_FLIGHT_DUMP("migration_abort");
        // Abandon the remaining schedule; the doomed run still drains.
        steps_done_ = elastic->num_steps();
        break;
      }
      ++steps_done_;
    }
  }

  // Executes membership step `step_idx` at its cut: quiesces the stream
  // (every in-flight round executed, every service FIFO drained),
  // computes and ships the migration routes, waits for every image to
  // install, and forces a checkpoint on all machines at the cut epoch so
  // no later replay can resurrect moved keys. Every wait is bounded by
  // kStallTimeout; on a timeout the returned status carries a stall
  // diagnostic.
  Status RunMembershipStep(std::size_t step_idx) {
    const MembershipStep& step = ctx_.elastic->step(step_idx);
    const std::size_t version = step_idx + 1;
    const auto t0 = Clock::now();
    TPART_TRACE_SPAN("membership_step", "elastic",
                     {{"cut", step.cut_epoch},
                      {"n_before", step.n_before},
                      {"n_after", step.n_after}});
    // 1. Quiesce: every disseminated round has fully executed everywhere,
    //    and every machine is live. The scheduler may already have sunk
    //    rounds past the cut, but this thread is the only shipper, so
    //    nothing past the cut is in flight. A crash armed at the cut epoch
    //    flips its machine down BEFORE the round's credit is released (the
    //    loop defers the release past CrashStop), and the machine stays
    //    kRecovering until its replayed prefix finishes, so the drain wait
    //    spans the watchdog's detect + recover + replay and the rounds
    //    still queued in the victim's request log, which hold their
    //    original ship credits.
    for (auto& m : ctx_.machines) {
      if (Status s = m->WaitStreamDrained(kStallTimeout); !s.ok()) return s;
    }
    // 2. Push every in-flight write-back and forward-push to its
    //    destination queue, then fence each service FIFO so everything
    //    delivered is also applied before state is scanned.
    const auto flush_and_fence = [&]() -> Status {
      if (Status s = ctx_.transport.Flush(); !s.ok()) return s;
      for (auto& m : ctx_.machines) {
        if (Status s = m->FenceService(kStallTimeout); !s.ok()) return s;
      }
      return Status::Ok();
    };
    if (Status s = flush_and_fence(); !s.ok()) return s;
    // 3. Plan the routes: a machine's key universe is its record store
    //    plus its version-discipline key state (PlanMigration drops keys
    //    whose home does not actually change across the step).
    std::vector<std::pair<MachineId, std::vector<ObjectKey>>> keys_by_source;
    for (std::size_t m = 0; m < ctx_.machines.size(); ++m) {
      const auto id = static_cast<MachineId>(m);
      std::vector<ObjectKey> keys = ctx_.machines[m]->storage().StateKeys();
      ctx_.store.store(id).ForEachKey(
          [&](ObjectKey key) { keys.push_back(key); });
      if (!keys.empty()) keys_by_source.emplace_back(id, std::move(keys));
    }
    const std::vector<MigrationRoute> routes =
        PlanMigration(*ctx_.elastic, version, keys_by_source);
    // 4. Ship each route (begin -> chunked image -> commit; the source
    //    captures and drops, the target installs exactly once).
    for (const MigrationRoute& route : routes) {
      Message begin;
      begin.type = Message::Type::kMigrateBegin;
      begin.req_id = MigrationStreamId(static_cast<std::uint64_t>(version),
                                       route.source, route.target);
      begin.dst_txn = route.target;
      begin.epoch = step.cut_epoch;
      begin.plan_bytes = EncodeKeyList(route.keys);
      // The migration stream inherits the issuing term: the source stamps
      // it onto every image chunk and the commit, so a zombie-issued
      // migration is fenced end to end.
      begin.term = ctx_.current_term.load(std::memory_order_acquire);
      ctx_.transport.Send(0, route.source, std::move(begin));
      migration.keys_moved += route.keys.size();
    }
    migration.routes += routes.size();
    //    Then two flush-and-fence passes: after the first, every source
    //    has dispatched its begin (image captured, chunks and commit
    //    sent); after the second, every target has dispatched those
    //    (image installed). Behind the fences the loops' done-sets are
    //    safe to read; a route that is not done lost a message (a
    //    stale-term fence, say).
    if (Status s = flush_and_fence(); !s.ok()) return s;
    if (Status s = flush_and_fence(); !s.ok()) return s;
    for (const MigrationRoute& route : routes) {
      const std::uint64_t stream = MigrationStreamId(
          static_cast<std::uint64_t>(version), route.source, route.target);
      if (!ctx_.machines[route.source]->MigrationSourceDone(stream) ||
          !ctx_.machines[route.target]->MigrationInstalled(stream)) {
        std::ostringstream out;
        out << "migration stream " << route.source << " -> " << route.target
            << " (" << route.keys.size()
            << " keys) did not complete behind its fences";
        return Status::Unavailable(out.str());
      }
    }
    // 5. Force a checkpoint on every machine at the cut: a capturing
    //    service fence. The capture folds the migration's record
    //    deletions/insertions (marked dirty by the handlers) and truncates
    //    the §5.4 logs — a later crash replay can then never resurrect a
    //    moved key on its old home.
    for (auto& m : ctx_.machines) {
      Status s = m->FenceService(kStallTimeout, step.cut_epoch);
      if (!s.ok()) return s;
    }
    migration.forced_checkpoints += ctx_.machines.size();
    ++migration.membership_steps;
    migration.last_cut_epoch = step.cut_epoch;
    const std::uint64_t step_barrier_us = UsSince(t0);
    migration.barrier_us += step_barrier_us;
    migration.phase_barrier_us.Add(step_barrier_us);
    TPART_FLIGHT(obs::FlightEvent::kMigrationStep, 0, step.cut_epoch,
                 routes.size());
    return Status::Ok();
  }

  // The hot path: each machine's slice of one fresh round, moved to it
  // once its epoch credit is granted.
  void Ship(SinkEpoch epoch, std::vector<Message> slices) {
    ++ctx_.plans;
    ctx_.last_epoch = epoch;
    if (pending_replan_stamp_) {
      // First fresh round past the catch-up horizon: the plan stream has
      // fully resumed.
      const auto now = Clock::now();
      failover.replan_us = UsSince(t_term_start_, now);
      failover.plan_stream_gap_us = UsSince(t_crash_, now);
      failover.phase_replan_us.Add(failover.replan_us);
      failover.phase_plan_stream_gap_us.Add(failover.plan_stream_gap_us);
      pending_replan_stamp_ = false;
    }
    for (std::size_t m = 0; m < ctx_.machines.size(); ++m) {
      Machine& machine = *ctx_.machines[m];
      switch (machine.AcquireEpochCreditFor(kStallTimeout)) {
        case Machine::CreditGrant::kGranted:
          break;
        case Machine::CreditGrant::kGrantedAfterWait:
          ++credit_waits;
          TPART_TRACE(Instant("credit_wait", "pipeline", {{"machine", m}}));
          break;
        case Machine::CreditGrant::kTimedOut: {
          std::ostringstream out;
          out << "dissemination stalled acquiring an epoch credit for "
                 "machine "
              << m << ": " << machine.StallDiagnostic();
          // Credits are non-blocking after this (shutdown flag), so the
          // remaining stream still drains.
          ctx_.DeclareFault(out.str());
          break;
        }
      }
      ctx_.transport.Send(0, static_cast<MachineId>(m), std::move(slices[m]));
    }
    if (ctx_.options.resize.enabled()) {
      timeline.push_back(
          ClusterRunOutcome::EpochTick{epoch, UsSince(stream_t0_)});
    }
    // Epoch-domain samplers (tests pinning deterministic cadence to sink
    // epochs) tick here; wall-domain sampling rides its thread.
    if (ctx_.sampler != nullptr &&
        ctx_.sampler->domain() == obs::LiveSampler::Domain::kEpoch) {
      ctx_.sampler->TickEpoch(epoch);
    }
  }

  // ---- Zombie-leader revival (DESIGN §4j). The deposed leader wakes up
  // and replays its stale in-flight traffic: each machine's slice of the
  // round it was shipping when it was paused, a premature plan-stream-end
  // (the genuinely dangerous message — unfenced, it would truncate every
  // machine's stream), and a stale log append to the replica ensemble.
  // Wait until every machine has witnessed the new term (heartbeats,
  // rounds, and watermark probes all carry it) so the run proves the
  // *fence* rejects the zombie, not a lucky race.
  void ReviveZombie(SinkEpoch epoch) {
    zombie_pending_ = false;
    const std::uint64_t new_term =
        ctx_.current_term.load(std::memory_order_acquire);
    const auto fence_deadline = Clock::now() + kStallTimeout;
    for (std::size_t m = 0; m < ctx_.machines.size(); ++m) {
      while (ctx_.machines[m]->fence_term() < new_term) {
        if (Clock::now() > fence_deadline) {
          std::ostringstream out;
          out << "machine " << m << " never witnessed term " << new_term
              << " before the zombie revival (fence at "
              << ctx_.machines[m]->fence_term() << ")";
          ctx_.DeclareFault(out.str());
          break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    ++failover.zombie_revivals;
    TPART_FLIGHT(obs::FlightEvent::kZombieRevival, 0, zombie_term_, epoch);
    TPART_TRACE(Instant("zombie_revival", "fault",
                        {{"stale_term", zombie_term_}, {"epoch", epoch}}));
    for (std::size_t m = 0; m < ctx_.machines.size(); ++m) {
      ctx_.transport.Send(0, static_cast<MachineId>(m),
                          std::move(zombie_slices_[m]));
      Message stale_end;
      stale_end.type = Message::Type::kPlanStreamEnd;
      stale_end.epoch = zombie_end_epoch_;
      stale_end.term = zombie_term_;
      ctx_.transport.Send(0, static_cast<MachineId>(m), std::move(stale_end));
    }
    ctx_.coordinator->InjectStaleAppend(zombie_term_, zombie_leader_);
  }

  // Scheduled coordinator crash: fires after the first shipped round with
  // epoch >= the entry. Captures the leader index before the crash-stop —
  // the election moves it. `in_flight` holds the round's slices when the
  // crash is scheduled to revive, else nothing.
  void CrashCoordinator(SinkEpoch epoch, std::vector<Message> in_flight) {
    const SinkEpoch revive_at = coord_crashes_[coord_event_idx_].second;
    ++coord_event_idx_;
    crashed_leader_ = ctx_.coordinator->leader();
    ctx_.coordinator->CrashLeader();
    t_crash_ = Clock::now();
    ++failover.coordinator_crashes;
    TPART_FLIGHT(obs::FlightEvent::kCrashStop, 0, crashed_leader_, epoch);
    if (revive_at > 0) {
      // The "crashed" leader was only paused: stash the round it had in
      // flight (still stamped with the dying term) so the revival can
      // replay it once the next term is running. The stash epoch doubles
      // as the stale stream-end's epoch.
      zombie_pending_ = true;
      zombie_at_ = revive_at;
      zombie_term_ = ctx_.current_term.load(std::memory_order_acquire);
      zombie_leader_ = crashed_leader_;
      zombie_end_epoch_ = epoch;
      zombie_slices_ = std::move(in_flight);
    }
  }

  RunContext& ctx_;
  const Clock::time_point stream_t0_ = Clock::now();
  std::size_t steps_done_ = 0;
  // Coordinator crash schedule as sorted (crash, revive) epoch pairs.
  std::vector<std::pair<SinkEpoch, SinkEpoch>> coord_crashes_;
  std::size_t coord_event_idx_ = 0;
  std::size_t crashed_leader_ = 0;
  // Failover catch-up: per-machine dissemination watermarks and the
  // highest round the crashed leader shipped.
  std::vector<SinkEpoch> watermarks_ =
      std::vector<SinkEpoch>(ctx_.machines.size(), 0);
  SinkEpoch catchup_through_ = 0;
  Clock::time_point t_crash_ = stream_t0_;
  Clock::time_point t_term_start_ = stream_t0_;
  bool pending_replan_stamp_ = false;
  // Zombie revival (--crash seq@E+revive@E'): the deposed leader's last
  // in-flight round (one slice per machine), a premature stream-end, and a
  // stale log append are replayed under the old term once the new term's
  // stream reaches the revival epoch.
  bool zombie_pending_ = false;
  SinkEpoch zombie_at_ = 0;
  std::uint64_t zombie_term_ = 0;
  std::size_t zombie_leader_ = 0;
  SinkEpoch zombie_end_epoch_ = 0;
  std::vector<Message> zombie_slices_;
};

/// Runs one leader term end to end: admission and scheduling on their
/// own threads, dissemination on this one. Returns true if the scheduled
/// coordinator crash aborted the term (the caller fails over and reruns).
bool RunLeaderTerm(RunContext& ctx, Admission& admission,
                   Scheduling& scheduling, Disseminator& disseminator) {
  LeaderTerm term(ctx);
  std::thread admit([&] { admission.Run(term); });
  std::thread schedule([&] { scheduling.Run(term); });
  const bool aborted = disseminator.Run(term);
  admit.join();
  schedule.join();
  return aborted;
}

}  // namespace

ClusterRunOutcome LocalCluster::RunTPart() {
  const PipelineOptions& pipeline = options_.pipeline;
  TPART_CHECK(pipeline.epoch_queue_capacity >= 1)
      << "the epoch queue bounds rounds in flight per machine; it must "
         "admit at least one";
  const PartitionSchedule& partition = options_.transport.faults.partition;
  TPART_CHECK(!partition.Any() ||
              partition.MaxPartitionSpan() <= pipeline.epoch_queue_capacity)
      << "a partition window spans " << partition.MaxPartitionSpan()
      << " epochs but only " << pipeline.epoch_queue_capacity
      << " epoch credits can be in flight: dissemination would stall on "
         "a severed machine's credits before ever reaching the heal epoch";
  const LocalClusterOptions::CrashSchedule& crash = options_.crash;
  TPART_CHECK(crash.coordinator_at.empty() ||
              options_.coordinator.standbys > 0)
      << "coordinator crash injection requires coordinator.standbys >= 1";
  if (used_) Reset();
  used_ = true;
  NameTraceTracks(machines_.size());
  TPART_TRACE(SetThreadInfo(0, "dissemination"));

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

  RunContext ctx(options_, *workload_, *store_, *transport_, machines_,
                 coordinator_.get(), elastic_, checkpoints_);
  Watchdog watchdog(ctx, std::move(crash_scheduled));
  // Every hook is in place before any machine starts. Stall diagnostics
  // (DESIGN §4j) append the transport's per-link retry backlog and the
  // watchdog's latest suspicion snapshot.
  for (auto& m : machines_) {
    m->set_epoch_queue_capacity(pipeline.epoch_queue_capacity);
    m->set_commit_hook([&ctx](TxnId id) {
      const auto now = Clock::now();
      // Closes the admit->commit lifecycle span opened by admission.
      TPART_TRACE(AsyncEnd("txn", "lifecycle", id));
      std::lock_guard<std::mutex> lock(ctx.latency.mu);
      auto it = ctx.latency.admitted.find(id);
      if (it == ctx.latency.admitted.end()) return;
      ctx.latency.us.Add(UsSince(it->second, now));
      ctx.latency.admitted.erase(it);
    });
    m->set_diagnostic_context([&ctx, &watchdog]() {
      std::ostringstream out;
      const std::string links = ctx.transport.LinkDiagnostic();
      if (!links.empty()) out << " links{" << links << "}";
      const std::string suspicion = watchdog.Suspicion();
      if (!suspicion.empty()) out << " fd{" << suspicion << "}";
      return out.str();
    });
  }
  if (ctx.sampler != nullptr) InstallSamplerSource(ctx);
  for (auto& m : machines_) m->StartTPart();
  watchdog.Start();

  // ---- Coordinator replication (DESIGN §4i). With standbys configured,
  // the coordinator runs as a sequence of leader *terms*: a scheduled
  // leader crash aborts the term, a standby detects the silence and wins
  // the election, and the next term rebuilds all coordinator state by
  // deterministic replay of the committed request log — a fresh Sequencer
  // primed past it, a fresh TPartScheduler fed the replayed batches —
  // then resumes the plan stream exactly once (rounds at or below the
  // per-machine dissemination watermarks are skipped; the rest re-ship
  // and dedupe idempotently).
  if (coordinator_ != nullptr) coordinator_->Start();
  Admission admission(ctx);
  Scheduling scheduling(ctx);
  Disseminator disseminator(ctx);
  if (ctx.sampler != nullptr &&
      ctx.sampler->domain() == obs::LiveSampler::Domain::kWall) {
    ctx.sampler->StartWall(options_.sample_every_us);
  }
  while (RunLeaderTerm(ctx, admission, scheduling, disseminator)) {
    disseminator.FailOver();
  }
  disseminator.EndStream();

  // Machines go idle once the stream end reaches them (via the
  // transport's reliable delivery) and their queues drain; a crashed one
  // is waited for through its recovery.
  for (auto& m : machines_) m->JoinExecutor();
  watchdog.QuiesceAndStop();
  // The hooks capture this frame's run context and watchdog; no plan can
  // call them now, and the machines outlive this frame.
  for (auto& m : machines_) {
    m->set_commit_hook(nullptr);
    m->set_diagnostic_context(nullptr);
  }
  if (Status flushed = transport_->Flush(); !flushed.ok()) {
    ctx.DeclareFault("final flush: " + flushed.message());
  }
  if (ctx.sampler != nullptr) {
    // The source captures this frame's counters by reference: stop the
    // sampling thread and detach the source before they go out of scope.
    if (ctx.sampler->domain() == obs::LiveSampler::Domain::kWall) {
      ctx.sampler->StopWall();
    }
    ctx.sampler->ClearSource();
  }
  // Machine state (results, §5.4 log peaks) is loop-owned: read it only
  // once every loop has stopped.
  StopAll();

  ClusterRunOutcome outcome = CollectResults(/*dedup_participants=*/false);
  outcome.transport = transport_->stats();
  outcome.pipeline.admitted = ctx.admitted;
  outcome.pipeline.dummies = admission.dummies;
  outcome.pipeline.batches = admission.batches;
  outcome.pipeline.plans = ctx.plans;
  outcome.pipeline.backpressure_waits =
      admission.waits + scheduling.waits + disseminator.credit_waits;
  outcome.pipeline.batch_queue_high_water = admission.queue_high_water;
  outcome.pipeline.plan_queue_high_water = scheduling.queue_high_water;
  for (const auto& m : machines_) {
    outcome.pipeline.epoch_queue_high_water =
        std::max<std::uint64_t>(outcome.pipeline.epoch_queue_high_water,
                                m->epoch_queue_high_water());
    outcome.pipeline.machine_inbound_high_water =
        std::max<std::uint64_t>(outcome.pipeline.machine_inbound_high_water,
                                m->inbound_queue_high_water());
  }
  outcome.pipeline.admission_seconds = admission.seconds;
  outcome.pipeline.admit_to_commit_us = ctx.latency.us;
  {
    std::lock_guard<std::mutex> lock(ctx.fault_mu);
    outcome.fault = ctx.fault;
  }
  outcome.recovery = watchdog.stats();  // joined; no concurrent writer
  // Checkpoint / log-footprint accounting: counters sum over machines,
  // byte peaks are maxima (the footprint claim is per-machine).
  for (std::size_t m = 0; m < checkpoints_.size(); ++m) {
    const MachineCheckpoint& cp = *checkpoints_[m];
    outcome.checkpoint.checkpoints_taken += cp.captures_taken;
    outcome.checkpoint.last_epoch =
        std::max(outcome.checkpoint.last_epoch, cp.epoch());
    outcome.checkpoint.records_captured += cp.records_captured;
    outcome.checkpoint.state_keys_captured += cp.state_keys_captured;
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
  // Migration accounting: barrier-side counters from the dissemination
  // stage plus the per-machine wire counters (source capture / target
  // install sides).
  outcome.migration = disseminator.migration;
  outcome.timeline = std::move(disseminator.timeline);
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
  FailoverStats& failover = outcome.failover = disseminator.failover;
  failover.replayed_batches = scheduling.replayed_batches;
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
  return outcome;
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
  for (auto& m : machines_) {
    m->FinishEnqueue();
    m->StartCalvin();
  }
  for (auto& m : machines_) m->JoinExecutor();
  const Status flushed = transport_->Flush();
  StopAll();
  ClusterRunOutcome outcome = CollectResults(/*dedup_participants=*/true);
  outcome.fault = flushed;
  outcome.transport = transport_->stats();
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
