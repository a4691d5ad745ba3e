#include "scheduler/tpart_scheduler.h"

#include <chrono>

#include "elastic/migration.h"
#include "obs/trace.h"
#include "partition/streaming_greedy.h"
#include "scheduler/plan_optimizer.h"

namespace tpart {

TPartScheduler::TPartScheduler(
    Options options, std::shared_ptr<const DataPartitionMap> data_map,
    std::shared_ptr<GraphPartitioner> partitioner)
    : options_(options),
      graph_(options.graph, std::move(data_map)),
      partitioner_(partitioner != nullptr
                       ? std::move(partitioner)
                       : std::make_shared<StreamingGreedyPartitioner>()) {}

std::vector<SinkPlan> TPartScheduler::OnTxn(const TxnSpec& spec) {
  {
    TPART_TRACE_SPAN("tgraph_insert", "scheduler", {{"txn", spec.id}});
    TrackFrequencies(spec);
    graph_.AddTxn(spec);
  }
  max_tgraph_size_ = std::max(max_tgraph_size_, graph_.num_unsunk());
  TPART_TRACE(Counter("tgraph_unsunk", graph_.num_unsunk()));
  return MaybeSink();
}

void TPartScheduler::TrackFrequencies(const TxnSpec& spec) {
  if (spec.is_dummy) return;
  bool exact = false;
  if (options_.elastic != nullptr) {
    // Only worth the hash traffic while a hot-key step is still pending —
    // and migration placement needs the exact counts.
    for (std::size_t i = applied_steps_; i < options_.elastic->num_steps();
         ++i) {
      if (options_.elastic->step(i).policy == MigrationPolicy::kHotKey) {
        exact = true;
        break;
      }
    }
  }
  if (!exact) {
    if (!options_.track_key_frequencies) return;
    // The live hot-key gauge only needs an estimate of the hottest key's
    // access share: stride-sample transactions so the map traffic stays
    // off the scheduler's per-access hot path. Sequential txn ids make
    // the stride deterministic.
    if (spec.id % 16 != 0) return;
  }
  for (const ObjectKey key : spec.rw.reads) ++key_freq_[key];
  for (const ObjectKey key : spec.rw.writes) ++key_freq_[key];
}

std::pair<ObjectKey, double> TPartScheduler::HottestKey() const {
  ObjectKey hot = 0;
  std::uint64_t hot_count = 0;
  std::uint64_t total = 0;
  for (const auto& [key, count] : key_freq_) {
    total += count;
    if (count > hot_count || (count == hot_count && key < hot)) {
      hot = key;
      hot_count = count;
    }
  }
  if (total == 0) return {0, 0.0};
  return {hot, static_cast<double>(hot_count) / static_cast<double>(total)};
}

void TPartScheduler::MaybeApplyMembershipStep() {
  ElasticPartitionMap* elastic = options_.elastic.get();
  if (elastic == nullptr || applied_steps_ >= elastic->num_steps()) return;
  const MembershipStep& next = elastic->step(applied_steps_);
  if (next_epoch_ != next.cut_epoch + 1) return;
  const std::size_t version = applied_steps_ + 1;
  if (next.policy == MigrationPolicy::kHotKey) {
    std::vector<std::pair<ObjectKey, std::uint64_t>> freq(key_freq_.begin(),
                                                          key_freq_.end());
    FillHotKeyOverrides(elastic->mutable_step(applied_steps_), freq, *elastic,
                        version);
  }
  // Overrides are final before the publish: Advance() release-publishes
  // the version, after which concurrent Locate() calls may fold this step.
  elastic->Advance();
  graph_.Rehome(next.n_after);
  ++applied_steps_;
  TPART_TRACE(Counter("membership_steps", applied_steps_));
}

std::vector<SinkPlan> TPartScheduler::MaybeSink() {
  std::vector<SinkPlan> plans;
  while (graph_.num_unsunk() >= 2 * options_.sink_size) {
    plans.push_back(SinkRound(options_.sink_size));
  }
  return plans;
}

std::vector<SinkPlan> TPartScheduler::Drain() {
  std::vector<SinkPlan> plans;
  while (graph_.num_unsunk() > 0) {
    plans.push_back(
        SinkRound(std::min(options_.sink_size, graph_.num_unsunk())));
  }
  return plans;
}

SinkPlan TPartScheduler::SinkRound(std::size_t count) {
  TPART_TRACE_SPAN("sink_round", "scheduler",
                   {{"epoch", next_epoch_}, {"count", count}});
  MaybeApplyMembershipStep();
  const auto start = std::chrono::steady_clock::now();
  {
    TPART_TRACE_SPAN("partition", "scheduler",
                     {{"unsunk", graph_.num_unsunk()}});
    partitioner_->Partition(graph_);
  }
  SinkPlan plan = graph_.Sink(count, next_epoch_++);
  if (options_.optimize_plans) {
    pushes_eliminated_ += OptimizeSinkPlan(plan);
  }
  scheduling_seconds_ +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return plan;
}

}  // namespace tpart
