// Adversarial runtime stress: workloads with shapes the generators don't
// normally produce — write-only transactions, empty transactions,
// single-key global hotspots, long read chains, immediate
// delete/recreate — executed through the T-Part runtime and compared
// with the serial reference.

#include <gtest/gtest.h>

#include "common/random.h"
#include "exec/serial_executor.h"
#include "runtime/cluster.h"
#include "workload/workload.h"

namespace tpart {
namespace {

constexpr ProcId kStressProc = 900;

// Same parameter scheme as the Microbenchmark: reads, then writes chosen
// among them, plus a mode selecting pathological behaviours.
// params: [mode, R, r..., W, w...]
Status StressProc(TxnContext& ctx) {
  const auto& p = ctx.params();
  const std::int64_t mode = p[0];
  const auto nreads = static_cast<std::size_t>(p[1]);
  std::int64_t acc = mode;
  std::vector<std::pair<ObjectKey, Record>> values;
  for (std::size_t i = 0; i < nreads; ++i) {
    const auto key = static_cast<ObjectKey>(p[2 + i]);
    TPART_ASSIGN_OR_RETURN(Record r, ctx.Get(key));
    if (!r.is_absent()) acc += r.field(0);
    values.emplace_back(key, std::move(r));
  }
  ctx.EmitOutput(acc);
  const std::size_t woff = 2 + nreads;
  const auto nwrites = static_cast<std::size_t>(p[woff]);
  for (std::size_t i = 0; i < nwrites; ++i) {
    const auto key = static_cast<ObjectKey>(p[woff + 1 + i]);
    if (mode == 3) {
      // Deleting transaction.
      TPART_RETURN_IF_ERROR(ctx.Put(key, Record::Absent()));
    } else {
      TPART_RETURN_IF_ERROR(ctx.Put(key, Record{acc + (std::int64_t)i}));
    }
  }
  if (mode == 4) return Status::Aborted("mode-4 always aborts");
  return Status::Ok();
}

Workload MakeStressWorkload(std::uint64_t seed, std::size_t machines,
                            std::size_t txns) {
  Workload w;
  w.name = "stress";
  w.num_machines = machines;
  w.partition_map = std::make_shared<HashPartitionMap>(machines);
  w.procedures = std::make_shared<ProcedureRegistry>();
  w.procedures->Register(kStressProc, "stress", StressProc);
  constexpr std::uint64_t kKeys = 40;  // tiny key space -> extreme conflict
  w.loader = [](PartitionedStore& store) {
    for (std::uint64_t k = 0; k < kKeys / 2; ++k) {
      store.Upsert(k, Record{(std::int64_t)k});  // other half starts absent
    }
  };

  Rng rng(seed);
  for (std::size_t t = 0; t < txns; ++t) {
    TxnSpec spec;
    spec.proc = kStressProc;
    const std::uint64_t mode = rng.NextBelow(5);
    KeySet reads, writes;
    switch (mode) {
      case 0: {  // plain read-modify-write on the hotspot key 0
        reads = {0, rng.NextBelow(kKeys)};
        writes = {0};
        break;
      }
      case 1: {  // read-only fan
        for (int i = 0; i < 6; ++i) reads.push_back(rng.NextBelow(kKeys));
        break;
      }
      case 2: {  // blind-ish write burst (writes still read, §5.3)
        for (int i = 0; i < 4; ++i) writes.push_back(rng.NextBelow(kKeys));
        reads = writes;
        break;
      }
      case 3: {  // delete then later recreate
        const ObjectKey k = rng.NextBelow(kKeys);
        reads = {k};
        writes = {k};
        break;
      }
      case 4: {  // aborting transaction with writes
        reads = {1, 2};
        writes = {1, 2};
        break;
      }
    }
    NormalizeKeySet(reads);
    NormalizeKeySet(writes);
    spec.params = {static_cast<std::int64_t>(mode),
                   static_cast<std::int64_t>(reads.size())};
    for (const ObjectKey k : reads) {
      spec.params.push_back(static_cast<std::int64_t>(k));
    }
    spec.params.push_back(static_cast<std::int64_t>(writes.size()));
    for (const ObjectKey k : writes) {
      spec.params.push_back(static_cast<std::int64_t>(k));
    }
    spec.rw.reads = reads;
    spec.rw.writes = writes;
    w.requests.push_back(std::move(spec));
  }
  return w;
}

class StressSweep : public ::testing::TestWithParam<int> {};

TEST_P(StressSweep, RuntimeMatchesSerialUnderPathologicalShapes) {
  const Workload w =
      MakeStressWorkload(static_cast<std::uint64_t>(GetParam()), 3, 400);

  auto one = std::make_shared<HashPartitionMap>(1);
  PartitionedStore reference(1, one);
  PartitionedStore scratch(w.num_machines, w.partition_map);
  w.loader(scratch);
  for (auto& [k, rec] : scratch.Snapshot()) reference.Upsert(k, rec);
  auto serial =
      RunSerial(*w.procedures, w.SequencedRequests(), reference.store(0));
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  LocalClusterOptions opts;
  opts.scheduler.sink_size = 10;
  LocalCluster cluster(&w, opts);
  const ClusterRunOutcome outcome = cluster.RunTPart();
  ASSERT_EQ(outcome.results.size(), serial->results.size());
  for (std::size_t i = 0; i < outcome.results.size(); ++i) {
    ASSERT_EQ(outcome.results[i].committed, serial->results[i].committed);
    ASSERT_EQ(outcome.results[i].output, serial->results[i].output)
        << "T" << outcome.results[i].id;
  }
  EXPECT_EQ(cluster.store().Snapshot(), reference.Snapshot());
}

INSTANTIATE_TEST_SUITE_P(Seeds, StressSweep,
                         ::testing::Values(101, 202, 303, 404));

}  // namespace
}  // namespace tpart
