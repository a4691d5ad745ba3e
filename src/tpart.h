#ifndef TPART_TPART_H_
#define TPART_TPART_H_

/// Umbrella header: everything a downstream user needs to build and run a
/// T-Part (or Calvin-baseline) deterministic database, in dependency
/// order. Individual headers remain self-contained; include them directly
/// when compile time matters.

#include "common/random.h"    // IWYU pragma: export
#include "common/stats.h"     // IWYU pragma: export
#include "common/status.h"    // IWYU pragma: export
#include "common/types.h"     // IWYU pragma: export
#include "common/zipf.h"      // IWYU pragma: export

#include "storage/data_partition.h"      // IWYU pragma: export
#include "storage/kv_store.h"            // IWYU pragma: export
#include "storage/ordered_index.h"       // IWYU pragma: export
#include "storage/partitioned_store.h"   // IWYU pragma: export
#include "storage/record.h"              // IWYU pragma: export
#include "storage/table.h"               // IWYU pragma: export

#include "txn/procedure.h"  // IWYU pragma: export
#include "txn/rw_set.h"     // IWYU pragma: export
#include "txn/txn.h"        // IWYU pragma: export

#include "sequencer/batch.h"      // IWYU pragma: export
#include "sequencer/sequencer.h"  // IWYU pragma: export

#include "tgraph/edge_weight.h"  // IWYU pragma: export
#include "tgraph/tgraph.h"       // IWYU pragma: export

#include "partition/multilevel.h"         // IWYU pragma: export
#include "partition/partition_metrics.h"  // IWYU pragma: export
#include "partition/partitioner.h"        // IWYU pragma: export
#include "partition/pin_reduction.h"      // IWYU pragma: export
#include "partition/streaming_greedy.h"   // IWYU pragma: export

#include "scheduler/plan_optimizer.h"   // IWYU pragma: export
#include "scheduler/push_plan.h"        // IWYU pragma: export
#include "scheduler/tpart_scheduler.h"  // IWYU pragma: export

#include "cache/cache_area.h"      // IWYU pragma: export
#include "exec/serial_executor.h"  // IWYU pragma: export

#include "runtime/cluster.h"   // IWYU pragma: export
#include "runtime/recovery.h"  // IWYU pragma: export

#include "sim/calvin_sim.h"  // IWYU pragma: export
#include "sim/tpart_sim.h"   // IWYU pragma: export

#include "workload/micro.h"     // IWYU pragma: export
#include "workload/tpcc.h"      // IWYU pragma: export
#include "workload/tpce.h"      // IWYU pragma: export
#include "workload/workload.h"  // IWYU pragma: export

#include "baselines/gstore.h"  // IWYU pragma: export
#include "baselines/schism.h"  // IWYU pragma: export

#include "metrics/breakdown.h"  // IWYU pragma: export
#include "metrics/run_stats.h"  // IWYU pragma: export

#endif  // TPART_TPART_H_
