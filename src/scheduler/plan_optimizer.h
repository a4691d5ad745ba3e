#ifndef TPART_SCHEDULER_PLAN_OPTIMIZER_H_
#define TPART_SCHEDULER_PLAN_OPTIMIZER_H_

#include <cstddef>

#include "scheduler/push_plan.h"

namespace tpart {

/// Plan optimisation (§4.3): "the scheduler can optimize the plan by
/// eliminating the cross-partition edges if local reads are possible",
/// e.g. replacing the remote push T1 -> T5 with a local hand-off from T2,
/// which read the same version on T5's machine.
///
/// For every kPush read whose version is also read by an earlier batch
/// transaction on the reader's machine, the push is dropped and the
/// co-located transaction relays the version locally instead. Aborting
/// relays are safe: an aborted transaction still pushes forward the data
/// it read (§5.3).
///
/// `plan.txns` must be in total order, as TGraph::Sink emits them.
/// Returns the number of remote pushes eliminated.
std::size_t OptimizeSinkPlan(SinkPlan& plan);

}  // namespace tpart

#endif  // TPART_SCHEDULER_PLAN_OPTIMIZER_H_
