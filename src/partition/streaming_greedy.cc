#include "partition/streaming_greedy.h"

#include <vector>

#include "obs/trace.h"

namespace tpart {

void StreamingGreedyPartitioner::Partition(TGraph& graph) {
  TPART_TRACE_SPAN("streaming_greedy", "scheduler",
                   {{"unsunk", graph.num_unsunk()}});
  const std::size_t k = graph.num_machines();
  std::vector<double> load(k);
  for (std::size_t m = 0; m < k; ++m) {
    load[m] = graph.sink_weight(static_cast<MachineId>(m));
  }

  // Unsunk ids are consecutive, so the pass walks them in total order.
  const TxnId first = graph.first_unsunk_id();
  const TxnId end = first + graph.num_unsunk();
  std::vector<double> affinity(k);
  for (TxnId id = first; id < end; ++id) {
    std::fill(affinity.begin(), affinity.end(), 0.0);
    // Only neighbours already (re)placed in this pass count as placed —
    // i.e. transactions earlier in the total order — plus sink nodes.
    graph.AccumulateAffinity(id, affinity);

    MachineId best = 0;
    if (options_.mode == Mode::kWeighted) {
      double best_score = affinity[0] - options_.beta * load[0];
      for (std::size_t m = 1; m < k; ++m) {
        const double score = affinity[m] - options_.beta * load[m];
        if (score > best_score ||
            (score == best_score && load[m] < load[best])) {
          best = static_cast<MachineId>(m);
          best_score = score;
        }
      }
    } else {
      // Algorithm 1: max affinity; tie -> lighter partition; tie ->
      // smaller machine id (ids ascend, so '>' strictly keeps the first).
      for (std::size_t m = 1; m < k; ++m) {
        if (affinity[m] > affinity[best] ||
            (affinity[m] == affinity[best] && load[m] < load[best])) {
          best = static_cast<MachineId>(m);
        }
      }
    }

    TxnNode& node = graph.mutable_node(id);
    node.assigned = best;
    load[best] += node.weight;
  }
}

}  // namespace tpart
