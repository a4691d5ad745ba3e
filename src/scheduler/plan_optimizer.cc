#include "scheduler/plan_optimizer.h"

#include <algorithm>
#include <tuple>
#include <vector>

namespace tpart {

namespace {

// Plan of `txn` in the round (plans are in total order), or nullptr.
TxnPlan* FindPlan(SinkPlan& plan, TxnId txn) {
  auto it = std::lower_bound(
      plan.txns.begin(), plan.txns.end(), txn,
      [](const TxnPlan& p, TxnId id) { return p.txn < id; });
  return it != plan.txns.end() && it->txn == txn ? &*it : nullptr;
}

// One transaction of the round that acquires version (key, version) on
// `machine` without a storage read.
struct Holder {
  ObjectKey key;
  TxnId version;
  TxnId txn;
  MachineId machine;

  bool operator<(const Holder& o) const {
    return std::tie(key, version, txn) < std::tie(o.key, o.version, o.txn);
  }
};

}  // namespace

std::size_t OptimizeSinkPlan(SinkPlan& plan) {
  // Only a remote push can be replaced by a relay.
  const bool any_push = std::any_of(
      plan.txns.begin(), plan.txns.end(), [](const TxnPlan& p) {
        return std::any_of(p.reads.begin(), p.reads.end(),
                           [](const ReadStep& r) {
                             return r.kind == ReadSourceKind::kPush;
                           });
      });
  if (!any_push) return 0;

  // Holders of each version, sorted by (key, version, txn): one group per
  // version, in total order within it.
  std::vector<Holder> holders;
  for (const auto& p : plan.txns) {
    for (const auto& r : p.reads) {
      if (r.kind == ReadSourceKind::kStorage) continue;
      holders.push_back(Holder{r.key, r.src_txn, p.txn, p.machine});
    }
  }
  std::sort(holders.begin(), holders.end());

  std::size_t eliminated = 0;
  for (auto& p : plan.txns) {
    for (auto& r : p.reads) {
      if (r.kind != ReadSourceKind::kPush) continue;
      // Earliest co-located holder preceding this reader.
      TxnId relay = kInvalidTxnId;
      for (auto it = std::lower_bound(
               holders.begin(), holders.end(),
               Holder{r.key, r.src_txn, kInvalidTxnId, kInvalidMachine});
           it != holders.end() && it->key == r.key &&
           it->version == r.src_txn && it->txn < p.txn;
           ++it) {
        if (it->machine == p.machine) {
          relay = it->txn;
          break;
        }
      }
      if (relay == kInvalidTxnId) continue;

      // Drop the writer's push to this reader.
      if (TxnPlan* writer = FindPlan(plan, r.src_txn)) {
        auto& pushes = writer->pushes;
        pushes.erase(std::remove_if(pushes.begin(), pushes.end(),
                                    [&](const PushStep& s) {
                                      return s.key == r.key &&
                                             s.dst_txn == p.txn;
                                    }),
                     pushes.end());
      }
      // The relay hands the version off locally.
      TxnPlan* relay_plan = FindPlan(plan, relay);
      if (relay_plan == nullptr) continue;
      relay_plan->local_versions.push_back(
          LocalVersionStep{r.key, p.txn, r.src_txn});
      r.kind = ReadSourceKind::kLocalVersion;
      r.provider_txn = relay;
      r.src_machine = p.machine;
      ++eliminated;
    }
  }
  return eliminated;
}

}  // namespace tpart
