// Implementation of TGraph::Sink — the sinking process (§3.3), push-plan
// generation (§3.3, §5.2), the forward-push -> cache-access edge
// transformation (§3.4), and write-back duty assignment (§4.2).

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "tgraph/tgraph.h"

namespace tpart {

SinkPlan TGraph::Sink(std::size_t count, SinkEpoch epoch) {
  TPART_CHECK(epoch == last_epoch_ + 1)
      << "sink epochs must be consecutive (got " << epoch << " after "
      << last_epoch_ << ")";
  last_epoch_ = epoch;
  count = std::min(count, nodes_.size());

  SinkPlan plan;
  plan.epoch = epoch;
  if (count == 0) return plan;

  const TxnId last_sunk = first_id_ + count - 1;
  std::vector<TxnPlan> slots(count);
  for (std::size_t i = 0; i < count; ++i) {
    TxnNode& n = nodes_[i];
    if (n.assigned == kInvalidMachine) {
      TPART_CHECK(n.is_dummy) << "sinking unassigned transaction T" << n.id;
      n.assigned = 0;
    }
    slots[i].txn = n.id;
    slots[i].machine = n.assigned;
    slots[i].num_reads = n.num_reads;
    slots[i].num_writes = n.num_writes;
  }
  auto slot_of = [&](TxnId id) -> TxnPlan& {
    return slots[static_cast<std::size_t>(id - first_id_)];
  };

  // ---- Pass 1: reads. Each batch transaction's in-edges become ReadSteps;
  // forward-push edges simultaneously append the matching Push /
  // LocalVersion step to their source transaction's plan.
  for (std::size_t i = 0; i < count; ++i) {
    const TxnNode& n = nodes_[i];
    if (n.is_dummy) continue;
    const TxnId v = n.id;
    TxnPlan& p = slots[i];
    for (const std::size_t eid : n.edges) {
      const TEdge* found = FindEdge(eid);
      if (found == nullptr) continue;
      const TEdge& e = *found;
      if (e.stale || e.dst_txn != v) continue;

      ReadStep r;
      r.key = e.key;
      r.src_txn = e.src_txn;
      r.provider_txn = e.src_txn;
      switch (e.kind) {
        case EdgeKind::kForwardPush: {
          TPART_CHECK(e.src_txn >= first_id_ && e.src_txn <= last_sunk)
              << "forward-push edge from non-batch source T" << e.src_txn;
          TxnPlan& src_plan = slot_of(e.src_txn);
          r.src_machine = src_plan.machine;
          if (src_plan.machine == p.machine) {
            r.kind = ReadSourceKind::kLocalVersion;
            src_plan.local_versions.push_back(
                LocalVersionStep{e.key, v, e.src_txn});
          } else {
            r.kind = ReadSourceKind::kPush;
            src_plan.pushes.push_back(
                PushStep{e.key, v, p.machine, e.src_txn});
          }
          break;
        }
        case EdgeKind::kCacheRead: {
          auto ce = cache_entries_.find({e.key, e.src_txn});
          TPART_CHECK(ce != cache_entries_.end())
              << "missing cache entry for key " << e.key << " v" << e.src_txn;
          CacheEntryState& entry = ce->second;
          auto& readers = entry.unsunk_readers;
          readers.erase(std::remove(readers.begin(), readers.end(), v),
                        readers.end());
          r.kind = entry.machine == p.machine ? ReadSourceKind::kCacheLocal
                                              : ReadSourceKind::kCacheRemote;
          r.src_machine = entry.machine;
          r.cache_epoch = entry.epoch;
          ++entry.reads_planned;
          if (readers.empty()) {
            const ObjectState& st = objects_[e.key];
            const bool is_current = st.loc == Loc::kCache &&
                                    st.version_writer == e.src_txn;
            if (!is_current) {
              // Superseded version: last reader frees the entry (§5.2);
              // no write-back needed (writing-back-the-latest, §4.2).
              r.invalidate_entry = true;
              r.entry_total_reads = entry.reads_planned;
              cache_entries_.erase(ce);
            }
            // Otherwise the write-back pass below invalidates it.
          }
          break;
        }
        case EdgeKind::kStorageRead: {
          r.kind = ReadSourceKind::kStorage;
          r.src_machine = e.sink;
          r.storage_min_epoch = e.storage_min_epoch;
          r.sticky_hint =
              options_.sticky_cache && e.src_txn != kInvalidTxnId;
          break;
        }
        case EdgeKind::kStorageWrite:
          continue;  // out-edge; handled in pass 3
      }
      p.reads.push_back(r);
    }
  }

  // ---- Pass 2: versions written by batch transactions that still have
  // unsunk readers. T-Part publishes them as cache entries and transforms
  // the dangling forward-push edges into cache-read edges (§3.4). In
  // G-Store emulation (always_write_back) the version is instead written
  // back immediately and the readers become storage readers.
  for (std::size_t i = 0; i < count; ++i) {
    const TxnNode& n = nodes_[i];
    if (n.is_dummy) continue;
    const TxnId w = n.id;
    // (key, edge) pairs grouped by key; the stable sort reproduces the
    // old std::map iteration (ascending key, edges in discovery order
    // within a key), so plan bytes are unchanged.
    using StrandedEdge = std::pair<ObjectKey, std::size_t>;
    std::vector<StrandedEdge>& stranded = stranded_;
    stranded.clear();
    for (const std::size_t eid : n.edges) {
      const TEdge* e = FindEdge(eid);
      if (e == nullptr || e->stale || e->kind != EdgeKind::kForwardPush) {
        continue;
      }
      if (e->src_txn == w && e->dst_txn > last_sunk) {
        stranded.emplace_back(e->key, eid);
      }
    }
    std::stable_sort(
        stranded.begin(), stranded.end(),
        [](const StrandedEdge& a, const StrandedEdge& b) {
          return a.first < b.first;
        });
    for (std::size_t lo = 0; lo < stranded.size();) {
      std::size_t hi = lo + 1;
      while (hi < stranded.size() && stranded[hi].first == stranded[lo].first) {
        ++hi;
      }
      const ObjectKey key = stranded[lo].first;
      ObjectState& st = objects_[key];
      const MachineId machine = slots[i].machine;
      if (!options_.always_write_back) {
        slots[i].cache_publishes.push_back(CachePublishStep{key, epoch});
        CacheEntryState entry;
        entry.machine = machine;
        entry.epoch = epoch;
        entry.dirty = true;
        for (std::size_t si = lo; si < hi; ++si) {
          TEdge& e = *FindEdge(stranded[si].second);
          entry.unsunk_readers.push_back(e.dst_txn);
          e.kind = EdgeKind::kCacheRead;
          e.sink = machine;
          e.cache_epoch = epoch;
          // Weight unchanged: "the partitioning will be unchanged if the
          // cache-read edges have the same weights as those of the
          // corresponding forward-push edges" (§3.4).
        }
        std::sort(entry.unsunk_readers.begin(), entry.unsunk_readers.end());
        cache_entries_[{key, w}] = std::move(entry);
        if (st.loc == Loc::kUnsunkTxn && st.version_writer == w) {
          st.loc = Loc::kCache;
          st.cache_machine = machine;
          st.cache_epoch = epoch;
        }
      } else {
        WriteBackStep wb;
        wb.key = key;
        wb.home = data_map_->Locate(key);
        wb.version_txn = w;
        wb.make_sticky = options_.sticky_cache;
        wb.readers_to_await = st.storage_readers_since_wb;
        wb.replaces_version = st.storage_version;
        slots[i].write_backs.push_back(wb);
        st.storage_readers_since_wb = 0;
        st.storage_version = wb.version_txn;
        for (std::size_t si = lo; si < hi; ++si) {
          TEdge& e = *FindEdge(stranded[si].second);
          e.kind = EdgeKind::kStorageRead;
          e.sink = wb.home;
          e.storage_min_epoch = epoch;
          e.weight = options_.storage_read_weight;
          ++st.storage_readers_since_wb;
        }
        st.write_back_epoch = epoch;
        if (st.loc == Loc::kUnsunkTxn && st.version_writer == w) {
          st.loc = Loc::kStorage;
          st.dirty = false;
          if (st.wb_edge != kNoEdge) {
            if (TEdge* wb_edge = FindEdge(st.wb_edge)) wb_edge->stale = true;
            st.wb_edge = kNoEdge;
          }
        }
      }
      lo = hi;
    }
  }

  // ---- Pass 3: write-backs. A live storage-write edge owned by a batch
  // transaction means the dirty object's latest accessor is being sunk
  // with no remaining readers: it writes the version back (§4.2) and
  // frees any cache entry holding it.
  for (std::size_t i = 0; i < count; ++i) {
    const TxnNode& n = nodes_[i];
    if (n.is_dummy) continue;
    const TxnId a = n.id;
    for (const std::size_t eid : n.edges) {
      const TEdge* found = FindEdge(eid);
      if (found == nullptr) continue;
      const TEdge& e = *found;
      if (e.stale || e.kind != EdgeKind::kStorageWrite || e.src_txn != a) {
        continue;
      }
      ObjectState& st = objects_[e.key];
      if (st.wb_edge != eid) continue;  // superseded duty
      WriteBackStep wb;
      wb.key = e.key;
      wb.home = e.sink;
      wb.version_txn = st.version_writer;
      wb.make_sticky = options_.sticky_cache;
      wb.readers_to_await = st.storage_readers_since_wb;
      wb.replaces_version = st.storage_version;
      slots[i].write_backs.push_back(wb);
      st.storage_readers_since_wb = 0;
      st.storage_version = wb.version_txn;
      if (st.loc == Loc::kCache) {
        std::uint32_t total_reads = 0;
        auto ce = cache_entries_.find({e.key, st.version_writer});
        if (ce != cache_entries_.end()) {
          total_reads = ce->second.reads_planned;
          cache_entries_.erase(ce);
        }
        for (auto& r : slots[i].reads) {
          if (r.key == e.key && r.src_txn == st.version_writer &&
              (r.kind == ReadSourceKind::kCacheLocal ||
               r.kind == ReadSourceKind::kCacheRemote)) {
            r.invalidate_entry = true;
            r.entry_total_reads = total_reads;
            break;
          }
        }
      }
      st.loc = Loc::kStorage;
      st.dirty = false;
      st.write_back_epoch = epoch;
      st.wb_edge = kNoEdge;
    }
  }

  // ---- Pass 4: account sunk load into the sink nodes (§3.1; the
  // runtime never subtracts commits, see TGraph::sink_weight), emit the
  // plans of real transactions only ("the schedulers discard these dummy
  // requests when generating a push plan", §3.3), erase the sunk nodes'
  // dead edges, trim the ring's dead prefix and drop the nodes.
  plan.txns.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const TxnNode& n = nodes_[i];
    if (!n.is_dummy) {
      sink_weight_[n.assigned] += n.weight;
      plan.txns.push_back(std::move(slots[i]));
    }
    for (const std::size_t eid : n.edges) {
      TEdge* e = FindEdge(eid);
      if (e == nullptr) continue;
      bool dead = false;
      switch (e->kind) {
        case EdgeKind::kForwardPush:
        case EdgeKind::kStorageRead:
        case EdgeKind::kCacheRead:
          dead = e->dst_txn <= last_sunk;
          break;
        case EdgeKind::kStorageWrite:
          dead = e->stale || e->src_txn <= last_sunk;
          break;
      }
      if (dead) e->live = false;
    }
  }
  // Every edge AddTxn created for a sunk transaction died just now, so
  // the dead prefix is exactly the sunk transactions' edges.
  while (!edges_.empty() && !edges_.front().live) {
    edges_.pop_front();
    ++edge_base_;
  }
  nodes_.erase(nodes_.begin(),
               nodes_.begin() + static_cast<std::ptrdiff_t>(count));
  first_id_ += count;
  return plan;
}

}  // namespace tpart
