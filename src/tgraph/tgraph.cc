#include "tgraph/tgraph.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "common/logging.h"
#include "txn/rw_set.h"

namespace tpart {

TGraph::TGraph(Options options,
               std::shared_ptr<const DataPartitionMap> data_map)
    : options_(std::move(options)),
      data_map_(std::move(data_map)),
      sink_weight_(options_.num_machines, 0.0) {
  TPART_CHECK(options_.num_machines >= 1);
  TPART_CHECK(data_map_->num_partitions() >= options_.num_machines);
}

const TxnNode& TGraph::node(TxnId id) const {
  assert(HasNode(id));
  return nodes_[static_cast<std::size_t>(id - first_id_)];
}

TxnNode& TGraph::mutable_node(TxnId id) {
  assert(HasNode(id));
  return nodes_[static_cast<std::size_t>(id - first_id_)];
}

const TEdge& TGraph::edge(std::size_t edge_id) const {
  const TEdge* e = FindEdge(edge_id);
  TPART_CHECK(e != nullptr) << "edge " << edge_id << " is not live";
  return *e;
}

TEdge* TGraph::FindEdge(std::size_t edge_id) {
  if (edge_id < edge_base_ || edge_id - edge_base_ >= edges_.size()) {
    return nullptr;
  }
  TEdge& e = edges_[edge_id - edge_base_];
  return e.live ? &e : nullptr;
}

const TEdge* TGraph::FindEdge(std::size_t edge_id) const {
  return const_cast<TGraph*>(this)->FindEdge(edge_id);
}

std::size_t TGraph::AddEdge(const TEdge& edge) {
  edges_.push_back(edge);
  return edge_base_ + edges_.size() - 1;
}

void TGraph::MoveWriteBackEdge(ObjectState& st, ObjectKey key,
                               TxnId new_owner) {
  if (TEdge* old = FindEdge(st.wb_edge)) {  // kNoEdge finds nothing
    if (old->src_txn == new_owner) return;  // already owns the duty
    old->stale = true;
  }
  TEdge e;
  e.kind = EdgeKind::kStorageWrite;
  e.key = key;
  e.src_txn = new_owner;
  e.dst_txn = kInvalidTxnId;
  e.sink = data_map_->Locate(key);
  e.weight = options_.storage_write_weight;
  st.wb_edge = AddEdge(e);
  mutable_node(new_owner).edges.push_back(st.wb_edge);
}

void TGraph::AddTxn(const TxnSpec& spec) {
  TPART_CHECK(spec.id == next_expected_id_)
      << "non-consecutive txn id " << spec.id << " (expected "
      << next_expected_id_ << ")";
  ++next_expected_id_;

  nodes_.push_back(TxnNode{});
  TxnNode& node = nodes_.back();
  node.id = spec.id;
  node.is_dummy = spec.is_dummy;
  node.num_reads = static_cast<std::uint32_t>(spec.rw.reads.size());
  node.num_writes = static_cast<std::uint32_t>(spec.rw.writes.size());
  node.weight = spec.is_dummy ? 0.0 : spec.node_weight;
  if (spec.is_dummy) return;

  const TxnId v = spec.id;

  // §5.3: a transaction reads the objects it writes so that, on a logic
  // abort, it can push the (old) read data forward unchanged.
  KeySet own_writes_read;
  if (options_.read_own_writes) own_writes_read = spec.rw.AllKeys();
  const KeySet& effective_reads =
      options_.read_own_writes ? own_writes_read : spec.rw.reads;

  // Each read contributes at most one edge id; each access of a dirty
  // object can additionally move a write-back edge here.
  node.edges.reserve(effective_reads.size() + spec.rw.writes.size() +
                     spec.rw.reads.size());

  for (const ObjectKey o : effective_reads) {
    ObjectState& st = StateOf(o);
    TEdge e;
    e.key = o;
    e.dst_txn = v;
    switch (st.loc) {
      case Loc::kUnsunkTxn: {
        // reading-from-the-earliest (§4.2): source is the version writer.
        e.kind = EdgeKind::kForwardPush;
        e.src_txn = st.version_writer;
        e.weight = options_.push_weight->Weight(st.version_writer, v);
        const std::size_t id = AddEdge(e);
        node.edges.push_back(id);
        mutable_node(st.version_writer).edges.push_back(id);
        break;
      }
      case Loc::kCache: {
        e.kind = EdgeKind::kCacheRead;
        e.src_txn = st.version_writer;
        e.sink = st.cache_machine;
        e.cache_epoch = st.cache_epoch;
        // Same weight as the forward-push edge it replaced (§3.4).
        e.weight = options_.push_weight->Weight(st.version_writer, v);
        const std::size_t id = AddEdge(e);
        node.edges.push_back(id);
        cache_entries_[{o, st.version_writer}].unsunk_readers.push_back(v);
        break;
      }
      case Loc::kStorage: {
        e.kind = EdgeKind::kStorageRead;
        e.src_txn = st.version_writer;  // 0 for the initially loaded version
        e.sink = data_map_->Locate(o);
        e.storage_min_epoch = st.write_back_epoch;
        e.weight = options_.storage_read_weight;
        const std::size_t id = AddEdge(e);
        node.edges.push_back(id);
        ++st.storage_readers_since_wb;
        break;
      }
    }
    // writing-back-the-latest (§4.2): the storage-write duty for a dirty
    // object follows its latest accessor (cf. T6 writing back C, Fig. 3).
    if (st.dirty) MoveWriteBackEdge(st, o, v);
  }

  for (const ObjectKey o : spec.rw.writes) {
    ObjectState& st = StateOf(o);
    st.version_writer = v;
    st.loc = Loc::kUnsunkTxn;
    st.dirty = true;
    MoveWriteBackEdge(st, o, v);
  }
}

void TGraph::Rehome(std::size_t new_n) {
  TPART_CHECK(new_n >= 1);
  TPART_CHECK(data_map_->num_partitions() >= new_n)
      << "membership " << new_n << " exceeds the map's machine slots";
  options_.num_machines = new_n;
  if (sink_weight_.size() < new_n) sink_weight_.resize(new_n, 0.0);
  for (TEdge& e : edges_) {
    if (!e.live || e.stale) continue;
    if (e.kind == EdgeKind::kStorageRead ||
        e.kind == EdgeKind::kStorageWrite) {
      e.sink = data_map_->Locate(e.key);
    }
  }
  for (auto& n : nodes_) {
    if (n.assigned != kInvalidMachine &&
        n.assigned >= static_cast<MachineId>(new_n)) {
      n.assigned = kInvalidMachine;
    }
  }
}

void TGraph::ForEachUnsunk(
    const std::function<void(const TxnNode&)>& fn) const {
  for (const auto& n : nodes_) fn(n);
}

void TGraph::AccumulateAffinity(TxnId id,
                                std::vector<double>& affinity) const {
  const TxnNode& n = node(id);
  for (const std::size_t eid : n.edges) {
    const TEdge* found = FindEdge(eid);
    if (found == nullptr) continue;
    const TEdge& e = *found;
    if (e.stale) continue;
    if (e.kind == EdgeKind::kForwardPush) {
      // Only the source of a forward push precedes the node, and it is
      // unsunk whenever the edge is still a push.
      if (e.src_txn == id || !HasNode(e.src_txn)) continue;
      const MachineId m = node(e.src_txn).assigned;
      if (m == kInvalidMachine) continue;
      affinity[m] += e.weight;
    } else if (e.sink < affinity.size()) {
      // A cache-read edge may point at a holder outside the current
      // membership after a shrink (a zombie still serving residual
      // pulls); it then exerts no placement pull.
      affinity[e.sink] += e.weight;
    }
  }
}

double TGraph::CutWeight() const {
  double cut = 0.0;
  for (const TEdge& e : edges_) {
    if (!e.live || e.stale) continue;
    MachineId a = kInvalidMachine;
    MachineId b = kInvalidMachine;
    if (e.kind == EdgeKind::kForwardPush) {
      if (!HasNode(e.src_txn) || !HasNode(e.dst_txn)) continue;
      a = node(e.src_txn).assigned;
      b = node(e.dst_txn).assigned;
    } else if (e.kind == EdgeKind::kStorageWrite) {
      if (!HasNode(e.src_txn)) continue;
      a = node(e.src_txn).assigned;
      b = e.sink;
    } else {
      if (!HasNode(e.dst_txn)) continue;
      a = node(e.dst_txn).assigned;
      b = e.sink;
    }
    if (a == kInvalidMachine || b == kInvalidMachine) continue;
    if (a != b) cut += e.weight;
  }
  return cut;
}

std::vector<double> TGraph::AssignedLoad() const {
  std::vector<double> load(options_.num_machines, 0.0);
  for (const auto& n : nodes_) {
    if (n.assigned != kInvalidMachine) load[n.assigned] += n.weight;
  }
  return load;
}

TGraph::Snapshot TGraph::ExportSnapshot() const {
  Snapshot snap;
  const std::size_t k = options_.num_machines;
  const std::size_t total = k + nodes_.size();
  snap.vertex_weight.resize(total, 0.0);
  snap.fixed.assign(total, -1);
  snap.adj.resize(total);
  snap.vertex_txn.resize(total, kInvalidTxnId);

  for (std::size_t m = 0; m < k; ++m) {
    snap.vertex_weight[m] = sink_weight_[m];
    snap.fixed[m] = static_cast<int>(m);
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    snap.vertex_weight[k + i] = nodes_[i].weight;
    snap.vertex_txn[k + i] = nodes_[i].id;
  }

  auto vtx_of_txn = [&](TxnId id) {
    return static_cast<int>(k + (id - first_id_));
  };

  // Merge parallel edges via a temporary map per vertex at the end; here
  // we just append, then coalesce.
  for (const TEdge& e : edges_) {
    if (!e.live || e.stale) continue;
    int u, v;
    if (e.kind == EdgeKind::kForwardPush) {
      if (!HasNode(e.src_txn) || !HasNode(e.dst_txn)) continue;
      u = vtx_of_txn(e.src_txn);
      v = vtx_of_txn(e.dst_txn);
    } else if (e.kind == EdgeKind::kStorageWrite) {
      if (!HasNode(e.src_txn)) continue;
      if (e.sink >= k) continue;  // zombie holder after a shrink
      u = vtx_of_txn(e.src_txn);
      v = static_cast<int>(e.sink);
    } else {
      if (!HasNode(e.dst_txn)) continue;
      if (e.sink >= k) continue;  // zombie holder after a shrink
      u = static_cast<int>(e.sink);
      v = vtx_of_txn(e.dst_txn);
    }
    snap.adj[static_cast<std::size_t>(u)].emplace_back(v, e.weight);
    snap.adj[static_cast<std::size_t>(v)].emplace_back(u, e.weight);
  }

  for (auto& nbrs : snap.adj) {
    std::sort(nbrs.begin(), nbrs.end());
    std::size_t out = 0;
    for (std::size_t i = 0; i < nbrs.size();) {
      int target = nbrs[i].first;
      double w = 0.0;
      while (i < nbrs.size() && nbrs[i].first == target) {
        w += nbrs[i].second;
        ++i;
      }
      nbrs[out++] = {target, w};
    }
    nbrs.resize(out);
  }
  return snap;
}

bool TGraph::CheckInvariants(std::string* why) const {
  auto fail = [&](const std::string& msg) {
    if (why != nullptr) *why = msg;
    return false;
  };
  if (!edges_.empty() && !edges_.front().live) {
    return fail("edge ring keeps a dead prefix");
  }
  std::unordered_map<ObjectKey, std::size_t> live_wb;
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    const TEdge& e = edges_[i];
    const std::size_t eid = edge_base_ + i;
    if (!e.live) continue;
    if (e.stale) {
      if (!HasNode(e.src_txn)) {
        return fail("stale storage-write edge outlived its owner");
      }
      continue;
    }
    switch (e.kind) {
      case EdgeKind::kForwardPush:
        if (!HasNode(e.src_txn) || !HasNode(e.dst_txn)) {
          return fail("live push edge with sunk endpoint");
        }
        if (e.src_txn >= e.dst_txn) {
          return fail("push edge not forward in the total order");
        }
        break;
      case EdgeKind::kCacheRead: {
        if (!HasNode(e.dst_txn)) {
          return fail("live cache-read edge to sunk reader");
        }
        auto it = cache_entries_.find({e.key, e.src_txn});
        if (it == cache_entries_.end()) {
          return fail("cache-read edge without a cache entry");
        }
        if (it->second.machine != e.sink) {
          return fail("cache-read edge points at the wrong machine");
        }
        const auto& readers = it->second.unsunk_readers;
        if (std::find(readers.begin(), readers.end(), e.dst_txn) ==
            readers.end()) {
          return fail("cache-read edge reader not registered on entry");
        }
        break;
      }
      case EdgeKind::kStorageRead:
        if (!HasNode(e.dst_txn)) {
          return fail("live storage-read edge to sunk reader");
        }
        break;
      case EdgeKind::kStorageWrite: {
        if (!HasNode(e.src_txn)) {
          return fail("live storage-write edge owned by sunk node");
        }
        auto [it, inserted] = live_wb.emplace(e.key, eid);
        if (!inserted) {
          return fail("two live storage-write edges for one object");
        }
        auto oit = objects_.find(e.key);
        if (oit == objects_.end() || oit->second.wb_edge != eid) {
          return fail("storage-write edge not the recorded duty holder");
        }
        if (!oit->second.dirty) {
          return fail("storage-write edge for a clean object");
        }
        break;
      }
    }
  }
  for (const auto& [key, entry] : cache_entries_) {
    for (const TxnId r : entry.unsunk_readers) {
      if (!HasNode(r)) {
        return fail("cache entry holds a sunk reader");
      }
    }
    auto oit = objects_.find(key.first);
    if (oit == objects_.end()) return fail("cache entry without state");
  }
  for (const auto& [key, st] : objects_) {
    if (st.loc == Loc::kCache &&
        cache_entries_.count({key, st.version_writer}) == 0) {
      return fail("object marked cached without an entry");
    }
    if (st.loc == Loc::kUnsunkTxn && !HasNode(st.version_writer)) {
      return fail("object version held by a sunk/unknown writer");
    }
  }
  return true;
}

void TGraph::ApplySnapshotAssignment(const Snapshot& snapshot,
                                     const std::vector<int>& assignment) {
  TPART_CHECK(assignment.size() == snapshot.vertex_weight.size());
  for (std::size_t v = options_.num_machines; v < assignment.size(); ++v) {
    const TxnId id = snapshot.vertex_txn[v];
    if (!HasNode(id)) continue;
    mutable_node(id).assigned = static_cast<MachineId>(assignment[v]);
  }
}

}  // namespace tpart
