#ifndef TPART_TGRAPH_TGRAPH_H_
#define TPART_TGRAPH_TGRAPH_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "common/types.h"
#include "scheduler/push_plan.h"
#include "storage/data_partition.h"
#include "tgraph/edge_weight.h"
#include "txn/txn.h"

namespace tpart {

/// Kinds of T-graph edges (§3.1, §3.4).
enum class EdgeKind {
  /// wr-dependency between two unsunk transactions; becomes a push or a
  /// local version hand-off at sink time.
  kForwardPush,
  /// Sink -> txn: the version must be fetched from storage.
  kStorageRead,
  /// Txn -> sink: the dirty version must eventually be written back.
  kStorageWrite,
  /// Sink -> txn: the version lives in the cache area of some machine
  /// (produced by the §3.4 transformation or created on arrival when the
  /// source version is already cached).
  kCacheRead,
};

/// One T-graph edge. Txn endpoints are referenced by id; sink endpoints by
/// machine id. Exactly one of src_txn / sink is meaningful on the source
/// side depending on kind.
struct TEdge {
  EdgeKind kind = EdgeKind::kForwardPush;
  ObjectKey key = 0;
  /// Source transaction (kForwardPush) or the version tag for cache /
  /// storage reads (the txn that wrote the version; 0 = initial load).
  TxnId src_txn = kInvalidTxnId;
  /// Destination transaction (0 for kStorageWrite).
  TxnId dst_txn = kInvalidTxnId;
  /// Sink endpoint: record home (storage edges) or cache holder
  /// (kCacheRead). kInvalidMachine for kForwardPush.
  MachineId sink = kInvalidMachine;
  /// Cache-entry sink number (kCacheRead only).
  SinkEpoch cache_epoch = 0;
  /// Write-back watermark the reader must observe (kStorageRead only).
  SinkEpoch storage_min_epoch = 0;
  double weight = 1.0;
  /// Storage-write edges move to the latest accessor; superseded copies
  /// are marked stale and ignored everywhere.
  bool stale = false;
  /// False once the edge is erased (its reader or write-back owner sank).
  bool live = true;
};

/// A transaction node of the T-graph. It keeps only what sinking needs
/// from the spec (the runtime parks the spec itself until its round).
struct TxnNode {
  TxnId id = kInvalidTxnId;
  bool is_dummy = false;
  /// Declared read/write set sizes, copied into the node's TxnPlan.
  std::uint32_t num_reads = 0;
  std::uint32_t num_writes = 0;
  double weight = 1.0;
  /// Current partition assignment (mutable until sunk, §3.3: "the
  /// partition assignment of each transaction changes over time").
  MachineId assigned = kInvalidMachine;
  /// Ids of edges incident to this node (both directions).
  std::vector<std::size_t> edges;
};

/// The T-graph: transaction nodes, per-machine sink nodes, and dependency
/// edges, built incrementally from the totally ordered request stream.
///
/// The graph additionally tracks per-object version state so that edges
/// follow the paper's modelling principles:
///  * reading-from-the-earliest (§4.2): a read edge's source is the
///    transaction that *wrote* the required version (the earliest holder);
///  * writing-back-the-latest (§4.2): only the current latest version of a
///    dirty object carries a storage-write edge, attached to its latest
///    accessor (cf. T6 writing back C in Fig. 3).
///
/// All mutations are pure functions of the total order, so independent
/// TGraph instances fed the same stream stay identical (§3.3 determinism).
class TGraph {
 public:
  struct Options {
    std::size_t num_machines = 2;
    /// Weight model for forward-push / cache-read edges.
    std::shared_ptr<const EdgeWeightModel> push_weight =
        std::make_shared<ConstantEdgeWeight>();
    /// Weight of storage-read / storage-write edges relative to pushes.
    double storage_read_weight = 1.0;
    double storage_write_weight = 1.0;
    /// §5.3: require each transaction to read the objects it writes so an
    /// aborting transaction can push the old values forward. Disable only
    /// to mirror the paper's Fig. 3 example, which has blind writes.
    bool read_own_writes = false;
    /// Mark write-backs sticky (§5.2) in generated plans.
    bool sticky_cache = true;
    /// G-Store emulation (§6.2): never publish cross-batch cache entries;
    /// every dirty version is written back at its writer's sinking.
    bool always_write_back = false;
  };

  TGraph(Options options, std::shared_ptr<const DataPartitionMap> data_map);

  /// Adds the next totally ordered transaction as a node, creating its
  /// read-side edges and updating version state. Ids must be consecutive.
  /// Dummy transactions become isolated zero-weight nodes.
  void AddTxn(const TxnSpec& spec);

  /// Sinks the `count` earliest unsunk transactions (§3.3): fixes their
  /// current assignments, emits their push plans, performs the
  /// forward-push -> cache-access edge transformation (§3.4), assigns
  /// write-back duties, and removes the nodes. `epoch` is the 1-based
  /// sinking-round number and must increase by one per call.
  SinkPlan Sink(std::size_t count, SinkEpoch epoch);

  /// Elastic membership change at a sink-epoch cut: the data map has just
  /// advanced to a new version, and rounds from here on address `new_n`
  /// machines. Re-homes every live storage-read/storage-write edge to the
  /// key's new home (their sinks were fixed at arrival time under the old
  /// map) and un-assigns unsunk nodes parked on machines leaving the
  /// membership, so the streaming partitioner re-places them. Cache-read
  /// edges keep their holder: published epoch entries stay valid on the
  /// machine that published them, even one leaving the membership (it
  /// keeps serving residual pulls). The sink-weight vector only ever
  /// grows: a leaver keeps the load sunk on it before the cut.
  void Rehome(std::size_t new_n);

  // --- Introspection / partitioner interface -------------------------

  std::size_t num_machines() const { return options_.num_machines; }
  std::size_t num_unsunk() const { return nodes_.size(); }
  TxnId first_unsunk_id() const { return first_id_; }

  /// Node for id (must be unsunk and present).
  const TxnNode& node(TxnId id) const;
  TxnNode& mutable_node(TxnId id);
  bool HasNode(TxnId id) const {
    return id >= first_id_ && id < first_id_ + nodes_.size();
  }

  /// Sink-node weight of machine `m`: the total weight ever sunk on it.
  /// §3.1 subtracts committed transactions; the runtime feeds no commits
  /// back, so its plans stay a pure function of the stream (DESIGN §4c).
  /// The DES models the backlog through set_sink_weight instead.
  double sink_weight(MachineId m) const { return sink_weight_[m]; }
  /// Tests, benches and the DES may seed sink weights to model load.
  void set_sink_weight(MachineId m, double w) { sink_weight_[m] = w; }

  /// Live edge `edge_id` (must be incident to an unsunk node).
  const TEdge& edge(std::size_t edge_id) const;

  /// Edge slots the ring currently spans: every edge the unsunk
  /// transactions created, and nothing older (Sink trims the rest).
  std::size_t edge_ring_size() const { return edges_.size(); }

  /// Visits unsunk nodes in total order.
  void ForEachUnsunk(const std::function<void(const TxnNode&)>& fn) const;

  /// Adds, for every non-stale edge incident to node `id`, the edge weight
  /// to `affinity[p]` where p is the partition of the peer endpoint. Txn
  /// peers count only when they precede `id` in the total order, i.e.
  /// the streaming pass already (re)placed them this round.
  void AccumulateAffinity(TxnId id, std::vector<double>& affinity) const;

  /// Sum of weights of non-stale edges crossing partitions, counting txn
  /// assignments plus sink placements. Unassigned nodes are skipped.
  double CutWeight() const;

  /// Total unsunk node weight currently assigned to each machine.
  std::vector<double> AssignedLoad() const;

  /// Data-partition map in use.
  const DataPartitionMap& data_map() const { return *data_map_; }
  const Options& options() const { return options_; }

  /// Exports an undirected snapshot for offline partitioners (METIS-like):
  /// vertices 0..k-1 are the sinks (fixed to their machine), then unsunk
  /// txns in order. Parallel edges are merged.
  struct Snapshot {
    /// Vertex weights; first num_machines entries are sinks.
    std::vector<double> vertex_weight;
    /// fixed[v] = machine for sinks, -1 for free vertices.
    std::vector<int> fixed;
    /// Adjacency: (neighbour vertex, accumulated weight).
    std::vector<std::vector<std::pair<int, double>>> adj;
    /// Txn id of vertex v (>= num_machines).
    std::vector<TxnId> vertex_txn;
  };
  Snapshot ExportSnapshot() const;

  /// Applies `assignment[v]` from a Snapshot back to the unsunk nodes.
  void ApplySnapshotAssignment(const Snapshot& snapshot,
                               const std::vector<int>& assignment);

  /// Structural invariants, checked by tests after arbitrary add/sink
  /// interleavings: live forward-push edges connect two unsunk nodes in
  /// order; live cache-read edges reference an existing entry on the
  /// right machine with the reader registered; at most one live
  /// storage-write edge per object, owned by its recorded duty holder;
  /// object version state agrees with the entry map. Returns false and
  /// fills `why` on the first violation.
  bool CheckInvariants(std::string* why = nullptr) const;

 private:
  // Keyed by (object, version txn): the paper's <obj, sink#> entries plus
  // the version tag, which disambiguates the rare case of two versions of
  // one object needing cross-round entries.
  struct CacheEntryState {
    MachineId machine = kInvalidMachine;
    SinkEpoch epoch = 0;
    bool dirty = true;
    std::vector<TxnId> unsunk_readers;
    std::uint32_t reads_planned = 0;  // for ReadStep::entry_total_reads
  };

  // Location of an object's current (latest) version.
  enum class Loc { kStorage, kUnsunkTxn, kCache };

  struct ObjectState {
    TxnId version_writer = kInvalidTxnId;  // last writer ever (0 = load)
    TxnId storage_version = kInvalidTxnId;  // version currently in storage
    Loc loc = Loc::kStorage;
    MachineId cache_machine = kInvalidMachine;
    SinkEpoch cache_epoch = 0;
    bool dirty = false;
    SinkEpoch write_back_epoch = 0;
    std::size_t wb_edge = kNoEdge;   // live storage-write edge
    // Planned storage reads of the current storage version since the last
    // write-back; recorded into the next WriteBackStep::readers_to_await.
    std::uint32_t storage_readers_since_wb = 0;
  };

  static constexpr std::size_t kNoEdge = static_cast<std::size_t>(-1);

  std::size_t AddEdge(const TEdge& edge);
  /// The live edge `edge_id`, or nullptr once it was erased.
  TEdge* FindEdge(std::size_t edge_id);
  const TEdge* FindEdge(std::size_t edge_id) const;
  void MoveWriteBackEdge(ObjectState& st, ObjectKey key, TxnId new_owner);
  ObjectState& StateOf(ObjectKey key) { return objects_[key]; }

  Options options_;
  std::shared_ptr<const DataPartitionMap> data_map_;

  std::deque<TxnNode> nodes_;  // unsunk nodes; nodes_[id - first_id_]
  TxnId first_id_ = 1;         // id of nodes_.front()
  TxnId next_expected_id_ = 1;

  // The edge ring: edges_[id - edge_base_]. Ids are sequential, and every
  // edge AddTxn(T) creates names T as its reader or write-back owner, so
  // it is dead once T sinks. Sink erases edges by clearing `live` and then
  // pops the dead prefix; the ring spans only the unsunk window's edges.
  std::deque<TEdge> edges_;
  std::size_t edge_base_ = 0;

  // Open-addressing tables (common/flat_map.h): AddTxn/Sink run once per
  // transaction on the scheduler hot path, and node-based maps spent it
  // allocating. Iteration order is a pure function of the operation
  // history, so independent TGraph replicas still agree byte-for-byte.
  FlatMap<ObjectKey, ObjectState> objects_;
  FlatMap<std::pair<ObjectKey, TxnId>, CacheEntryState> cache_entries_;

  std::vector<double> sink_weight_;

  SinkEpoch last_epoch_ = 0;

  // Sink's stranded-edge grouping: (key, edge) pairs of one transaction,
  // cleared per transaction but keeping its capacity, so the grouping
  // costs no steady-state allocation.
  std::vector<std::pair<ObjectKey, std::size_t>> stranded_;
};

}  // namespace tpart

#endif  // TPART_TGRAPH_TGRAPH_H_
