#ifndef TPART_SEQUENCER_SEQUENCER_H_
#define TPART_SEQUENCER_SEQUENCER_H_

#include <cstdint>
#include <optional>

#include "common/ring_queue.h"
#include "sequencer/batch.h"
#include "txn/txn.h"

namespace tpart {

/// Total-order sequencer.
///
/// The paper runs Zab (a Paxos simplification) across the cluster to agree
/// on batch order; per the substitution table in DESIGN.md we model the
/// agreed outcome — a single stream of consecutively numbered requests,
/// delivered in batches — since the ordering delay "does not count into
/// the contention footprint" and is identical for Calvin and Calvin+TP
/// (§2.1, §6.3.1).
///
/// Dummy padding (§3.3): schedulers only sink after seeing a fixed number
/// of ordered transactions, so during client silence "each sequencer [adds]
/// dummy requests into every batch ... if there are not enough requests
/// from the clients."
class Sequencer {
 public:
  struct Options {
    /// Number of requests per ordered batch.
    std::size_t batch_size = 20;
    /// Pad short batches with dummy requests on Flush().
    bool pad_with_dummies = true;
  };

  explicit Sequencer(Options options) : options_(options) {}
  Sequencer() : Sequencer(Options{}) {}

  /// Enqueues a client request (id is assigned at batch formation).
  void Submit(TxnSpec spec);

  /// Returns the next full batch, or nullopt when fewer than batch_size
  /// requests are pending.
  std::optional<TxnBatch> NextBatch();

  /// Forms a batch immediately from whatever is pending, dummy-padding to
  /// batch_size when enabled. Models the periodic batch timer firing
  /// during client silence. Returns nullopt if padding is disabled and no
  /// requests are pending.
  std::optional<TxnBatch> Flush();

  /// Id the next sequenced transaction will receive.
  TxnId next_txn_id() const { return next_id_; }

  /// Resumes numbering mid-stream: a failed-over coordinator's fresh
  /// sequencer continues ids/batch-ids exactly where the committed log
  /// left off, so batch composition stays a pure function of stream
  /// position (DESIGN §4i). Only valid before any Submit().
  void Prime(TxnId next_txn_id, std::uint64_t next_batch_id) {
    next_id_ = next_txn_id;
    next_batch_id_ = next_batch_id;
  }

  std::size_t pending() const { return pending_.size(); }
  std::uint64_t num_dummies_issued() const { return num_dummies_; }
  std::uint64_t num_batches_issued() const { return next_batch_id_; }

 private:
  TxnBatch FormBatch(std::size_t take, std::size_t pad);

  Options options_;
  RingQueue<TxnSpec> pending_;
  TxnId next_id_ = 1;
  std::uint64_t next_batch_id_ = 0;
  std::uint64_t num_dummies_ = 0;
};

}  // namespace tpart

#endif  // TPART_SEQUENCER_SEQUENCER_H_
