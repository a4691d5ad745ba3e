#ifndef TPART_NET_RESEND_WINDOW_H_
#define TPART_NET_RESEND_WINDOW_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>

#include "common/types.h"
#include "runtime/channel.h"

namespace tpart {

/// The dissemination stage's retained history of sink-plan rounds, kept
/// so a recovered machine can be re-sent every round it missed while
/// down (the end-of-stream marker is tracked separately by the cluster).
/// A round is kept as its per-machine slices, each with its destination,
/// so a re-ship sends the victim only its own slices.
///
/// Without pruning this window grows with run length — exactly the
/// resident-memory failure mode periodic checkpointing exists to bound.
/// Once every machine holds a checkpoint at epoch >= E, no recovery can
/// ever need rounds <= E again (a machine resumes strictly after its own
/// checkpoint epoch), so PruneThrough(E) drops them.
///
/// Internally synchronized: the dissemination stage appends while the
/// watchdog thread replays from it during a recovery.
class ResendWindow {
 public:
  /// Appends machine `dst`'s slice of a disseminated round. A round's
  /// slices are appended together, one per machine.
  void Append(MachineId dst, Message slice);

  /// Drops every retained round with epoch <= `through`. Returns the
  /// number of rounds dropped by this call.
  std::size_t PruneThrough(SinkEpoch through);

  /// Replays machine `dst`'s slice of every retained round with epoch >=
  /// `resume`, in order. Returns the number of rounds passed to `fn`.
  std::size_t ForEachFrom(SinkEpoch resume, MachineId dst,
                          const std::function<void(const Message&)>& fn) const;

  /// Epoch of the oldest retained round; 0 when empty.
  SinkEpoch front_epoch() const;

  /// Highest epoch ever appended (survives pruning; 0 before any append).
  /// A failed-over coordinator uses it as the boundary between rounds the
  /// old leader already shipped and rounds it must ship fresh.
  SinkEpoch last_epoch() const;

  bool empty() const;
  /// Retained rounds.
  std::size_t size() const;
  std::size_t bytes() const;
  std::size_t bytes_peak() const;
  std::uint64_t pruned_rounds() const;

 private:
  struct Entry {
    MachineId dst = kInvalidMachine;
    Message slice;
  };

  mutable std::mutex mu_;
  std::deque<Entry> window_;
  std::size_t rounds_ = 0;
  SinkEpoch last_epoch_ = 0;
  std::size_t bytes_ = 0;
  std::size_t bytes_peak_ = 0;
  std::uint64_t pruned_rounds_ = 0;
};

}  // namespace tpart

#endif  // TPART_NET_RESEND_WINDOW_H_
