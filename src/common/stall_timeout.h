#ifndef TPART_COMMON_STALL_TIMEOUT_H_
#define TPART_COMMON_STALL_TIMEOUT_H_

#include <chrono>

namespace tpart {

/// Bound on every blocking wait of the threaded runtime: a plan parked on
/// a read (or Calvin's peer reads), the dissemination stage's epoch
/// credits and stage receives, recovery's replay, the transports' flush,
/// and the control plane's barriers and elections. A wait that expires
/// aborts the run with a stall diagnostic (a parked plan) or surfaces as
/// ClusterRunOutcome::fault (the rest).
inline constexpr std::chrono::microseconds kStallTimeout{120'000'000};

}  // namespace tpart

#endif  // TPART_COMMON_STALL_TIMEOUT_H_
