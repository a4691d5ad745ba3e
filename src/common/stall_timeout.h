#ifndef TPART_COMMON_STALL_TIMEOUT_H_
#define TPART_COMMON_STALL_TIMEOUT_H_

#include <chrono>

namespace tpart {

/// Bound on every blocking wait of the threaded runtime: the executor's
/// cache, response, peer and storage waits, the dissemination stage's
/// epoch credits and stage receives, and the control plane's barriers and
/// elections. A wait that expires aborts the run with a stall diagnostic
/// (executor paths) or surfaces as ClusterRunOutcome::fault
/// (dissemination).
inline constexpr std::chrono::microseconds kStallTimeout{120'000'000};

}  // namespace tpart

#endif  // TPART_COMMON_STALL_TIMEOUT_H_
