// Shared retry policy for campaign filesystem operations.
//
// Distributed campaigns live on shared filesystems where individual
// operations fail transiently: EINTR under signal load, ESTALE on NFS
// handle revalidation, EAGAIN/EBUSY under contention. Those must not
// abort a campaign mid-journal — they are retried with jittered
// exponential backoff. Permanent conditions (ENOSPC, EACCES, EROFS, or
// any failure with no captured errno) are returned immediately: the
// caller decides whether to degrade (e.g. a checkpoint falls back to
// in-memory completion) or to surface the error.
//
// The jitter is deterministic (splitmix64 over seed ^ attempt), so two
// shards configured with different jitter seeds de-synchronize their
// retries without any run-to-run nondeterminism.
#pragma once

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <thread>

#include "support/result.h"
#include "support/telemetry.h"

namespace iris::support {

struct RetryPolicy {
  /// Total tries, including the first (1 = never retry).
  std::size_t max_attempts = 4;
  double base_delay_ms = 2.0;
  double multiplier = 4.0;
  double max_delay_ms = 250.0;
  /// Mixed with the attempt number for deterministic jitter; give each
  /// shard a distinct seed to de-synchronize contending retries.
  std::uint64_t jitter_seed = 0x9E3779B97F4A7C15ULL;
};

/// Errnos worth retrying: the condition can clear on its own.
inline bool transient_errno(int err) noexcept {
  return err == EINTR || err == EAGAIN || err == ESTALE || err == EBUSY ||
         err == ETIMEDOUT;
}

/// Backoff before retry `attempt` (1-based): exponential with a
/// deterministic jitter factor in [0.5, 1.0].
inline double retry_delay_ms(const RetryPolicy& policy,
                             std::size_t attempt) noexcept {
  double delay = policy.base_delay_ms;
  for (std::size_t i = 1; i < attempt; ++i) {
    delay *= policy.multiplier;
    if (delay >= policy.max_delay_ms) break;
  }
  if (delay > policy.max_delay_ms) delay = policy.max_delay_ms;
  std::uint64_t z = policy.jitter_seed ^ (attempt * 0xBF58476D1CE4E5B9ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  const double unit = static_cast<double>(z >> 11) * 0x1p-53;  // [0, 1)
  return delay * (0.5 + 0.5 * unit);
}

/// Run `op` (returning a Status or a Result) under `policy`:
/// transient-errno failures are retried with backoff until the attempt
/// budget runs out; anything else (including success) returns
/// immediately. The returned value is the last attempt's.
template <typename Op>
auto retry_io(const RetryPolicy& policy, Op&& op) -> decltype(op()) {
  auto last = op();
  for (std::size_t attempt = 1;
       !last.ok() && attempt < policy.max_attempts &&
       transient_errno(last.error().sys_errno);
       ++attempt) {
    note_io_retry(last.error().sys_errno);
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        retry_delay_ms(policy, attempt)));
    last = op();
  }
  return last;
}

}  // namespace iris::support
