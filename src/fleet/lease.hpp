// Shard lease table: who owns which slice of the grid, until when.
//
// The coordinator partitions a campaign into shard_count interleaved shards
// (core::shard_owns) and leases each to at most one worker at a time. A
// lease is (shard, worker, fencing token, deadline): heartbeats refresh the
// deadline, silence past the TTL makes the shard grantable again, and the
// monotonically increasing token fences zombies -- a worker that went
// silent and comes back heartbeats with a stale token, is told the lease is
// lost, and abandons the shard instead of double-reporting it. Expiry is
// lazy (checked at acquire time), so the table needs no timer thread.
// State machine: docs/fleet.md#lease-state-machine.
#pragma once

/// \file
/// The coordinator's mutex-guarded shard lease table: grant, heartbeat,
/// expiry, re-lease, and completion under fencing tokens.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/annotations.hpp"
#include "core/sync.hpp"

namespace flim::fleet {

/// Lifecycle of one shard's lease.
enum class LeaseState : std::uint8_t {
  kUnleased = 0,  ///< Never granted, or forfeited before completion.
  kLeased = 1,    ///< Held by a worker; expires at `deadline_ms`.
  kDone = 2,      ///< Shard uploaded and validated; terminal.
};

/// Point-in-time view of one shard's lease (LeaseTable::snapshot).
struct LeaseInfo {
  LeaseState state = LeaseState::kUnleased;
  /// Name of the holding (or last holding) worker.
  std::string worker;
  /// Fencing token of the current grant (0 before the first grant).
  std::uint64_t token = 0;
  /// core::steady_now_ms deadline after which the lease is expired.
  std::int64_t deadline_ms = 0;
  /// Completed points reported by the last heartbeat.
  std::size_t completed = 0;
  /// Owned points reported by the last heartbeat (0 until the first one).
  std::size_t owned = 0;
};

/// Thread-safe lease bookkeeping for one campaign's shards. All calls take
/// the current time explicitly (core::steady_now_ms in production, a fake
/// clock in tests), so expiry logic is deterministic under test.
class LeaseTable {
 public:
  /// A successful grant: the shard to run and its fencing token.
  struct Grant {
    int shard_index = 0;
    std::uint64_t token = 0;
  };

  /// `shard_count` shards, each lease expiring `ttl_ms` after its grant or
  /// last heartbeat. Throws std::invalid_argument on non-positive values.
  LeaseTable(int shard_count, std::int64_t ttl_ms);

  /// Grants the lowest-indexed grantable shard to `worker`: first shards
  /// never leased, then shards whose lease expired before `now_ms` (counted
  /// as a re-lease). Returns nullopt when every incomplete shard is held by
  /// a live lease (caller tells the worker to wait) or all shards are done.
  std::optional<Grant> acquire(const std::string& worker, std::int64_t now_ms);

  /// Refreshes the lease deadline and records progress. Returns false when
  /// the token is stale (lease expired and re-granted, or shard already
  /// done) -- the caller answers lease_lost and the worker abandons.
  bool heartbeat(int shard_index, std::uint64_t token, std::size_t completed,
                 std::size_t owned, std::int64_t now_ms);

  /// Marks a shard done. Returns false on a stale token; completion is
  /// first-writer-wins and terminal.
  bool complete(int shard_index, std::uint64_t token);

  /// True when every shard is done.
  bool all_done() const;

  /// Number of shards marked done so far.
  int done_count() const;

  /// Times an expired lease was re-granted to another acquire call.
  std::size_t expired_releases() const;

  /// Copies the per-shard lease states (for status logging and tests).
  std::vector<LeaseInfo> snapshot() const;

 private:
  mutable core::Mutex mutex_;
  std::vector<LeaseInfo> leases_ FLIM_GUARDED_BY(mutex_);
  std::uint64_t next_token_ FLIM_GUARDED_BY(mutex_) = 1;
  std::size_t expired_count_ FLIM_GUARDED_BY(mutex_) = 0;
  std::int64_t ttl_ms_ = 0;
};

}  // namespace flim::fleet
