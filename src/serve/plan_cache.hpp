// Warm-entry cache for the evaluation server.
//
// The expensive part of answering an eval_request is everything before the
// forward passes: loading (or training) the workload, compiling the
// ForwardPlan, parsing the fault expression. A CacheEntry bundles that warm
// state -- workload, plan, per-worker Workspace slabs, pre-parsed
// FaultStack -- and PlanCache keeps an LRU-bounded pool of entries keyed by
// exp::eval_point_key() (model, engine, granularity, grid, canonical fault
// expression), so a repeat request pays only the forward passes. Workloads
// are cached separately (and unbounded) beneath the entry pool: two entries
// differing only in fault expression share one trained model. Eviction is
// safe against in-flight evaluation because callers hold entries by
// shared_ptr; an evicted entry finishes its work and dies with its last
// reference. See docs/serving.md#cache-keying.
#pragma once

/// \file
/// The serving layer's warm-entry pool: CacheEntry (workload + compiled
/// plan + parsed fault stack + workspaces), the LRU-bounded PlanCache with
/// get-or-create building slots, and its hit/miss/eviction counters.

#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bnn/plan.hpp"
#include "core/annotations.hpp"
#include "core/sync.hpp"
#include "exp/eval_point.hpp"
#include "fault/fault_registry.hpp"
#include "tensor/workspace.hpp"

/// Long-running evaluation server: warm plan/engine pools, request
/// batching, and the serving wire protocol. See docs/serving.md.
namespace flim::serve {

/// One warm cache entry: the canonical spec it answers, the loaded
/// workload, the compiled forward plan, the pre-parsed fault stack, and
/// one Workspace arena per evaluation worker. Entries are immutable after
/// construction except for the workspace slabs, which evaluate() guards
/// with an internal mutex (one evaluation at a time per entry; the batcher
/// serializes same-key work anyway, and distinct entries evaluate freely
/// in parallel).
class CacheEntry {
 public:
  /// Builds the warm state: loads (or trains) nothing itself -- `workload`
  /// arrives pre-loaded from the cache's workload pool -- but compiles the
  /// plan, parses the fault expression, and sizes one workspace per worker.
  CacheEntry(exp::EvalPointSpec spec,
             std::shared_ptr<const exp::Workload> workload,
             std::size_t workers);

  /// The eval_point_key() this entry answers.
  const std::string& key() const { return key_; }

  /// The canonical spec the entry was built from (repetitions/seed hold
  /// the values of the creating request; evaluate() overrides them).
  const exp::EvalPointSpec& spec() const { return spec_; }

  /// The entry's workload (introspection and direct-comparison tests).
  const exp::Workload& workload() const { return *workload_; }

  /// Evaluates this entry's point under a per-request repetition protocol,
  /// reusing the warm plan/stack/workspaces. Repetitions run on `pool`
  /// when non-null (which must not exceed the worker count the entry was
  /// built with); results are bit-identical to a cold direct evaluation of
  /// the same spec.
  core::Summary evaluate(int repetitions, std::uint64_t master_seed,
                         core::ThreadPool* pool);

  /// evaluate() rendered through exp::format_eval_payload -- the canonical
  /// one-line result string the server sends back.
  std::string evaluate_payload(int repetitions, std::uint64_t master_seed,
                               core::ThreadPool* pool);

 private:
  exp::EvalPointSpec spec_;
  std::string key_;
  std::shared_ptr<const exp::Workload> workload_;
  bnn::ForwardPlan plan_;
  /// Clean activations of plan_ over the workload's batch, shared by every
  /// request this entry answers.
  bnn::CleanPrefix prefix_;
  fault::FaultStack stack_;
  bool has_stack_ = false;

  core::Mutex exec_mutex_;
  std::vector<tensor::Workspace> workspaces_ FLIM_GUARDED_BY(exec_mutex_);
};

/// Monotonic counters of cache outcomes (the serve_test warm-path
/// assertions and the stats wire message read these).
struct CacheCounters {
  /// get_or_create calls answered by an existing warm entry.
  std::uint64_t hits = 0;
  /// get_or_create calls that built (or began building) a new entry.
  std::uint64_t misses = 0;
  /// Warm entries dropped by the LRU bound.
  std::uint64_t evictions = 0;
};

/// LRU-bounded pool of warm CacheEntry instances keyed by
/// exp::eval_point_key(). Thread-safe: concurrent get_or_create calls for
/// one key build the entry exactly once (waiters block on the builder and
/// then share its entry); distinct keys build concurrently. Entry
/// construction -- including workload training -- happens outside the
/// cache lock.
class PlanCache {
 public:
  /// `capacity` bounds the number of resident warm entries (>= 1);
  /// `workers` sizes each entry's workspace pool (the evaluation pool
  /// width, >= 1).
  PlanCache(std::size_t capacity, std::size_t workers);

  /// Returns the warm entry for `spec`'s key, building it first on a miss.
  /// Throws (and caches nothing) when the spec is invalid or the workload
  /// cannot be loaded; concurrent waiters then race to become the next
  /// builder.
  std::shared_ptr<CacheEntry> get_or_create(const exp::EvalPointSpec& spec);

  /// Snapshot of the hit/miss/eviction counters.
  CacheCounters counters() const;

  /// Number of resident warm entries.
  std::size_t size() const;

 private:
  /// A per-key build slot: `entry` is null while the builder works;
  /// waiters sleep on cv_ and re-check.
  struct Slot {
    std::shared_ptr<CacheEntry> entry;
  };

  /// Returns the cached workload for `spec`, loading it first on a miss
  /// (same building-slot discipline as the entry pool; unbounded --
  /// workloads are few and shared across fault expressions).
  std::shared_ptr<const exp::Workload> workload_for(
      const exp::WorkloadSpec& spec);

  std::size_t capacity_;
  std::size_t workers_;

  mutable core::Mutex mutex_;
  std::condition_variable cv_;
  std::map<std::string, std::shared_ptr<Slot>> slots_ FLIM_GUARDED_BY(mutex_);
  /// Keys of built entries, most recently used first.
  std::list<std::string> lru_ FLIM_GUARDED_BY(mutex_);
  std::map<std::string, std::shared_ptr<const exp::Workload>> workloads_
      FLIM_GUARDED_BY(mutex_);
  /// Workload keys currently being loaded by some thread.
  std::map<std::string, bool> workload_building_ FLIM_GUARDED_BY(mutex_);
  CacheCounters counters_ FLIM_GUARDED_BY(mutex_);
};

}  // namespace flim::serve
