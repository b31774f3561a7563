#include "serve/plan_cache.hpp"

#include <sstream>

#include "core/check.hpp"
#include "core/thread_pool.hpp"

namespace flim::serve {

namespace {

/// Workload-pool key: every WorkloadSpec field that changes what
/// load_workload() produces.
std::string workload_key(const exp::WorkloadSpec& spec) {
  std::ostringstream os;
  os << spec.model << '|' << spec.eval_images << '|' << spec.epochs << '|'
     << spec.train_samples << '|' << spec.weights_dir << '|'
     << spec.force_retrain;
  return os.str();
}

}  // namespace

CacheEntry::CacheEntry(exp::EvalPointSpec spec,
                       std::shared_ptr<const exp::Workload> workload,
                       std::size_t workers)
    : spec_(std::move(spec)),
      key_(exp::eval_point_key(spec_)),
      workload_(std::move(workload)),
      plan_(workload_->model, workload_->eval_batch.images.shape()),
      prefix_(plan_, workload_->eval_batch.images),
      workspaces_(workers) {
  FLIM_REQUIRE(workers >= 1, "cache entry needs >= 1 evaluation worker");
  if (!spec_.fault_expr.empty()) {
    stack_ = fault::parse_fault_expr(spec_.fault_expr);
    has_stack_ = true;
  }
}

core::Summary CacheEntry::evaluate(int repetitions, std::uint64_t master_seed,
                                   core::ThreadPool* pool) {
  exp::EvalPointSpec request = spec_;
  request.repetitions = repetitions;
  request.master_seed = master_seed;
  const core::MutexLock lock(exec_mutex_);
  return exp::evaluate_eval_point(request, *workload_, plan_, workspaces_,
                                  pool, has_stack_ ? &stack_ : nullptr,
                                  &prefix_);
}

std::string CacheEntry::evaluate_payload(int repetitions,
                                         std::uint64_t master_seed,
                                         core::ThreadPool* pool) {
  exp::EvalPointSpec request = spec_;
  request.repetitions = repetitions;
  request.master_seed = master_seed;
  return exp::format_eval_payload(request,
                                  evaluate(repetitions, master_seed, pool));
}

PlanCache::PlanCache(std::size_t capacity, std::size_t workers)
    : capacity_(capacity), workers_(workers) {
  FLIM_REQUIRE(capacity_ >= 1, "plan cache capacity must be >= 1");
  FLIM_REQUIRE(workers_ >= 1, "plan cache needs >= 1 evaluation worker");
}

std::shared_ptr<const exp::Workload> PlanCache::workload_for(
    const exp::WorkloadSpec& spec) {
  const std::string key = workload_key(spec);
  while (true) {
    {
      core::CondLock lock(mutex_);
      const auto it = workloads_.find(key);
      if (it != workloads_.end()) return it->second;
      if (workload_building_.find(key) == workload_building_.end()) {
        workload_building_.emplace(key, true);
        break;
      }
      // Another thread is loading this workload; wait for it, re-check.
      lock.wait(cv_);
    }
  }
  std::shared_ptr<const exp::Workload> loaded;
  try {
    loaded = std::make_shared<const exp::Workload>(exp::load_workload(spec));
  } catch (...) {
    {
      const core::MutexLock lock(mutex_);
      workload_building_.erase(key);
    }
    // Waiters race to become the next loader (and hit the same error).
    cv_.notify_all();
    throw;
  }
  {
    const core::MutexLock lock(mutex_);
    workloads_.emplace(key, loaded);
    workload_building_.erase(key);
  }
  cv_.notify_all();
  return loaded;
}

std::shared_ptr<CacheEntry> PlanCache::get_or_create(
    const exp::EvalPointSpec& spec) {
  exp::validate(spec);
  const std::string key = exp::eval_point_key(spec);
  while (true) {
    std::shared_ptr<Slot> slot;
    {
      core::CondLock lock(mutex_);
      const auto it = slots_.find(key);
      if (it != slots_.end()) {
        if (it->second->entry) {
          ++counters_.hits;
          lru_.remove(key);
          lru_.push_front(key);
          return it->second->entry;
        }
        // A builder is at work on this key; wait, then re-check (on build
        // failure the slot vanishes and this thread races to rebuild).
        lock.wait(cv_);
        continue;
      }
      slot = std::make_shared<Slot>();
      slots_.emplace(key, slot);
      ++counters_.misses;
    }
    // Build outside the lock: workload loading (potentially training) and
    // plan compilation of distinct keys proceed concurrently.
    std::shared_ptr<CacheEntry> entry;
    try {
      std::shared_ptr<const exp::Workload> workload =
          workload_for(spec.workload);
      entry =
          std::make_shared<CacheEntry>(spec, std::move(workload), workers_);
    } catch (...) {
      {
        const core::MutexLock lock(mutex_);
        slots_.erase(key);
      }
      cv_.notify_all();
      throw;
    }
    {
      const core::MutexLock lock(mutex_);
      slot->entry = entry;
      lru_.push_front(key);
      while (lru_.size() > capacity_) {
        // In-flight evaluations of an evicted entry finish safely: callers
        // hold it by shared_ptr, the pool merely forgets it.
        slots_.erase(lru_.back());
        lru_.pop_back();
        ++counters_.evictions;
      }
    }
    cv_.notify_all();
    return entry;
  }
}

CacheCounters PlanCache::counters() const {
  const core::MutexLock lock(mutex_);
  return counters_;
}

std::size_t PlanCache::size() const {
  const core::MutexLock lock(mutex_);
  return lru_.size();
}

}  // namespace flim::serve
