// Concurrency stress suite. These tests hammer every mutex-guarded surface
// of the library from many threads at once; they pass trivially in a plain
// build and earn their keep under -DFLIM_SANITIZE=thread, where the TSan CI
// job turns any data race or lock-discipline slip into a hard failure. Keep
// iteration counts modest: TSan runs ~5-15x slower than native.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include <gtest/gtest.h>

#include "core/campaign.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "exp/eval_point.hpp"
#include "exp/store.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_registry.hpp"
#include "fleet/lease.hpp"
#include "serve/batcher.hpp"
#include "serve/plan_cache.hpp"

namespace flim {
namespace {

TEST(ThreadPoolConcurrency, ParallelForHammer) {
  core::ThreadPool pool(8);
  for (int round = 0; round < 4; ++round) {
    constexpr std::size_t kN = 2000;
    std::vector<std::atomic<int>> visits(kN);
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(kN, [&](std::size_t i) {
      visits[i].fetch_add(1, std::memory_order_relaxed);
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "index " << i;
    }
    EXPECT_EQ(sum.load(), kN * (kN - 1) / 2);
  }
}

TEST(ThreadPoolConcurrency, SlottedNeverSharesASlot) {
  core::ThreadPool pool(8);
  for (int round = 0; round < 4; ++round) {
    constexpr std::size_t kN = 1000;
    std::vector<std::atomic<bool>> occupied(pool.size());
    std::vector<std::atomic<int>> visits(kN);
    pool.parallel_for_slotted(kN, [&](std::size_t i, std::size_t slot) {
      ASSERT_LT(slot, pool.size());
      // Two concurrent invocations holding the same slot would both see
      // `false` here; exchange makes that a deterministic test failure (and
      // the unsynchronized per-slot workspaces it models would be a race).
      ASSERT_FALSE(occupied[slot].exchange(true)) << "slot " << slot;
      visits[i].fetch_add(1, std::memory_order_relaxed);
      occupied[slot].store(false);
    });
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "index " << i;
    }
  }
}

TEST(ThreadPoolConcurrency, SubmitFromManyExternalThreads) {
  core::ThreadPool pool(4);
  std::atomic<int> done{0};
  std::vector<std::thread> producers;
  producers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    producers.emplace_back([&] {
      std::vector<std::future<void>> futures;
      futures.reserve(50);
      for (int i = 0; i < 50; ++i) {
        futures.push_back(pool.submit([&] { done.fetch_add(1); }));
      }
      for (auto& f : futures) f.get();
    });
  }
  for (auto& p : producers) p.join();
  EXPECT_EQ(done.load(), 4 * 50);
}

// Builds a realized product-term entry whose active-component signature
// depends on the execution index: bitflip is static, dynamic(period=2)
// fires on odd executions only.
fault::FaultVectorEntry make_term_entry(std::uint64_t seed) {
  const fault::FaultStack stack =
      fault::parse_fault_expr("bitflip(rate=0.2)+dynamic(rate=0.3,period=2)");
  fault::RealizeContext ctx;
  core::Rng rng(seed);
  return stack.realize_entry("conv1", fault::FaultGranularity::kProductTerm,
                             ctx, rng);
}

TEST(FaultInjectorConcurrency, TermMaskCacheUnderContention) {
  constexpr std::int64_t kChannels = 8;
  constexpr std::int64_t kK = 16;

  // Serial reference: one injector queried serially gives the ground-truth
  // planes per signature.
  fault::FaultInjector reference(make_term_entry(7));
  const fault::TermMasks* ref_even = reference.term_masks(kChannels, kK, 0);
  const fault::TermMasks* ref_odd = reference.term_masks(kChannels, kK, 1);
  ASSERT_NE(ref_even, nullptr);
  ASSERT_NE(ref_odd, nullptr);
  ASSERT_NE(ref_even, ref_odd);

  fault::FaultInjector injector(make_term_entry(7));
  constexpr int kThreads = 8;
  constexpr int kQueries = 200;
  std::vector<const fault::TermMasks*> even_ptr(kThreads);
  std::vector<const fault::TermMasks*> odd_ptr(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int q = 0; q < kQueries; ++q) {
        // Interleave identical and distinct signatures across threads.
        const std::int64_t execution = (t + q) % 2;
        const fault::TermMasks* masks =
            injector.term_masks(kChannels, kK, execution);
        ASSERT_NE(masks, nullptr);
        if (execution == 0) {
          even_ptr[t] = masks;
        } else {
          odd_ptr[t] = masks;
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  // One cache entry per signature: every thread saw the same pointer.
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(even_ptr[t], even_ptr[0]);
    EXPECT_EQ(odd_ptr[t], odd_ptr[0]);
  }
  EXPECT_NE(even_ptr[0], odd_ptr[0]);

  // And the concurrently built planes match the serial reference bit for
  // bit.
  const auto planes_equal = [](const tensor::BitMatrix& a,
                               const tensor::BitMatrix& b) {
    if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
    for (std::int64_t r = 0; r < a.rows(); ++r) {
      for (std::int64_t c = 0; c < a.cols(); ++c) {
        if (a.get(r, c) != b.get(r, c)) return false;
      }
    }
    return true;
  };
  EXPECT_TRUE(planes_equal(even_ptr[0]->flip, ref_even->flip));
  EXPECT_TRUE(planes_equal(even_ptr[0]->sa0, ref_even->sa0));
  EXPECT_TRUE(planes_equal(even_ptr[0]->sa1, ref_even->sa1));
  EXPECT_TRUE(planes_equal(odd_ptr[0]->flip, ref_odd->flip));
  EXPECT_TRUE(planes_equal(odd_ptr[0]->sa0, ref_odd->sa0));
  EXPECT_TRUE(planes_equal(odd_ptr[0]->sa1, ref_odd->sa1));
}

// A deterministic, allocation-light stand-in for an inference metric; the
// value depends only on the seed, as campaign metrics must.
double seeded_metric(std::uint64_t seed) {
  core::Rng rng(seed);
  double acc = 0.0;
  for (int i = 0; i < 64; ++i) acc += rng.uniform_double();
  return acc / 64.0;
}

TEST(CampaignConcurrency, PooledRunRepeatedBitIdenticalToSerial) {
  core::CampaignConfig serial;
  serial.repetitions = 96;
  serial.master_seed = 1234;
  const core::Summary expect = core::run_repeated(
      serial, [](std::uint64_t seed) { return seeded_metric(seed); });

  core::ThreadPool pool(8);
  core::CampaignConfig pooled = serial;
  pooled.pool = &pool;
  for (int round = 0; round < 8; ++round) {
    const core::Summary got = core::run_repeated(
        pooled, [](std::uint64_t seed, std::size_t /*worker*/) {
          return seeded_metric(seed);
        });
    EXPECT_EQ(got.mean, expect.mean);
    EXPECT_EQ(got.stddev, expect.stddev);
    EXPECT_EQ(got.min, expect.min);
    EXPECT_EQ(got.max, expect.max);
    EXPECT_EQ(got.count, expect.count);
  }
}

TEST(CampaignConcurrency, PooledGridSweepBitIdenticalToSerial) {
  const std::vector<core::SweepAxis> axes = {
      {"rate", {{0.0, "0"}, {0.1, "0.1"}, {0.2, "0.2"}}},
      {"layer", {{0.0, "conv1"}, {1.0, "conv2"}}},
  };
  const auto metric = [](const std::vector<double>& xs, std::uint64_t seed,
                         std::size_t /*worker*/) {
    return seeded_metric(seed) + xs[0] * 0.01 + xs[1] * 0.001;
  };

  core::CampaignConfig serial;
  serial.repetitions = 24;
  serial.master_seed = 99;
  const std::vector<core::GridPoint> expect =
      core::run_grid_sweep(serial, axes, metric);

  core::ThreadPool pool(8);
  core::CampaignConfig pooled = serial;
  pooled.pool = &pool;
  const std::vector<core::GridPoint> got =
      core::run_grid_sweep(pooled, axes, metric);

  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].coords, expect[i].coords);
    EXPECT_EQ(got[i].labels, expect[i].labels);
    EXPECT_EQ(got[i].metric.mean, expect[i].metric.mean);
    EXPECT_EQ(got[i].metric.stddev, expect[i].metric.stddev);
  }
}

// Minimal registrable model for the lookup-during-add stress: realize()
// marks nothing, so it never perturbs campaign numbers even if leaked into
// other suites (registration is process-global).
class NullModel : public fault::FaultModel {
 public:
  explicit NullModel(std::string name) {
    info_.name = std::move(name);
    info_.summary = "concurrency-test model (no faults)";
    info_.time_semantics = "static";
  }

  const fault::ModelInfo& info() const override { return info_; }

  fault::RealizedFault realize(const fault::ModelParams& params,
                               const fault::RealizeContext& ctx,
                               core::Rng& /*rng*/) const override {
    fault::RealizedFault fault;
    fault.model = info_.name;
    fault.params = params.values();
    fault.mask = fault::FaultMask(ctx.grid.rows, ctx.grid.cols);
    return fault;
  }

 private:
  fault::ModelInfo info_;
};

TEST(FaultRegistryConcurrency, LookupsRaceRegistration) {
  fault::FaultRegistry& registry = fault::FaultRegistry::instance();
  constexpr int kModels = 32;
  std::atomic<bool> stop{false};
  std::atomic<int> found{0};

  // Readers resolve built-in models (the campaign hot path) and poll for
  // the models being registered concurrently.
  std::vector<std::thread> readers;
  readers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        EXPECT_NE(registry.find("bitflip"), nullptr);
        EXPECT_EQ(registry.get("stuckat").info().name, "stuckat");
        EXPECT_GE(registry.models().size(), 6u);
        if (registry.find("concurrency_test_model_17") != nullptr) {
          found.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  for (int i = 0; i < kModels; ++i) {
    registry.add(std::make_unique<NullModel>(
        "concurrency_test_model_" + std::to_string(i)));
  }
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();

  for (int i = 0; i < kModels; ++i) {
    const std::string name = "concurrency_test_model_" + std::to_string(i);
    EXPECT_NE(registry.find(name), nullptr) << name;
  }
}

exp::RunHeader make_test_header(std::size_t total_points) {
  exp::RunHeader header;
  header.name = "concurrency";
  header.backend = "flim";
  header.fingerprint = "deadbeefdeadbeef";
  header.library_version = "test";
  header.master_seed = 42;
  header.repetitions = 3;
  header.total_points = total_points;
  header.axis_names = {"rate"};
  header.axis_sizes = {total_points};
  return header;
}

exp::ScenarioPoint make_test_point(std::size_t flat) {
  exp::ScenarioPoint point;
  point.values = {static_cast<double>(flat) * 0.01};
  point.labels = {std::to_string(flat)};
  point.metric.mean = static_cast<double>(flat);
  point.metric.count = 3;
  return point;
}

/// Flat indices of the points a loaded run file holds.
std::set<std::size_t> stored_flat_indices(const exp::RunFile& run) {
  std::set<std::size_t> flats;
  for (const exp::StoredPoint& sp : run.points) flats.insert(sp.flat_index);
  return flats;
}

TEST(RunStoreConcurrency, ParallelAppendThenResume) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "flim_concurrency_store.jsonl")
          .string();
  constexpr std::size_t kPoints = 64;
  constexpr int kThreads = 8;

  {
    exp::RunStoreWriter writer(path, make_test_header(kPoints),
                               /*fsync_each_point=*/false);
    // Each thread appends a disjoint slice; lines may interleave in any
    // order but must never tear.
    std::vector<std::thread> writers;
    writers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&, t] {
        for (std::size_t i = static_cast<std::size_t>(t); i < kPoints / 2;
             i += kThreads) {
          writer.append(i, make_test_point(i));
        }
      });
    }
    for (auto& w : writers) w.join();
  }

  exp::RunFile half = exp::RunFile::load(path);
  EXPECT_FALSE(half.truncated_tail);
  EXPECT_EQ(half.points.size(), kPoints / 2);
  const std::set<std::size_t> half_flats = stored_flat_indices(half);
  for (std::size_t i = 0; i < kPoints / 2; ++i) {
    EXPECT_EQ(half_flats.count(i), 1u) << "missing point " << i;
  }

  // Simulate a crash mid-write, then a parallel resumed second half.
  {
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"point\": 999, \"torn", f);
    std::fclose(f);
  }
  exp::RunFile torn = exp::RunFile::load(path);
  EXPECT_TRUE(torn.truncated_tail);
  ASSERT_EQ(torn.points.size(), kPoints / 2);

  {
    exp::RunStoreWriter writer = exp::RunStoreWriter::resume(
        path, torn.valid_prefix_bytes, /*fsync_each_point=*/false);
    std::vector<std::thread> writers;
    writers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&, t] {
        for (std::size_t i = kPoints / 2 + static_cast<std::size_t>(t);
             i < kPoints; i += kThreads) {
          writer.append(i, make_test_point(i));
        }
      });
    }
    for (auto& w : writers) w.join();
  }

  exp::RunFile full = exp::RunFile::load(path);
  EXPECT_FALSE(full.truncated_tail);
  EXPECT_EQ(full.points.size(), kPoints);
  const std::set<std::size_t> full_flats = stored_flat_indices(full);
  for (std::size_t i = 0; i < kPoints; ++i) {
    EXPECT_EQ(full_flats.count(i), 1u) << "missing point " << i;
  }
  for (const exp::StoredPoint& sp : full.points) {
    EXPECT_EQ(sp.point.metric.mean, static_cast<double>(sp.flat_index));
  }
  std::filesystem::remove(path);
}

TEST(LeaseTableConcurrency, RacingAcquirersNeverShareAShard) {
  // Many workers hammer acquire() at once; every shard must be granted to
  // exactly one of them and every fencing token must be unique.
  constexpr int kShards = 16;
  constexpr int kWorkers = 8;
  fleet::LeaseTable table(kShards, /*ttl_ms=*/1000000);
  std::vector<std::vector<fleet::LeaseTable::Grant>> grants(kWorkers);
  std::vector<std::thread> workers;
  workers.reserve(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      while (true) {
        const auto grant = table.acquire("w" + std::to_string(w), 0);
        if (!grant) break;
        grants[static_cast<std::size_t>(w)].push_back(*grant);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  std::vector<int> owners(kShards, 0);
  std::set<std::uint64_t> tokens;
  for (const auto& per_worker : grants) {
    for (const fleet::LeaseTable::Grant& g : per_worker) {
      ++owners[static_cast<std::size_t>(g.shard_index)];
      EXPECT_TRUE(tokens.insert(g.token).second) << "duplicate token";
    }
  }
  for (int shard = 0; shard < kShards; ++shard) {
    EXPECT_EQ(owners[static_cast<std::size_t>(shard)], 1) << "shard " << shard;
  }
}

TEST(LeaseTableConcurrency, ExpiryReleaseAndFencingUnderContention) {
  // One shard, many claimants racing at a time past every TTL: each round,
  // exactly one thread wins the re-lease, and the loser's stale token must
  // be rejected by heartbeat and complete alike.
  fleet::LeaseTable table(1, /*ttl_ms=*/10);
  const auto first = table.acquire("w0", /*now_ms=*/0);
  ASSERT_TRUE(first.has_value());

  constexpr int kThreads = 8;
  constexpr int kRounds = 50;
  std::atomic<int> total_wins{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 1; round <= kRounds; ++round) {
        // Time leaps far past the previous round's deadline, so the lease
        // is expired for every contender simultaneously.
        const std::int64_t now = static_cast<std::int64_t>(round) * 1000;
        const auto grant = table.acquire("t" + std::to_string(t), now);
        if (grant) {
          total_wins.fetch_add(1);
          // A heartbeat with the fresh token may already be fenced off if a
          // later-round thread re-leased in between; either answer is legal,
          // it just must not race.
          (void)table.heartbeat(0, grant->token, 1, 2, now);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Every round re-leases the shard exactly once (the initial grant's
  // deadline has long passed by round 1's timestamp).
  EXPECT_EQ(total_wins.load(), kRounds);
  EXPECT_EQ(table.expired_releases(), static_cast<std::size_t>(kRounds));
  // The original holder's token is long fenced off.
  EXPECT_FALSE(table.heartbeat(0, first->token, 1, 2, kRounds * 1000));
  EXPECT_FALSE(table.complete(0, first->token));
  // The last winner can still complete; a second completion is refused.
  const auto last = table.snapshot().front();
  EXPECT_TRUE(table.complete(0, last.token));
  EXPECT_FALSE(table.complete(0, last.token));
  EXPECT_TRUE(table.all_done());
}

TEST(LeaseTableConcurrency, HeartbeatsRaceAcquirersSafely) {
  // Heartbeat spam on live leases while other threads race acquire() over
  // a mixed expired/fresh table: exercises every lock path concurrently.
  constexpr int kShards = 4;
  fleet::LeaseTable table(kShards, /*ttl_ms=*/50);
  std::vector<fleet::LeaseTable::Grant> initial;
  for (int i = 0; i < kShards; ++i) {
    const auto g = table.acquire("seed", 0);
    ASSERT_TRUE(g.has_value());
    initial.push_back(*g);
  }
  std::atomic<bool> stop{false};
  std::thread beater([&] {
    // The beater's fake clock saturates at 1000, so its refreshes can push
    // a deadline no further than 1050 -- racers with later timestamps are
    // guaranteed to find the leases expired eventually.
    std::int64_t now = 0;
    while (!stop.load()) {
      for (const auto& g : initial) {
        (void)table.heartbeat(g.shard_index, g.token, 1, 1, now);
      }
      if (now < 1000) now += 7;
    }
  });
  std::vector<std::thread> acquirers;
  for (int t = 0; t < 4; ++t) {
    acquirers.emplace_back([&, t] {
      for (std::int64_t now = 0; now < 5000; now += 13) {
        const auto g = table.acquire("racer" + std::to_string(t), now);
        if (g) (void)table.complete(g->shard_index, g->token);
        (void)table.snapshot();
        (void)table.done_count();
      }
    });
  }
  for (std::thread& t : acquirers) t.join();
  stop.store(true);
  beater.join();
  // Every racer sweeps its clock well past the beater's 1050 ceiling, so
  // each shard is eventually re-leased from the seed holder and completed.
  EXPECT_TRUE(table.all_done());
}

// ---------------------------------------------------------------------------
// Serving layer: plan-cache and batcher races (semantics live in serve_test;
// here the same surfaces are hammered from many threads for the TSan job).

exp::EvalPointSpec serve_race_spec(const std::string& fault_expr) {
  exp::EvalPointSpec spec;
  spec.workload.model = "lenet";
  spec.workload.eval_images = 16;
  spec.workload.epochs = 1;
  spec.workload.train_samples = 32;
  // ctest runs each test in its own concurrent process; a process-unique
  // weight cache keeps parallel trainings from clobbering each other.
#if defined(__unix__) || defined(__APPLE__)
  const std::string tag = std::to_string(::getpid());
#else
  const std::string tag = "solo";
#endif
  spec.workload.weights_dir =
      (std::filesystem::temp_directory_path() /
       ("flim_concurrency_serve_weights_" + tag))
          .string();
  spec.fault_expr = fault_expr;
  spec.repetitions = 1;
  spec.master_seed = 7;
  return spec;
}

TEST(PlanCacheConcurrency, RacingGetOrCreateOfOneKeyBuildsOnce) {
  serve::PlanCache cache(4, 1);
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<serve::CacheEntry>> entries(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Two spellings of one stack: every thread must land on one entry.
      const std::string expr =
          (t % 2 == 0) ? "stuckat(rate=2e-3)" : "stuckat(rate=0.002)";
      entries[static_cast<std::size_t>(t)] =
          cache.get_or_create(serve_race_spec(expr));
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(entries[static_cast<std::size_t>(t)].get(), entries[0].get());
  }
  const serve::CacheCounters c = cache.counters();
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.hits, static_cast<std::uint64_t>(kThreads - 1));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCacheConcurrency, DistinctKeysBuildConcurrently) {
  const std::vector<std::string> exprs = {
      "stuckat(rate=1e-3)", "bitflip(rate=1e-3)", "dynamic(rate=1e-3)",
      "stuckat(rate=2e-3)"};
  serve::PlanCache cache(exprs.size(), 1);
  std::vector<std::shared_ptr<serve::CacheEntry>> entries(exprs.size());
  std::vector<std::thread> threads;
  threads.reserve(exprs.size());
  for (std::size_t t = 0; t < exprs.size(); ++t) {
    threads.emplace_back([&, t] {
      entries[t] = cache.get_or_create(serve_race_spec(exprs[t]));
    });
  }
  for (auto& th : threads) th.join();

  std::set<const serve::CacheEntry*> distinct;
  for (const auto& e : entries) {
    ASSERT_NE(e, nullptr);
    distinct.insert(e.get());
  }
  EXPECT_EQ(distinct.size(), exprs.size());
  EXPECT_EQ(cache.counters().misses, exprs.size());
  EXPECT_EQ(cache.size(), exprs.size());
}

TEST(PlanCacheConcurrency, EvictionRacesInFlightEvaluation) {
  // Capacity one: every distinct key evicts the previous entry while a
  // holder thread keeps evaluating its (possibly evicted) entry. The
  // shared_ptr keeps the entry alive and its answers stable.
  serve::PlanCache cache(1, 1);
  const exp::EvalPointSpec held_spec = serve_race_spec("stuckat(rate=2e-3)");
  const auto held = cache.get_or_create(held_spec);
  const std::string expect =
      held->evaluate_payload(held_spec.repetitions, held_spec.master_seed,
                             nullptr);

  std::atomic<bool> stop{false};
  std::thread evaluator([&] {
    while (!stop.load(std::memory_order_acquire)) {
      EXPECT_EQ(held->evaluate_payload(held_spec.repetitions,
                                       held_spec.master_seed, nullptr),
                expect);
    }
  });
  const std::vector<std::string> churn = {
      "bitflip(rate=1e-3)", "dynamic(rate=1e-3)", "stuckat(rate=1e-3)"};
  for (int round = 0; round < 4; ++round) {
    for (const std::string& expr : churn) {
      (void)cache.get_or_create(serve_race_spec(expr));
    }
  }
  stop.store(true, std::memory_order_release);
  evaluator.join();

  EXPECT_EQ(cache.size(), 1u);
  EXPECT_GE(cache.counters().evictions, 1u);
  // The long-evicted held entry still answers correctly.
  EXPECT_EQ(held->evaluate_payload(held_spec.repetitions,
                                   held_spec.master_seed, nullptr),
            expect);
}

TEST(BatcherConcurrency, SubmittersRaceTheConsumerAndDrain) {
  serve::PlanCache cache(2, 1);
  const exp::EvalPointSpec spec = serve_race_spec("stuckat(rate=2e-3)");
  const auto entry = cache.get_or_create(spec);

  serve::BatcherOptions options;
  options.queue_capacity = 4;  // small: the busy path gets exercised too
  serve::Batcher batcher(options);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  std::atomic<int> accepted{0};
  std::atomic<int> busy{0};
  std::vector<std::shared_ptr<serve::Ticket>> tickets;
  core::Mutex tickets_mutex;
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        auto ticket = std::make_shared<serve::Ticket>();
        const serve::SubmitStatus status = batcher.submit(
            entry, spec.repetitions, spec.master_seed, -1, ticket);
        if (status == serve::SubmitStatus::kAccepted) {
          accepted.fetch_add(1);
          const core::MutexLock lock(tickets_mutex);
          tickets.push_back(std::move(ticket));
        } else {
          busy.fetch_add(1);
        }
      }
    });
  }
  for (auto& s : submitters) s.join();
  // Drain races the tail of consumption; every accepted ticket completes.
  batcher.drain();
  for (const auto& ticket : tickets) {
    ticket->wait();
    EXPECT_TRUE(ticket->ok());
  }
  EXPECT_EQ(accepted.load() + busy.load(), kThreads * kPerThread);

  const serve::BatcherCounters c = batcher.counters();
  EXPECT_EQ(c.completed, static_cast<std::uint64_t>(accepted.load()));
  EXPECT_EQ(c.rejected_busy, static_cast<std::uint64_t>(busy.load()));
  // Submits after drain are refused.
  EXPECT_EQ(batcher.submit(entry, spec.repetitions, spec.master_seed, -1,
                           std::make_shared<serve::Ticket>()),
            serve::SubmitStatus::kDraining);
}

}  // namespace
}  // namespace flim
