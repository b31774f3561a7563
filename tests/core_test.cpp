// Unit tests for flim::core (RNG, statistics, tables, thread pool, campaign).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <set>

#include "core/backoff.hpp"
#include "core/campaign.hpp"
#include "core/check.hpp"
#include "core/clock.hpp"
#include "core/journal.hpp"
#include "core/minijson.hpp"
#include "core/report.hpp"
#include "core/rng.hpp"
#include "core/stats.hpp"
#include "core/sysinfo.hpp"
#include "core/thread_pool.hpp"

namespace flim::core {
namespace {

TEST(Rng, IsDeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DiffersAcrossSeeds) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
  }
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformIsRoughlyUniform) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform_double();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(13);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, BernoulliHandlesDegenerateProbabilities) {
  Rng rng(13);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  EXPECT_FALSE(rng.bernoulli(-1.0));
}

TEST(Rng, NormalHasExpectedMoments) {
  Rng rng(17);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.1);
  EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(Rng, DerivedStreamsAreIndependentAndDeterministic) {
  Rng base(5);
  Rng c1 = base.derive(1);
  Rng c2 = base.derive(2);
  Rng c1b = Rng(5).derive(1);
  EXPECT_EQ(c1(), c1b());
  EXPECT_NE(c1(), c2());
}

TEST(Rng, SampleWithoutReplacementIsExactAndDistinct) {
  Rng rng(23);
  const auto sample = rng.sample_without_replacement(100, 40);
  EXPECT_EQ(sample.size(), 40u);
  std::set<std::uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 40u);
  for (const auto v : sample) EXPECT_LT(v, 100u);
}

TEST(Rng, SampleWithoutReplacementFullPopulation) {
  Rng rng(29);
  const auto sample = rng.sample_without_replacement(10, 10);
  std::set<std::uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(Rng, SampleWithoutReplacementRejectsOversample) {
  Rng rng(31);
  EXPECT_THROW(rng.sample_without_replacement(5, 6), std::invalid_argument);
}

TEST(Rng, PoissonZeroMeanIsAlwaysZero) {
  Rng rng(37);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(Rng, PoissonRejectsNegativeMean) {
  Rng rng(41);
  EXPECT_THROW(rng.poisson(-1.0), std::invalid_argument);
}

TEST(Rng, PoissonSmallMeanMatchesMomentsLoosely) {
  // Poisson(mean) has mean == variance == `mean`; check both within a few
  // standard errors over many draws (Knuth branch, mean < 32).
  Rng rng(43);
  const double mean = 3.5;
  const int n = 20000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double k = static_cast<double>(rng.poisson(mean));
    sum += k;
    sum_sq += k * k;
  }
  const double sample_mean = sum / n;
  const double sample_var = sum_sq / n - sample_mean * sample_mean;
  EXPECT_NEAR(sample_mean, mean, 0.1);
  EXPECT_NEAR(sample_var, mean, 0.3);
}

TEST(Rng, PoissonLargeMeanUsesNormalApproximation) {
  Rng rng(47);
  const double mean = 400.0;
  const int n = 4000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(mean));
  EXPECT_NEAR(sum / n, mean, 2.0);
}

TEST(RunningStats, ComputesMeanAndVariance) {
  RunningStats s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyIsSafe) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.ci95_halfwidth(), 0.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats all, a, b;
  Rng rng(37);
  for (int i = 0; i < 500; ++i) {
    const double v = rng.normal();
    all.add(v);
    (i % 2 == 0 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.count(), all.count());
}

TEST(Stats, MedianAndQuantiles) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(quantile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile({1.0, 2.0, 3.0, 4.0, 5.0}, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Table, RendersAsciiAndCsv) {
  Table t({"name", "value"});
  t.add("alpha", 1.5);
  t.add("beta, with comma", 2);
  EXPECT_EQ(t.num_rows(), 2u);
  const std::string ascii = t.to_ascii();
  EXPECT_NE(ascii.find("alpha"), std::string::npos);
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"beta, with comma\""), std::string::npos);
}

TEST(Table, RejectsBadRowWidth) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, WritesCsvFile) {
  Table t({"x"});
  t.add(3.25);
  const std::string path = ::testing::TempDir() + "/flim_table_test.csv";
  t.write_csv(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header, row;
  std::getline(in, header);
  std::getline(in, row);
  EXPECT_EQ(header, "x");
  EXPECT_EQ(row.substr(0, 4), "3.25");
}

TEST(ThreadPool, RunsAllIterations) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.parallel_for(1000, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPool, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, ZeroIterationsIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(Campaign, RepeatsWithDerivedSeeds) {
  CampaignConfig cfg;
  cfg.repetitions = 50;
  cfg.master_seed = 99;
  std::set<std::uint64_t> seeds;
  const Summary s = run_repeated(cfg, [&](std::uint64_t seed) {
    seeds.insert(seed);
    return 1.0;
  });
  EXPECT_EQ(s.count, 50u);
  EXPECT_EQ(seeds.size(), 50u);  // all distinct
  EXPECT_DOUBLE_EQ(s.mean, 1.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(Campaign, IsReproducible) {
  CampaignConfig cfg;
  cfg.repetitions = 20;
  cfg.master_seed = 1234;
  auto metric = [](std::uint64_t seed) {
    return Rng(seed).uniform_double();
  };
  const Summary a = run_repeated(cfg, metric);
  const Summary b = run_repeated(cfg, metric);
  EXPECT_DOUBLE_EQ(a.mean, b.mean);
  EXPECT_DOUBLE_EQ(a.stddev, b.stddev);
}

TEST(Campaign, ParallelMatchesSerialMean) {
  CampaignConfig serial;
  serial.repetitions = 40;
  serial.master_seed = 5;
  auto metric = [](std::uint64_t seed) { return Rng(seed).uniform_double(); };
  const Summary s = run_repeated(serial, metric);

  ThreadPool pool(4);
  CampaignConfig parallel = serial;
  parallel.pool = &pool;
  const Summary p = run_repeated(parallel, metric);
  EXPECT_NEAR(s.mean, p.mean, 1e-12);
}

TEST(Campaign, SweepProducesOnePointPerX) {
  CampaignConfig cfg;
  cfg.repetitions = 5;
  const auto points =
      run_sweep(cfg, {0.0, 0.5, 1.0},
                [](double x, std::uint64_t) { return x * 2.0; });
  ASSERT_EQ(points.size(), 3u);
  EXPECT_DOUBLE_EQ(points[1].metric.mean, 1.0);
  EXPECT_DOUBLE_EQ(points[2].x, 1.0);
}

TEST(Campaign, ParallelIsBitIdenticalToSerial) {
  // Values are folded in repetition-index order, so pooled aggregation is
  // exactly the serial result, not merely close.
  CampaignConfig serial;
  serial.repetitions = 64;
  serial.master_seed = 77;
  auto metric = [](std::uint64_t seed) { return Rng(seed).uniform_double(); };
  const Summary s = run_repeated(serial, metric);

  ThreadPool pool(4);
  CampaignConfig parallel = serial;
  parallel.pool = &pool;
  const Summary p = run_repeated(parallel, metric);
  EXPECT_EQ(s.mean, p.mean);
  EXPECT_EQ(s.stddev, p.stddev);
  EXPECT_EQ(s.min, p.min);
  EXPECT_EQ(s.max, p.max);
}

TEST(Campaign, NullLabelFnFallsBackToNumericLabel) {
  CampaignConfig cfg;
  cfg.repetitions = 2;
  const auto points = run_sweep(cfg, std::vector<double>{0.25},
                                [](double x, std::uint64_t) { return x; });
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].label, "0.25");
}

TEST(Campaign, LabeledSweepKeepsGivenLabels) {
  CampaignConfig cfg;
  cfg.repetitions = 3;
  const std::vector<SweepPoint> pts{{0.0, "clean"}, {0.3, "heavy"}};
  const auto points =
      run_sweep(cfg, pts, [](double x, std::uint64_t) { return x + 1.0; });
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].label, "clean");
  EXPECT_EQ(points[1].label, "heavy");
  EXPECT_DOUBLE_EQ(points[1].metric.mean, 1.3);
  EXPECT_DOUBLE_EQ(points[1].x, 0.3);
}

TEST(Campaign, GridSweepIsRowMajorWithLastAxisFastest) {
  CampaignConfig cfg;
  cfg.repetitions = 2;
  const std::vector<SweepAxis> axes{
      {"a", {{1.0, "a1"}, {2.0, "a2"}}},
      {"b", {{10.0, "b10"}, {20.0, "b20"}, {30.0, "b30"}}}};
  std::vector<std::string> order;
  const auto cells = run_grid_sweep(
      cfg, axes,
      [](const std::vector<double>& xs, std::uint64_t) {
        return xs[0] + xs[1];
      },
      [&](const GridPoint& p) { order.push_back(p.labels[0] + p.labels[1]); });
  ASSERT_EQ(cells.size(), 6u);
  const std::vector<std::string> expected{"a1b10", "a1b20", "a1b30",
                                          "a2b10", "a2b20", "a2b30"};
  EXPECT_EQ(order, expected);
  EXPECT_DOUBLE_EQ(cells[0].metric.mean, 11.0);
  EXPECT_DOUBLE_EQ(cells[5].metric.mean, 32.0);
  EXPECT_EQ(cells[4].labels, (std::vector<std::string>{"a2", "b20"}));
  EXPECT_EQ(cells[4].coords, (std::vector<double>{2.0, 20.0}));
}

TEST(Campaign, GridSweepSeedsMatchRunRepeatedPerCell) {
  // Every cell must see the exact seed sequence run_repeated derives, so a
  // grid point reproduces the equivalent standalone campaign bit-for-bit.
  CampaignConfig cfg;
  cfg.repetitions = 4;
  cfg.master_seed = 99;
  auto metric_of = [](double x, std::uint64_t seed) {
    return x + Rng(seed).uniform_double();
  };
  const Summary standalone = run_repeated(
      cfg, [&](std::uint64_t seed) { return metric_of(5.0, seed); });
  const auto cells = run_grid_sweep(
      cfg, {{"x", {{1.0, "1"}, {5.0, "5"}}}},
      [&](const std::vector<double>& xs, std::uint64_t seed) {
        return metric_of(xs[0], seed);
      });
  EXPECT_EQ(cells[1].metric.mean, standalone.mean);
  EXPECT_EQ(cells[1].metric.stddev, standalone.stddev);
}

TEST(Campaign, ForEachGridIndexHandlesDegenerateShapes) {
  int calls = 0;
  for_each_grid_index({}, [&](const std::vector<std::size_t>& idx) {
    EXPECT_TRUE(idx.empty());
    ++calls;
  });
  EXPECT_EQ(calls, 1);  // zero axes = one (empty) cell
  for_each_grid_index({3, 0}, [&](const std::vector<std::size_t>&) {
    FAIL() << "a zero-sized axis must produce no cells";
  });
}

TEST(Campaign, GridSweepRejectsDegenerateAxes) {
  CampaignConfig cfg;
  cfg.repetitions = 1;
  auto metric = [](const std::vector<double>&, std::uint64_t) { return 0.0; };
  EXPECT_THROW(run_grid_sweep(cfg, {}, metric), std::invalid_argument);
  EXPECT_THROW(run_grid_sweep(cfg, {{"empty", {}}}, metric),
               std::invalid_argument);
}

TEST(Table, RendersJson) {
  Table t({"name", "value"});
  t.add("plain", 1);
  t.add("needs \"escaping\"\n", 2);
  const std::string json = t.to_json();
  EXPECT_NE(json.find("\"name\": \"plain\""), std::string::npos);
  EXPECT_NE(json.find("\\\"escaping\\\"\\n"), std::string::npos);
  EXPECT_EQ(json.front(), '[');
}

TEST(Campaign, RejectsZeroRepetitions) {
  CampaignConfig cfg;
  cfg.repetitions = 0;
  EXPECT_THROW(run_repeated(cfg, [](std::uint64_t) { return 0.0; }),
               std::invalid_argument);
}

TEST(SysInfo, CollectsBasicFields) {
  const SystemInfo info = collect_system_info();
  EXPECT_GT(info.logical_cores, 0);
  EXPECT_FALSE(info.compiler.empty());
  EXPECT_FALSE(info.library_version.empty());
  const std::string report = format_system_info(info);
  EXPECT_NE(report.find("CPU"), std::string::npos);
  EXPECT_NE(report.find("FLIM"), std::string::npos);
}

TEST(Campaign, SelectedGridSweepMatchesFullSweepPerCell) {
  // The resume/shard foundation: evaluating any subset of cells produces
  // bit-identical summaries to the full sweep, tagged with row-major flat
  // indices.
  CampaignConfig cfg;
  cfg.repetitions = 3;
  cfg.master_seed = 7;
  const std::vector<SweepAxis> axes{
      {"a", {{1.0, "a1"}, {2.0, "a2"}}},
      {"b", {{10.0, "b10"}, {20.0, "b20"}, {30.0, "b30"}}}};
  auto metric = [](const std::vector<double>& xs, std::uint64_t seed,
                   std::size_t) {
    return xs[0] + xs[1] + Rng(seed).uniform_double();
  };
  const auto full = run_grid_sweep(cfg, axes, metric);
  const auto odd = run_grid_sweep_selected(
      cfg, axes, [](std::size_t flat) { return flat % 2 == 1; }, metric);
  ASSERT_EQ(odd.size(), 3u);
  for (const SelectedGridPoint& sp : odd) {
    EXPECT_EQ(sp.flat_index % 2, 1u);
    EXPECT_EQ(sp.point.metric.mean, full[sp.flat_index].metric.mean);
    EXPECT_EQ(sp.point.metric.stddev, full[sp.flat_index].metric.stddev);
    EXPECT_EQ(sp.point.labels, full[sp.flat_index].labels);
    EXPECT_EQ(sp.point.coords, full[sp.flat_index].coords);
  }
  // A null selector evaluates everything; zero axes evaluate one cell.
  EXPECT_EQ(run_grid_sweep_selected(cfg, axes, nullptr, metric).size(), 6u);
  const auto single = run_grid_sweep_selected(
      cfg, {}, nullptr,
      [](const std::vector<double>& xs, std::uint64_t, std::size_t) {
        return static_cast<double>(xs.size());
      });
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single[0].flat_index, 0u);
  EXPECT_DOUBLE_EQ(single[0].point.metric.mean, 0.0);
}

TEST(Sysinfo, Fnv1a64IsStableAndSensitive) {
  // Reference vectors from the FNV specification; persisted fingerprints
  // rely on these exact values on every platform.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_NE(fnv1a64("campaign-a"), fnv1a64("campaign-b"));
  EXPECT_EQ(hash_hex(0xcbf29ce484222325ull), "cbf29ce484222325");
  EXPECT_EQ(hash_hex(0x1ull), "0000000000000001");
  EXPECT_NE(code_fingerprint().find("flim-"), std::string::npos);
}

TEST(Report, RoundTripDoubleIsExact) {
  const std::vector<double> values{0.0, 1.0 / 3.0, 0.1, 6.02e23, 5e-324,
                                   -0.036084391824351615};
  for (const double v : values) {
    const std::string text = format_double_roundtrip(v);
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), v) << text;
  }
}

TEST(Backoff, GrowsExponentiallyAndSaturates) {
  BackoffPolicy policy;
  policy.initial_delay_ms = 100;
  policy.max_delay_ms = 1000;
  policy.multiplier = 2.0;
  policy.jitter_fraction = 0.0;
  Rng rng(1);
  EXPECT_EQ(backoff_delay_ms(policy, 0, rng), 100);
  EXPECT_EQ(backoff_delay_ms(policy, 1, rng), 200);
  EXPECT_EQ(backoff_delay_ms(policy, 2, rng), 400);
  EXPECT_EQ(backoff_delay_ms(policy, 3, rng), 800);
  EXPECT_EQ(backoff_delay_ms(policy, 4, rng), 1000);
  // Huge attempt counts must clamp to the ceiling, not overflow.
  EXPECT_EQ(backoff_delay_ms(policy, 500, rng), 1000);
}

TEST(Backoff, JitterStaysInBandAndIsSeedDeterministic) {
  BackoffPolicy policy;
  policy.initial_delay_ms = 1000;
  policy.max_delay_ms = 1000;
  policy.jitter_fraction = 0.2;
  Rng a(42), b(42);
  for (int attempt = 0; attempt < 50; ++attempt) {
    const std::int64_t delay = backoff_delay_ms(policy, attempt, a);
    EXPECT_GE(delay, 800);
    EXPECT_LE(delay, 1200);
    EXPECT_EQ(delay, backoff_delay_ms(policy, attempt, b));
  }
}

TEST(Backoff, ValidatesPolicyAndNeverSleepsZero) {
  BackoffPolicy bad;
  bad.initial_delay_ms = 0;
  Rng rng(1);
  EXPECT_THROW(backoff_delay_ms(bad, 0, rng), std::invalid_argument);
  bad.initial_delay_ms = 10;
  bad.max_delay_ms = 5;
  EXPECT_THROW(backoff_delay_ms(bad, 0, rng), std::invalid_argument);
  bad.max_delay_ms = 10;
  bad.jitter_fraction = 1.0;
  EXPECT_THROW(backoff_delay_ms(bad, 0, rng), std::invalid_argument);
  // A tiny delay with maximal downward jitter still sleeps at least 1 ms.
  BackoffPolicy tiny;
  tiny.initial_delay_ms = 1;
  tiny.max_delay_ms = 1;
  tiny.jitter_fraction = 0.99;
  for (int i = 0; i < 100; ++i) {
    EXPECT_GE(backoff_delay_ms(tiny, 0, rng), 1);
  }
}

TEST(Clock, SteadyClockAdvancesMonotonically) {
  const std::int64_t before = steady_now_ms();
  sleep_ms(2);
  const std::int64_t after = steady_now_ms();
  EXPECT_GE(after - before, 1);
  sleep_ms(0);   // no-op
  sleep_ms(-5);  // no-op
}

TEST(MiniJson, ParsesNumbersStringsAndArrays) {
  const auto obj = parse_json_object_line(
      R"({"n": 1.5, "s": "a\nb", "a": [1, "two"], "e": []})");
  EXPECT_DOUBLE_EQ(json_number(obj, "n"), 1.5);
  EXPECT_EQ(json_string(obj, "s"), "a\nb");
  ASSERT_EQ(json_array(obj, "a").size(), 2u);
  EXPECT_DOUBLE_EQ(json_array(obj, "a")[0].number, 1.0);
  EXPECT_EQ(json_array(obj, "a")[1].text, "two");
  EXPECT_TRUE(json_array(obj, "e").empty());
}

TEST(MiniJson, RejectsMalformedInputWithJsonError) {
  EXPECT_THROW(parse_json_object_line("{\"k\": }"), JsonError);
  EXPECT_THROW(parse_json_object_line("{\"k\": 1} trailing"), JsonError);
  EXPECT_THROW(parse_json_object_line("{\"unterminated"), JsonError);
  const auto obj = parse_json_object_line("{\"k\": 1}");
  EXPECT_THROW(json_string(obj, "k"), JsonError);
  EXPECT_THROW(json_number(obj, "missing"), JsonError);
}

TEST(MiniJson, IntAcceptsOnlyFiniteIntegralNumbersInRange) {
  const auto obj = parse_json_object_line(
      R"({"i": -7, "big": 1e30, "frac": 2.9, "s": "3", )"
      R"("min": -2147483648, "two31": 2147483648, )"
      R"("two63": 9223372036854775808, "two64": 18446744073709551616, )"
      R"("a": [4, 16.5, -5]})");
  EXPECT_EQ(json_int<int>(obj, "i"), -7);
  EXPECT_THROW(json_int<std::uint64_t>(obj, "i"), JsonError);
  EXPECT_THROW(json_int<int>(obj, "big"), JsonError);
  EXPECT_THROW(json_int<std::uint64_t>(obj, "big"), JsonError);
  EXPECT_THROW(json_int<int>(obj, "frac"), JsonError);
  EXPECT_THROW(json_int<int>(obj, "s"), JsonError);
  EXPECT_THROW(json_int<int>(obj, "missing"), JsonError);
  // Each type's range is [min, 2^digits): the minimum is in, the power of
  // two just past the maximum is out.
  EXPECT_EQ(json_int<int>(obj, "min"), std::numeric_limits<int>::min());
  EXPECT_THROW(json_int<int>(obj, "two31"), JsonError);
  EXPECT_EQ(json_int<std::uint64_t>(obj, "two63"), std::uint64_t{1} << 63);
  EXPECT_THROW(json_int<std::uint64_t>(obj, "two64"), JsonError);

  const std::vector<JsonValue>& items = json_array(obj, "a");
  EXPECT_EQ(json_int<int>(items[0], "a[0]"), 4);
  EXPECT_THROW(json_int<std::uint64_t>(items[1], "a[1]"), JsonError);
  EXPECT_THROW(json_int<std::uint64_t>(items[2], "a[2]"), JsonError);

  JsonValue odd;
  for (const double v : {std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
    odd.number = v;
    EXPECT_THROW(json_int<int>(odd, "odd"), JsonError) << v;
  }
}

TEST(MiniJson, U64StringAcceptsOnlyDigitsInRange) {
  const auto obj = parse_json_object_line(
      R"({"max": "18446744073709551615", "zero": "0", )"
      R"("over": "18446744073709551616", "neg": "-1", "plus": "+1", )"
      R"("blank": " 1", "empty": "", "hex": "0x1", "tail": "12a", "num": 12})");
  EXPECT_EQ(json_u64_string(obj, "max"), ~std::uint64_t{0});
  EXPECT_EQ(json_u64_string(obj, "zero"), 0u);
  for (const char* key : {"over", "neg", "plus", "blank", "empty", "hex",
                          "tail", "num", "missing"}) {
    EXPECT_THROW(json_u64_string(obj, key), JsonError) << key;
  }
}

TEST(Journal, OwnedCountMatchesThePartition) {
  for (std::uint64_t total = 0; total <= 20; ++total) {
    for (int count = 1; count <= 5; ++count) {
      std::uint64_t covered = 0;
      for (int index = 0; index < count; ++index) {
        std::uint64_t owned = 0;
        for (std::uint64_t i = 0; i < total; ++i) {
          if (shard_owns(i, index, count)) ++owned;
        }
        EXPECT_EQ(shard_owned_count(total, index, count), owned)
            << index << "/" << count << " of " << total;
        covered += owned;
      }
      EXPECT_EQ(covered, total);
    }
  }
}

TEST(Journal, ShardIdentityMustBeInRange) {
  EXPECT_NO_THROW(check_shard(0, 1));
  EXPECT_NO_THROW(check_shard(6, 7));
  for (const auto& [index, count] : {std::pair{0, 0}, std::pair{7, 1},
                                     std::pair{-1, 2}, std::pair{2, 2}}) {
    EXPECT_THROW(check_shard(index, count), std::invalid_argument)
        << index << "/" << count;
    EXPECT_THROW(shard_owns(0, index, count), std::invalid_argument);
    EXPECT_THROW(shard_owned_count(10, index, count), std::invalid_argument);
  }
}

TEST(Check, RequireThrowsWithMessage) {
  try {
    FLIM_REQUIRE(1 == 2, "math broke");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("math broke"), std::string::npos);
  }
}

}  // namespace
}  // namespace flim::core
