// Tests for the scenario layer: engine factory, spec validation, backend
// equivalence across the factory boundary, and runner determinism.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>

#include "core/rng.hpp"
#include "core/sysinfo.hpp"
#include "data/synthetic_mnist.hpp"
#include "exp/scenario.hpp"
#include "fault/fault_registry.hpp"
#include "models/zoo.hpp"

namespace flim::exp {
namespace {

using tensor::BitMatrix;
using tensor::FloatTensor;
using tensor::IntTensor;
using tensor::Shape;

// ---------------------------------------------------------------------------
// Engine factory

TEST(EngineFactory, ParsesBackendNames) {
  EXPECT_EQ(parse_backend("reference"), Backend::kReference);
  EXPECT_EQ(parse_backend("flim"), Backend::kFlim);
  EXPECT_EQ(parse_backend("device"), Backend::kDevice);
  EXPECT_EQ(parse_backend("xfault"), Backend::kDevice);
  EXPECT_EQ(parse_backend("tmr"), Backend::kTmr);
  EXPECT_THROW(parse_backend("gpu"), std::invalid_argument);
  EXPECT_EQ(to_string(Backend::kDevice), "device");
}

TEST(EngineFactory, ValidatesSpecs) {
  EngineSpec tmr;
  tmr.backend = Backend::kTmr;
  tmr.tmr_replicas = 2;  // even
  EXPECT_THROW(validate(tmr), std::invalid_argument);
  tmr.tmr_replicas = 3;
  validate(tmr);

  EngineSpec device;
  device.backend = Backend::kDevice;
  device.device.crossbar.rows = 0;
  EXPECT_THROW(validate(device), std::invalid_argument);
}

TEST(EngineFactory, ReferenceRejectsFaultVectors) {
  EngineSpec spec;
  spec.backend = Backend::kReference;
  fault::RealizedFault component;
  component.model = "bitflip";
  component.mask = fault::FaultMask(4, 4);
  fault::FaultVectorEntry entry;
  entry.layer_name = "layer";
  entry.components.push_back(component);
  fault::FaultVectorFile vectors;
  vectors.add(entry);
  EXPECT_THROW(make_engine(spec, vectors), std::invalid_argument);
  EXPECT_NE(make_engine(spec), nullptr);  // clean construction is fine
}

FloatTensor random_pm1(const Shape& shape, std::uint64_t seed) {
  core::Rng rng(seed);
  FloatTensor t(shape);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = rng.bernoulli(0.5) ? 1.0f : -1.0f;
  }
  return t;
}

/// Random product-term (gate-grid) fault vectors for one layer.
fault::FaultVectorFile gate_vectors(fault::FaultKind kind, double rate,
                                    std::uint64_t seed) {
  fault::FaultSpec spec;
  spec.kind = kind;
  spec.injection_rate = rate;
  fault::RealizeContext ctx;
  ctx.grid = {3, 4};
  core::Rng rng(seed);
  fault::FaultVectorFile file;
  file.add(fault::stack_from_spec(spec).realize_entry(
      "layer", fault::FaultGranularity::kProductTerm, ctx, rng));
  return file;
}

// The cross-validation contract through the factory: FLIM and the device
// backend are bit-equivalent on the same product-term mask (DESIGN.md).
TEST(EngineFactory, FlimAndDeviceAgreeOnSameMask) {
  const BitMatrix a = BitMatrix::from_float(random_pm1(Shape{4, 12}, 3));
  const BitMatrix w = BitMatrix::from_float(random_pm1(Shape{3, 12}, 4));
  const fault::FaultVectorFile vectors =
      gate_vectors(fault::FaultKind::kStuckAt, 0.25, 11);

  EngineSpec flim_spec;
  flim_spec.backend = Backend::kFlim;
  EngineSpec device_spec;
  device_spec.backend = Backend::kDevice;

  IntTensor flim_out;
  make_engine(flim_spec, vectors)->execute("layer", a, w, 1, flim_out);
  IntTensor device_out;
  make_engine(device_spec, vectors)->execute("layer", a, w, 1, device_out);
  EXPECT_EQ(flim_out, device_out);
}

TEST(EngineFactory, TmrWithIdenticalReplicasMatchesSingleFlim) {
  const BitMatrix a = BitMatrix::from_float(random_pm1(Shape{5, 12}, 6));
  const BitMatrix w = BitMatrix::from_float(random_pm1(Shape{3, 12}, 7));
  const fault::FaultVectorFile vectors =
      gate_vectors(fault::FaultKind::kBitFlip, 0.3, 12);

  EngineSpec flim_spec;
  flim_spec.backend = Backend::kFlim;
  IntTensor flim_out;
  make_engine(flim_spec, vectors)->execute("layer", a, w, 1, flim_out);

  EngineSpec tmr_spec;
  tmr_spec.backend = Backend::kTmr;
  tmr_spec.tmr_replicas = 3;
  IntTensor tmr_out;
  make_engine(tmr_spec, vectors)->execute("layer", a, w, 1, tmr_out);
  EXPECT_EQ(tmr_out, flim_out);  // identical replicas vote unanimously
}

TEST(EngineFactory, TmrReplicaOverloadChecksCount) {
  EngineSpec spec;
  spec.backend = Backend::kTmr;
  spec.tmr_replicas = 3;
  const std::vector<fault::FaultVectorFile> two(2);
  EXPECT_THROW(make_engine(spec, two), std::invalid_argument);
  const std::vector<fault::FaultVectorFile> three(3);
  EXPECT_NE(make_engine(spec, three), nullptr);
}

// ---------------------------------------------------------------------------
// Scenario validation (no workload required)

ScenarioSpec tiny_scenario() {
  ScenarioSpec s;
  s.workload.model = "lenet";
  s.workload.eval_images = 16;
  s.workload.epochs = 1;
  s.workload.train_samples = 32;
  s.workload.weights_dir = ::testing::TempDir() + "flim_exp_weights";
  s.workload.measure_clean_accuracy = true;
  s.axes = {rate_axis({0.0, 0.2})};
  s.repetitions = 2;
  s.master_seed = 7;
  return s;
}

TEST(ScenarioValidation, AcceptsTheTinySpec) { validate(tiny_scenario()); }

TEST(ScenarioValidation, RejectsBadSpecs) {
  {
    ScenarioSpec s = tiny_scenario();
    s.repetitions = 0;
    EXPECT_THROW(validate(s), std::invalid_argument);
  }
  {
    ScenarioSpec s = tiny_scenario();
    s.jobs = 0;
    EXPECT_THROW(validate(s), std::invalid_argument);
  }
  {
    ScenarioSpec s = tiny_scenario();
    s.workload.model = "no-such-model";
    EXPECT_THROW(validate(s), std::invalid_argument);
  }
  {
    ScenarioSpec s = tiny_scenario();
    s.workload.eval_images = 0;
    EXPECT_THROW(validate(s), std::invalid_argument);
  }
  {
    ScenarioSpec s = tiny_scenario();
    s.grid = {0, 64};
    EXPECT_THROW(validate(s), std::invalid_argument);
  }
  {
    ScenarioSpec s = tiny_scenario();
    s.axes.push_back({AxisKind::kDynamicPeriod, "period", {}});
    EXPECT_THROW(validate(s), std::invalid_argument);
  }
  {
    // An axis value producing an invalid effective fault spec fails at
    // validation time, before any (expensive) workload load.
    ScenarioSpec s = tiny_scenario();
    s.axes = {rate_axis({0.0, 1.5})};
    EXPECT_THROW(validate(s), std::invalid_argument);
  }
  {
    ScenarioSpec s = tiny_scenario();
    s.engine.backend = Backend::kTmr;
    s.engine.tmr_replicas = 4;
    EXPECT_THROW(validate(s), std::invalid_argument);
  }
}

TEST(ScenarioValidation, RunnerValidatesAtConstruction) {
  ScenarioSpec s = tiny_scenario();
  s.repetitions = -3;
  EXPECT_THROW(ScenarioRunner{s}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Runner behaviour on a tiny trained workload (sub-second training; the
// weight cache is shared across tests through the fixed weights_dir).

const Workload& tiny_workload() {
  static const Workload* w = new Workload(load_workload(tiny_scenario().workload));
  return *w;
}

TEST(ScenarioRunner, SweepsTheGridRowMajor) {
  ScenarioSpec s = tiny_scenario();
  s.axes = {rate_axis({0.0, 0.3}), layers_axis({"conv1", "combined"})};
  std::vector<std::string> order;
  ScenarioRunner runner(s);
  const ScenarioResult result =
      runner.run(tiny_workload(), [&](const ScenarioPoint& p) {
        order.push_back(p.labels[0] + "/" + p.labels[1]);
      });
  ASSERT_EQ(result.points.size(), 4u);
  const std::vector<std::string> expected{"0.000/conv1", "0.000/combined",
                                          "0.300/conv1", "0.300/combined"};
  EXPECT_EQ(order, expected);
  EXPECT_EQ(result.axis_names, (std::vector<std::string>{"rate", "layer"}));
  EXPECT_EQ(result.axis_sizes, (std::vector<std::size_t>{2, 2}));
  // at() resolves row-major indices.
  EXPECT_EQ(result.at({1, 1}).mean, result.points[3].metric.mean);
  // Rate 0 on every series is the clean accuracy.
  EXPECT_DOUBLE_EQ(result.at({0, 0}).mean, tiny_workload().clean_accuracy);
  EXPECT_DOUBLE_EQ(result.at({0, 1}).mean, tiny_workload().clean_accuracy);
}

TEST(ScenarioRunner, RejectsFilterNamingNoBinarizedLayer) {
  {
    ScenarioSpec s = tiny_scenario();
    s.axes = {rate_axis({0.1}), layers_axis({"conv_1"})};  // typo for conv1
    EXPECT_THROW(ScenarioRunner(s).run(tiny_workload()),
                 std::invalid_argument);
  }
  {
    ScenarioSpec s = tiny_scenario();
    s.layer_filter = {"dens0"};  // typo for dense0
    EXPECT_THROW(ScenarioRunner(s).run(tiny_workload()),
                 std::invalid_argument);
  }
}

TEST(ScenarioRunner, IsDeterministicAcrossRuns) {
  ScenarioRunner runner(tiny_scenario());
  const ScenarioResult a = runner.run(tiny_workload());
  const ScenarioResult b = runner.run(tiny_workload());
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].metric.mean, b.points[i].metric.mean);
    EXPECT_EQ(a.points[i].metric.stddev, b.points[i].metric.stddev);
  }
}

TEST(ScenarioRunner, PooledRunIsBitIdenticalToSerial) {
  ScenarioSpec s = tiny_scenario();
  s.repetitions = 6;
  ScenarioRunner serial(s);
  const ScenarioResult sr = serial.run(tiny_workload());

  s.jobs = 4;
  ScenarioRunner pooled(s);
  const ScenarioResult pr = pooled.run(tiny_workload());

  ASSERT_EQ(sr.points.size(), pr.points.size());
  for (std::size_t i = 0; i < sr.points.size(); ++i) {
    EXPECT_EQ(sr.points[i].metric.mean, pr.points[i].metric.mean);
    EXPECT_EQ(sr.points[i].metric.stddev, pr.points[i].metric.stddev);
    EXPECT_EQ(sr.points[i].metric.min, pr.points[i].metric.min);
    EXPECT_EQ(sr.points[i].metric.max, pr.points[i].metric.max);
  }
}

TEST(ScenarioRunner, FlimAndDeviceBackendsAgreeEndToEnd) {
  // The paper's FLIM <-> X-Fault cross-validation, through the scenario
  // layer: identical seeds and product-term masks must give identical
  // accuracy summaries on both backends. Kept tiny -- the device engine
  // simulates every XNOR gate-by-gate.
  ScenarioSpec s = tiny_scenario();
  s.workload.eval_images = 2;
  s.fault.kind = fault::FaultKind::kStuckAt;
  s.fault.granularity = fault::FaultGranularity::kProductTerm;
  s.grid = {8, 8};
  s.axes = {rate_axis({0.1})};
  s.repetitions = 1;

  const Workload workload = load_workload(s.workload);

  s.engine.backend = Backend::kFlim;
  const ScenarioResult flim = ScenarioRunner(s).run(workload);
  s.engine.backend = Backend::kDevice;
  const ScenarioResult device = ScenarioRunner(s).run(workload);

  ASSERT_EQ(flim.points.size(), 1u);
  ASSERT_EQ(device.points.size(), 1u);
  EXPECT_EQ(flim.points[0].metric.mean, device.points[0].metric.mean);
}

TEST(ScenarioRunner, TmrAtRateZeroMatchesCleanAccuracy) {
  ScenarioSpec s = tiny_scenario();
  s.engine.backend = Backend::kTmr;
  s.engine.tmr_replicas = 3;
  s.axes = {rate_axis({0.0})};
  s.repetitions = 1;
  const ScenarioResult result = ScenarioRunner(s).run(tiny_workload());
  EXPECT_DOUBLE_EQ(result.points[0].metric.mean,
                   tiny_workload().clean_accuracy);
}

TEST(ScenarioRunner, ReferenceBackendIgnoresFaultAxes) {
  ScenarioSpec s = tiny_scenario();
  s.engine.backend = Backend::kReference;
  s.axes = {rate_axis({0.0, 0.3})};
  s.repetitions = 1;
  const ScenarioResult result = ScenarioRunner(s).run(tiny_workload());
  EXPECT_DOUBLE_EQ(result.points[0].metric.mean,
                   tiny_workload().clean_accuracy);
  EXPECT_DOUBLE_EQ(result.points[1].metric.mean,
                   tiny_workload().clean_accuracy);
}

TEST(ScenarioRunner, NoAxesEvaluatesTheBasePoint) {
  ScenarioSpec s = tiny_scenario();
  s.axes.clear();
  s.fault.injection_rate = 0.0;
  const ScenarioResult result = ScenarioRunner(s).run(tiny_workload());
  ASSERT_EQ(result.points.size(), 1u);
  EXPECT_TRUE(result.axis_names.empty());
  EXPECT_DOUBLE_EQ(result.at({}).mean, tiny_workload().clean_accuracy);
}

TEST(ScenarioResult, EmitsTableCsvAndJson) {
  ScenarioSpec s = tiny_scenario();
  ScenarioRunner runner(s);
  const ScenarioResult result = runner.run(tiny_workload());
  const core::Table table = result.to_table();
  EXPECT_EQ(table.columns(),
            (std::vector<std::string>{"rate", "accuracy_%", "stddev_%",
                                      "min_%", "max_%"}));
  EXPECT_EQ(table.num_rows(), 2u);

  const std::string csv_path = ::testing::TempDir() + "exp_result.csv";
  const std::string json_path = ::testing::TempDir() + "exp_result.json";
  result.write_csv(csv_path);
  result.write_json(json_path);
  std::ifstream csv(csv_path);
  std::string header;
  std::getline(csv, header);
  EXPECT_EQ(header, "rate,accuracy_%,stddev_%,min_%,max_%");
  std::ifstream json(json_path);
  std::string first;
  std::getline(json, first);
  EXPECT_EQ(first, "[");
  std::remove(csv_path.c_str());
  std::remove(json_path.c_str());
}

// ---------------------------------------------------------------------------
// Composable fault expressions through the scenario layer.

TEST(ScenarioValidation, FaultExpressionsAreValidatedUpFront) {
  {
    ScenarioSpec s = tiny_scenario();
    s.fault_expr = "no-such-model(rate=0.1)";
    EXPECT_THROW(validate(s), std::invalid_argument);
  }
  {
    ScenarioSpec s = tiny_scenario();
    s.axes = {fault_expr_axis({"bitflip(rate=0.1)"})};
    validate(s);  // a good expression axis passes
  }
  {
    // Expression axes are parsed at construction: bad values fail early.
    EXPECT_THROW(fault_expr_axis({"bitflip(rate=2)"}), std::invalid_argument);
  }
  {
    // drift cannot produce static product-term planes.
    ScenarioSpec s = tiny_scenario();
    s.fault.granularity = fault::FaultGranularity::kProductTerm;
    s.fault_expr = "drift(rate=0.1)";
    s.axes.clear();
    EXPECT_THROW(validate(s), std::invalid_argument);
  }
  {
    // The device backend cannot realize data/time-dependent models.
    ScenarioSpec s = tiny_scenario();
    s.engine.backend = Backend::kDevice;
    s.fault_expr = "readdisturb(rate=0.1)";
    s.axes.clear();
    EXPECT_THROW(validate(s), std::invalid_argument);
  }
  {
    // Expression points carry their rates in the model params, so the
    // legacy clustered-needs-a-rate rule must not reject expr+clustered
    // scenarios (the base spec's injection_rate is unused there).
    ScenarioSpec s = tiny_scenario();
    s.fault.distribution = fault::FaultDistribution::kClustered;
    s.fault_expr = "bitflip(rate=0.1)";
    s.axes.clear();
    validate(s);
    s.fault.cluster_radius = 0.0;  // other placement checks still apply
    EXPECT_THROW(validate(s), std::invalid_argument);
  }
}

/// Runs `spec` on the shared tiny workload and returns the result.
ScenarioResult run_tiny(ScenarioSpec spec) {
  return ScenarioRunner(std::move(spec)).run(tiny_workload());
}

// Golden equivalence: a paper kind swept through the expression path must
// reproduce the legacy single-kind sweep summaries exactly -- same seeds,
// same masks, same numbers (the byte-identical-CSV contract, asserted on
// the summary values that feed the CSV writer).
TEST(ScenarioRunner, ExpressionPathMatchesLegacyKindPath) {
  struct Case {
    fault::FaultKind kind;
    const char* zero;
    const char* faulty;
  };
  const std::vector<Case> cases{
      {fault::FaultKind::kBitFlip, "bitflip(rate=0)", "bitflip(rate=0.25)"},
      {fault::FaultKind::kStuckAt, "stuckat(rate=0)", "stuckat(rate=0.25)"},
      {fault::FaultKind::kDynamic, "dynamic(rate=0,period=3)",
       "dynamic(rate=0.25,period=3)"},
  };
  for (const Case& c : cases) {
    ScenarioSpec legacy = tiny_scenario();
    legacy.fault.kind = c.kind;
    legacy.fault.dynamic_period = 3;
    legacy.axes = {rate_axis({0.0, 0.25})};

    ScenarioSpec expr = tiny_scenario();
    expr.axes = {fault_expr_axis({c.zero, c.faulty})};

    const ScenarioResult a = run_tiny(legacy);
    const ScenarioResult b = run_tiny(expr);
    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t i = 0; i < a.points.size(); ++i) {
      EXPECT_EQ(a.points[i].metric.mean, b.points[i].metric.mean)
          << fault::to_string(c.kind) << " point " << i;
      EXPECT_EQ(a.points[i].metric.stddev, b.points[i].metric.stddev);
      EXPECT_EQ(a.points[i].metric.min, b.points[i].metric.min);
      EXPECT_EQ(a.points[i].metric.max, b.points[i].metric.max);
    }
  }
}

TEST(ScenarioRunner, ExpressionPathMatchesLegacyOnDeviceBackend) {
  ScenarioSpec legacy = tiny_scenario();
  legacy.workload.eval_images = 2;
  legacy.engine.backend = Backend::kDevice;
  legacy.fault.kind = fault::FaultKind::kStuckAt;
  legacy.fault.granularity = fault::FaultGranularity::kProductTerm;
  legacy.grid = {8, 8};
  legacy.axes = {rate_axis({0.1})};
  legacy.repetitions = 1;

  ScenarioSpec expr = legacy;
  expr.axes = {fault_expr_axis({"stuckat(rate=0.1)"})};

  const Workload workload = load_workload(legacy.workload);
  const ScenarioResult a = ScenarioRunner(legacy).run(workload);
  const ScenarioResult b = ScenarioRunner(expr).run(workload);
  EXPECT_EQ(a.points[0].metric.mean, b.points[0].metric.mean);
}

// Satellite regression: product-term campaigns must stay bit-identical
// between serial and pooled execution (the injector's term-mask cache is
// shared state guarded against concurrent builds).
TEST(ScenarioRunner, PooledProductTermCampaignIsBitIdenticalToSerial) {
  ScenarioSpec s = tiny_scenario();
  s.fault.kind = fault::FaultKind::kStuckAt;
  s.fault.granularity = fault::FaultGranularity::kProductTerm;
  s.grid = {16, 16};
  s.axes = {rate_axis({0.0, 0.2})};
  s.repetitions = 6;

  const ScenarioResult serial = run_tiny(s);
  s.jobs = 4;
  const ScenarioResult pooled = run_tiny(s);
  ASSERT_EQ(serial.points.size(), pooled.points.size());
  for (std::size_t i = 0; i < serial.points.size(); ++i) {
    EXPECT_EQ(serial.points[i].metric.mean, pooled.points[i].metric.mean);
    EXPECT_EQ(serial.points[i].metric.stddev, pooled.points[i].metric.stddev);
    EXPECT_EQ(serial.points[i].metric.min, pooled.points[i].metric.min);
    EXPECT_EQ(serial.points[i].metric.max, pooled.points[i].metric.max);
  }
}

TEST(ScenarioRunner, NewModelsSweepEndToEnd) {
  // readdisturb / drift / coupling run end-to-end, deterministically, and a
  // rate-0 stack reproduces the clean accuracy.
  ScenarioSpec s = tiny_scenario();
  s.axes = {fault_expr_axis(
      {"readdisturb(rate=0)", "readdisturb(rate=0.3)", "drift(rate=0.3,tau=2)",
       "coupling(rate=0.1,strength=0.8)",
       "stuckat(rate=0.05)+drift(rate=0.1,tau=3)"})};
  const ScenarioResult a = run_tiny(s);
  const ScenarioResult b = run_tiny(s);
  ASSERT_EQ(a.points.size(), 5u);
  EXPECT_DOUBLE_EQ(a.points[0].metric.mean, tiny_workload().clean_accuracy);
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_GE(a.points[i].metric.mean, 0.0);
    EXPECT_LE(a.points[i].metric.mean, 1.0);
    EXPECT_EQ(a.points[i].metric.mean, b.points[i].metric.mean);
  }
  // The expression axis canonicalizes labels.
  EXPECT_EQ(a.points[4].labels[0], "stuckat(rate=0.05)+drift(rate=0.1,tau=3)");
}

// ---------------------------------------------------------------------------
// Pinned campaign results: FNV-1a checksums of the campaign CSV for every
// paper fault shape, on an untrained LeNet built from its seed (no training,
// so the whole case runs in seconds). A mismatch prints the observed
// checksum; edit a constant only for an intended change in fault
// realization or arithmetic, since every published campaign CSV drifts
// with it.

Workload untrained_lenet(std::int64_t images) {
  data::SyntheticMnistOptions d;
  d.size = images;
  const data::SyntheticMnist ds(d);
  Workload w;
  w.model = models::build_lenet_binary(7).to_inference_model();
  w.eval_batch = data::load_batch(ds, 0, images);
  w.layers = w.model.analyze(FloatTensor(Shape{1, 1, 28, 28}, 0.5f))
                 .binarized_layers;
  return w;
}

struct CampaignGolden {
  const char* what;
  std::function<void(ScenarioSpec&)> configure;
  std::uint64_t checksum;
};

TEST(ScenarioGolden, CampaignCsvMatchesPinnedChecksums) {
  using fault::FaultGranularity;
  using fault::FaultKind;
  const std::vector<CampaignGolden> goldens{
      {"bitflip", [](ScenarioSpec&) {}, 0x8ac2b95b1c53863dull},
      {"stuckat sa1=0.7",
       [](ScenarioSpec& s) {
         s.fault.kind = FaultKind::kStuckAt;
         s.fault.stuck_at_one_fraction = 0.7;
       },
       0x8e0d6c528bfc0d61ull},
      {"dynamic period=3",
       [](ScenarioSpec& s) {
         s.fault.kind = FaultKind::kDynamic;
         s.fault.dynamic_period = 3;
       },
       0x7366123386912561ull},
      {"stuckat product-term",
       [](ScenarioSpec& s) {
         s.fault.kind = FaultKind::kStuckAt;
         s.fault.granularity = FaultGranularity::kProductTerm;
       },
       0x0ffabb015bd73fcbull},
      {"bitflip rows=2", [](ScenarioSpec& s) { s.fault.faulty_rows = 2; },
       0xe0101ced56f43643ull},
      {"bitflip cols=2", [](ScenarioSpec& s) { s.fault.faulty_cols = 2; },
       0x8f553852e48be2a2ull},
      {"clustered bitflip",
       [](ScenarioSpec& s) {
         s.fault.distribution = fault::FaultDistribution::kClustered;
       },
       0x194b39b8017efd44ull},
      {"tmr x3",
       [](ScenarioSpec& s) {
         s.engine.backend = Backend::kTmr;
         s.engine.tmr_replicas = 3;
       },
       0x78c461b3f8bcf0f2ull},
      {"bitflip secded",
       [](ScenarioSpec& s) { s.ecc_expr = "secded"; }, 0x284f5be063e299f5ull},
  };
  const Workload workload = untrained_lenet(128);
  for (const CampaignGolden& golden : goldens) {
    ScenarioSpec s;
    s.axes = {rate_axis({0.01, 0.1})};
    s.repetitions = 2;
    s.master_seed = 7;
    golden.configure(s);
    const std::string csv =
        ScenarioRunner(s).run(workload).to_table().to_csv();
    const std::uint64_t observed = core::fnv1a64(csv);
    EXPECT_EQ(observed, golden.checksum)
        << golden.what << ": observed checksum 0x" << core::hash_hex(observed);
  }
}

TEST(ScenarioRunner, PooledExpressionSweepIsBitIdenticalToSerial) {
  ScenarioSpec s = tiny_scenario();
  s.axes = {fault_expr_axis(
      {"drift(rate=0.2,tau=2)", "coupling(rate=0.1,strength=1)"})};
  s.repetitions = 4;
  const ScenarioResult serial = run_tiny(s);
  s.jobs = 3;
  const ScenarioResult pooled = run_tiny(s);
  for (std::size_t i = 0; i < serial.points.size(); ++i) {
    EXPECT_EQ(serial.points[i].metric.mean, pooled.points[i].metric.mean);
    EXPECT_EQ(serial.points[i].metric.stddev, pooled.points[i].metric.stddev);
  }
}

}  // namespace
}  // namespace flim::exp
