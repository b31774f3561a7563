// End-to-end integration tests: the full train -> convert -> inject ->
// evaluate pipeline, reproducing the paper's verification experiments and
// qualitative findings on small configurations.
#include <gtest/gtest.h>

#include <filesystem>

#include "bnn/engine.hpp"
#include "bnn/flim_engine.hpp"
#include "bnn/model.hpp"
#include "core/campaign.hpp"
#include "core/rng.hpp"
#include "data/synthetic_mnist.hpp"
#include "fault/fault_registry.hpp"
#include "fault/fault_vector_file.hpp"
#include "models/zoo.hpp"
#include "train/trainer.hpp"
#include "xfault/device_engine.hpp"

namespace flim {
namespace {

using tensor::FloatTensor;
using tensor::Shape;

struct Fixture {
  data::SyntheticMnist dataset;
  bnn::Model model;
  data::Batch eval_batch;
  std::vector<bnn::LayerWorkload> layers;

  static const Fixture& instance() {
    static Fixture* f = [] {
      auto* fx = new Fixture();
      data::SyntheticMnistOptions opts;
      opts.size = 1500;
      fx->dataset = data::SyntheticMnist(opts);

      train::Graph graph = models::build_lenet_binary(99);
      train::Adam adam(2e-3f);
      train::TrainConfig cfg;
      cfg.epochs = 3;
      cfg.batch_size = 32;
      cfg.train_samples = 1200;
      train::fit(graph, adam, fx->dataset, cfg);
      fx->model = graph.to_inference_model();

      fx->eval_batch = data::load_batch(fx->dataset, 1200, 300);
      fx->layers = fx->model
                       .analyze(FloatTensor(Shape{1, 1, 28, 28}, 0.5f))
                       .binarized_layers;
      return fx;
    }();
    return *f;
  }
};

double eval_with_engine(bnn::XnorExecutionEngine& engine) {
  const Fixture& fx = Fixture::instance();
  return fx.model.evaluate(fx.eval_batch, engine);
}

double eval_with_fault(fault::FaultKind kind, double rate,
                       fault::FaultGranularity granularity,
                       std::uint64_t seed,
                       const std::string& only_layer = "") {
  const Fixture& fx = Fixture::instance();
  fault::RealizeContext ctx;
  ctx.grid = {64, 64};
  core::Rng rng(seed);
  bnn::FlimEngine engine;
  fault::FaultSpec spec;
  spec.kind = kind;
  spec.injection_rate = rate;
  const fault::FaultStack stack = fault::stack_from_spec(spec);
  for (const auto& layer : fx.layers) {
    if (!only_layer.empty() && layer.layer_name != only_layer) continue;
    engine.set_layer_fault(
        stack.realize_entry(layer.layer_name, granularity, ctx, rng));
  }
  return fx.model.evaluate(fx.eval_batch, engine);
}

TEST(EndToEnd, TrainedModelBeatsChance) {
  bnn::ReferenceEngine engine;
  const double acc = eval_with_engine(engine);
  EXPECT_GT(acc, 0.7) << "LeNet failed to learn the synthetic digits";
}

// Paper verification experiment 1: FLIM with no faults == vanilla.
TEST(EndToEnd, FlimWithoutFaultsEqualsVanilla) {
  bnn::ReferenceEngine ref;
  bnn::FlimEngine flim;
  EXPECT_DOUBLE_EQ(eval_with_engine(ref), eval_with_engine(flim));
}

TEST(EndToEnd, ZeroRateInjectionIsHarmless) {
  bnn::ReferenceEngine ref;
  const double clean = eval_with_engine(ref);
  const double faulty = eval_with_fault(
      fault::FaultKind::kBitFlip, 0.0, fault::FaultGranularity::kOutputElement,
      1);
  EXPECT_DOUBLE_EQ(clean, faulty);
}

TEST(EndToEnd, HighBitFlipRateDegradesAccuracy) {
  bnn::ReferenceEngine ref;
  const double clean = eval_with_engine(ref);
  core::RunningStats faulty;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    faulty.add(eval_with_fault(fault::FaultKind::kBitFlip, 0.3,
                               fault::FaultGranularity::kOutputElement, seed));
  }
  EXPECT_LT(faulty.mean(), clean - 0.05);
}

// Paper finding: stuck-at faults hurt more than bit-flips at equal rate.
TEST(EndToEnd, StuckAtWorseThanBitFlip) {
  core::RunningStats flips, stuck;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    flips.add(eval_with_fault(fault::FaultKind::kBitFlip, 0.15,
                              fault::FaultGranularity::kOutputElement, seed));
    stuck.add(eval_with_fault(fault::FaultKind::kStuckAt, 0.15,
                              fault::FaultGranularity::kOutputElement, seed));
  }
  EXPECT_LT(stuck.mean(), flips.mean() + 0.02);
}

// Paper finding: dynamic faults recover accuracy as the period grows.
TEST(EndToEnd, DynamicFaultsRecoverWithPeriod) {
  const Fixture& fx = Fixture::instance();
  fault::RealizeContext ctx;
  ctx.grid = {64, 64};

  auto eval_dynamic = [&](int period) {
    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::kDynamic;
    spec.injection_rate = 0.25;
    spec.dynamic_period = period;
    const fault::FaultStack stack = fault::stack_from_spec(spec);
    core::RunningStats stats;
    for (std::uint64_t seed = 0; seed < 2; ++seed) {
      core::Rng rng(seed);
      bnn::FlimEngine engine;
      for (const auto& layer : fx.layers) {
        engine.set_layer_fault(stack.realize_entry(
            layer.layer_name, fault::FaultGranularity::kOutputElement, ctx,
            rng));
      }
      stats.add(fx.model.evaluate(fx.eval_batch, engine));
    }
    return stats.mean();
  };

  bnn::ReferenceEngine ref;
  const double clean = eval_with_engine(ref);
  const double always = eval_dynamic(0);
  const double sparse = eval_dynamic(4);
  EXPECT_LT(always, clean);
  EXPECT_GT(sparse, always);
  EXPECT_NEAR(sparse, clean, (clean - always) * 0.6 + 0.02);
}

// Paper finding: deeper layers are more sensitive to bit-flips.
TEST(EndToEnd, PerLayerInjectionAffectsOnlyThatLayer) {
  bnn::ReferenceEngine ref;
  const double clean = eval_with_engine(ref);
  core::RunningStats conv1_hit, dense1_hit;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    conv1_hit.add(eval_with_fault(fault::FaultKind::kBitFlip, 0.25,
                                  fault::FaultGranularity::kOutputElement,
                                  seed, "conv1"));
    dense1_hit.add(eval_with_fault(fault::FaultKind::kBitFlip, 0.25,
                                   fault::FaultGranularity::kOutputElement,
                                   seed, "dense1"));
  }
  // Single-layer faults must degrade (or at worst match) clean accuracy;
  // the quantitative per-layer ordering is reported by the Fig 4a bench.
  EXPECT_LE(conv1_hit.mean(), clean + 1e-9);
  EXPECT_LT(dense1_hit.mean(), clean);
}

// Both granularities must show degradation; they need not be identical.
TEST(EndToEnd, ProductTermGranularityAlsoDegrades) {
  bnn::ReferenceEngine ref;
  const double clean = eval_with_engine(ref);
  core::RunningStats stats;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    stats.add(eval_with_fault(fault::FaultKind::kStuckAt, 0.4,
                              fault::FaultGranularity::kProductTerm, seed));
  }
  EXPECT_LT(stats.mean(), clean);
}

// Fault vector files drive a full campaign end-to-end.
TEST(EndToEnd, FaultVectorFileWorkflow) {
  const Fixture& fx = Fixture::instance();
  const fault::FaultStack stack = fault::parse_fault_expr("stuckat(rate=0.1)");
  fault::RealizeContext ctx;
  ctx.grid = {32, 32};
  core::Rng rng(7);

  fault::FaultVectorFile file;
  for (const auto& layer : fx.layers) {
    file.add(stack.realize_entry(layer.layer_name,
                                 fault::FaultGranularity::kOutputElement, ctx,
                                 rng));
  }
  const std::string path = ::testing::TempDir() + "/flim_campaign.bin";
  file.save(path);

  bnn::FlimEngine from_memory(file);
  bnn::FlimEngine from_disk(fault::FaultVectorFile::load(path));
  EXPECT_DOUBLE_EQ(eval_with_engine(from_memory), eval_with_engine(from_disk));
  std::filesystem::remove(path);
}

// Cross-validation on the full model: FLIM product-term faults equal the
// device-level X-Fault path (tiny eval set -- the device engine is slow by
// design).
TEST(EndToEnd, DeviceEngineMatchesFlimOnModel) {
  const Fixture& fx = Fixture::instance();
  const data::Batch tiny = data::load_batch(fx.dataset, 1200, 2);

  const fault::FaultStack stack = fault::parse_fault_expr("stuckat(rate=0.15)");
  fault::RealizeContext ctx;
  ctx.grid = {8, 8};  // gate-grid masks: 64 gates per layer
  core::Rng rng(11);
  bnn::FlimEngine flim;
  xfault::DeviceEngineConfig cfg;
  cfg.crossbar.rows = 8;
  cfg.crossbar.cols = 32;
  xfault::DeviceEngine device(cfg);

  for (const auto& layer : fx.layers) {
    const fault::FaultVectorEntry entry = stack.realize_entry(
        layer.layer_name, fault::FaultGranularity::kProductTerm, ctx, rng);
    flim.set_layer_fault(entry);
    device.set_layer_fault(entry);
  }

  const FloatTensor flim_logits = fx.model.forward(tiny.images, flim);
  const FloatTensor device_logits = fx.model.forward(tiny.images, device);
  EXPECT_EQ(flim_logits, device_logits);
}

// Campaign runner drives the whole protocol reproducibly.
TEST(EndToEnd, CampaignIsReproducible) {
  core::CampaignConfig cfg;
  cfg.repetitions = 3;
  cfg.master_seed = 2024;
  auto metric = [&](std::uint64_t seed) {
    return eval_with_fault(fault::FaultKind::kBitFlip, 0.1,
                           fault::FaultGranularity::kOutputElement, seed);
  };
  const core::Summary a = core::run_repeated(cfg, metric);
  const core::Summary b = core::run_repeated(cfg, metric);
  EXPECT_DOUBLE_EQ(a.mean, b.mean);
  EXPECT_EQ(a.count, 3u);
}

}  // namespace
}  // namespace flim
