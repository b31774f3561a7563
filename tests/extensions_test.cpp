// Tests for the extension features: training-time fault injection (the
// paper's future work) and the median-vote mitigation engine.
#include <gtest/gtest.h>

#include "bnn/binary_dense.hpp"
#include "bnn/engine.hpp"
#include "bnn/flim_engine.hpp"
#include "bnn/model.hpp"
#include "bnn/redundancy.hpp"
#include "core/rng.hpp"
#include "data/synthetic_mnist.hpp"
#include "fault/fault_registry.hpp"
#include "models/zoo.hpp"
#include "train/fault_training.hpp"
#include "train/trainer.hpp"

namespace flim {
namespace {

using tensor::FloatTensor;
using tensor::Shape;

/// A one-component entry of `model` on a clear rows x cols grid.
fault::FaultVectorEntry entry_with(const std::string& model, std::int64_t rows,
                                   std::int64_t cols) {
  fault::RealizedFault component;
  component.model = model;
  component.mask = fault::FaultMask(rows, cols);
  fault::FaultVectorEntry e;
  e.layer_name = "layer";
  e.components.push_back(std::move(component));
  return e;
}

TEST(TrainFaultInjection, FlipNegatesForwardAndGradient) {
  fault::FaultVectorEntry e = entry_with("bitflip", 1, 4);
  e.components[0].mask.set_flip(1, true);
  train::TFaultInjection inj("fi", e, /*full_scale=*/10);

  FloatTensor x(Shape{1, 4}, std::vector<float>{1, 2, 3, 4});
  const FloatTensor y = inj.forward(x, /*training=*/true);
  EXPECT_FLOAT_EQ(y[0], 1.0f);
  EXPECT_FLOAT_EQ(y[1], -2.0f);
  EXPECT_FLOAT_EQ(y[2], 3.0f);

  FloatTensor dy(Shape{1, 4}, 1.0f);
  const FloatTensor dx = inj.backward(dy);
  EXPECT_FLOAT_EQ(dx[0], 1.0f);
  EXPECT_FLOAT_EQ(dx[1], -1.0f);  // gradient negated through the flip
}

TEST(TrainFaultInjection, StuckAtPinsAndBlocksGradient) {
  fault::FaultVectorEntry e = entry_with("stuckat", 1, 3);
  e.components[0].mask.set_sa0(0, true);
  e.components[0].mask.set_sa1(2, true);
  train::TFaultInjection inj("fi", e, /*full_scale=*/7);

  FloatTensor x(Shape{1, 3}, std::vector<float>{5, 5, 5});
  const FloatTensor y = inj.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], -7.0f);
  EXPECT_FLOAT_EQ(y[1], 5.0f);
  EXPECT_FLOAT_EQ(y[2], 7.0f);

  FloatTensor dy(Shape{1, 3}, 2.0f);
  const FloatTensor dx = inj.backward(dy);
  EXPECT_FLOAT_EQ(dx[0], 0.0f);  // pinned elements block the gradient
  EXPECT_FLOAT_EQ(dx[1], 2.0f);
  EXPECT_FLOAT_EQ(dx[2], 0.0f);
}

TEST(TrainFaultInjection, EvalModeIsClean) {
  fault::FaultVectorEntry e = entry_with("bitflip", 1, 2);
  e.components[0].mask.set_flip(0, true);
  e.components[0].mask.set_flip(1, true);
  train::TFaultInjection inj("fi", e, 5);
  FloatTensor x(Shape{2, 2}, 3.0f);
  const FloatTensor y = inj.forward(x, /*training=*/false);
  EXPECT_EQ(y, x);
  // And backward passes straight through.
  EXPECT_EQ(inj.backward(x), x);
}

TEST(TrainFaultInjection, ConvInputUsesSameOpOrderAsInference) {
  // NCHW input: op order is position-major over (pos, channel), matching
  // FaultInjector::apply_output_element.
  fault::FaultVectorEntry e = entry_with("bitflip", 1, 3);
  e.components[0].mask.set_flip(1, true);  // ops 1, 4, 7, ... flip
  train::TFaultInjection inj("fi", e, 9);

  FloatTensor x(Shape{1, 2, 1, 2}, 1.0f);  // 2 channels, 2 positions
  const FloatTensor y = inj.forward(x, true);
  // ops: (pos0,ch0)=op0 slot0, (pos0,ch1)=op1 slot1 FLIP, (pos1,ch0)=op2,
  // (pos1,ch1)=op3 slot0. NCHW index of (ch1,pos0) = [1*2+0] offset...
  EXPECT_FLOAT_EQ(y.at4(0, 0, 0, 0), 1.0f);   // op0
  EXPECT_FLOAT_EQ(y.at4(0, 1, 0, 0), -1.0f);  // op1 flipped
  EXPECT_FLOAT_EQ(y.at4(0, 0, 0, 1), 1.0f);   // op2
  EXPECT_FLOAT_EQ(y.at4(0, 1, 0, 1), 1.0f);   // op3
}

TEST(TrainFaultInjection, DynamicPeriodSchedulesAcrossBatches) {
  fault::FaultVectorEntry e = entry_with("dynamic", 1, 1);
  e.components[0].params = {{"period", 2.0}};
  e.components[0].mask.set_flip(0, true);
  train::TFaultInjection inj("fi", e, 3);
  FloatTensor x(Shape{1, 1}, 4.0f);
  EXPECT_FLOAT_EQ(inj.forward(x, true)[0], 4.0f);   // execution 0: inactive
  EXPECT_FLOAT_EQ(inj.forward(x, true)[0], -4.0f);  // execution 1: active
  EXPECT_FLOAT_EQ(inj.forward(x, true)[0], 4.0f);
}

TEST(TrainFaultInjection, ConvertsToIdentity) {
  fault::FaultVectorEntry e = entry_with("bitflip", 1, 1);
  e.components[0].mask.set_flip(0, true);
  train::TFaultInjection inj("fi", e, 3);
  const bnn::LayerPtr converted = inj.to_inference();
  EXPECT_EQ(converted->type(), "identity");
}

TEST(TrainFaultInjection, RejectsBadConfig) {
  fault::FaultVectorEntry empty;
  empty.layer_name = "x";
  EXPECT_THROW(train::TFaultInjection("fi", empty, 1), std::invalid_argument);
  fault::FaultVectorEntry ok = entry_with("bitflip", 1, 1);
  EXPECT_THROW(train::TFaultInjection("fi", ok, 0), std::invalid_argument);
  EXPECT_THROW(train::TFaultInjection("fi", ok, 1, 1.5), std::invalid_argument);
  fault::FaultVectorEntry empty_mask = ok;
  empty_mask.components[0].mask = fault::FaultMask();
  EXPECT_THROW(train::TFaultInjection("fi", empty_mask, 1),
               std::invalid_argument);
}

TEST(TrainFaultInjection, RejectsModelsWithoutStaticPlanes) {
  // readdisturb flips depend on the data, drift grows with time: neither
  // reduces to the static planes training applies.
  fault::RealizeContext ctx;
  ctx.grid = {4, 4};
  for (const char* expr :
       {"readdisturb(rate=0.5)", "bitflip+drift(rate=0.5)"}) {
    core::Rng rng(1);
    const fault::FaultVectorEntry e =
        fault::parse_fault_expr(expr).realize_entry(
            "layer", fault::FaultGranularity::kOutputElement, ctx, rng);
    try {
      train::TFaultInjection("fi", e, 3);
      ADD_FAILURE() << expr << " was accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("no static fault planes"),
                std::string::npos)
          << error.what();
    }
  }
}

TEST(TrainFaultInjection, ComponentsApplyInStackOrder) {
  // Slot 0: a flip, then a stuck-at-1 pin (the pin wins, the gradient is
  // blocked). Slot 1: a stuck-at-0 pin, then a flip (the pinned value is
  // negated, the gradient stays blocked).
  fault::FaultVectorEntry e = entry_with("bitflip", 1, 2);
  e.components[0].mask.set_flip(0, true);
  fault::RealizedFault stuck;
  stuck.model = "stuckat";
  stuck.mask = fault::FaultMask(1, 2);
  stuck.mask.set_sa1(0, true);
  stuck.mask.set_sa0(1, true);
  e.components.push_back(stuck);
  fault::RealizedFault flip = e.components[0];
  flip.mask = fault::FaultMask(1, 2);
  flip.mask.set_flip(1, true);
  e.components.push_back(flip);
  train::TFaultInjection inj("fi", e, /*full_scale=*/6);

  FloatTensor x(Shape{1, 2}, std::vector<float>{2, 3});
  const FloatTensor y = inj.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], 6.0f);
  EXPECT_FLOAT_EQ(y[1], 6.0f);  // pinned to -6, then flipped
  const FloatTensor dx = inj.backward(FloatTensor(Shape{1, 2}, 1.0f));
  EXPECT_FLOAT_EQ(dx[0], 0.0f);
  EXPECT_FLOAT_EQ(dx[1], 0.0f);
}

TEST(TrainFaultInjection, EachComponentFollowsItsOwnSchedule) {
  // A static flip on slot 0 plus a period-2 dynamic flip on slot 1.
  fault::FaultVectorEntry e = entry_with("bitflip", 1, 2);
  e.components[0].mask.set_flip(0, true);
  fault::RealizedFault dynamic;
  dynamic.model = "dynamic";
  dynamic.params = {{"period", 2.0}};
  dynamic.mask = fault::FaultMask(1, 2);
  dynamic.mask.set_flip(1, true);
  e.components.push_back(dynamic);
  train::TFaultInjection inj("fi", e, 3);

  FloatTensor x(Shape{1, 2}, 1.0f);
  FloatTensor y = inj.forward(x, true);  // execution 0: static only
  EXPECT_FLOAT_EQ(y[0], -1.0f);
  EXPECT_FLOAT_EQ(y[1], 1.0f);
  y = inj.forward(x, true);  // execution 1: both
  EXPECT_FLOAT_EQ(y[0], -1.0f);
  EXPECT_FLOAT_EQ(y[1], -1.0f);
  EXPECT_FLOAT_EQ(inj.backward(FloatTensor(Shape{1, 2}, 1.0f))[1], -1.0f);
}

TEST(FaultAwareLenet, BuildsTrainsAndConverts) {
  // The vectors `flim_cli generate --fault` writes: component entries.
  const fault::FaultStack stack =
      fault::parse_fault_expr("bitflip(rate=0.1)+stuckat(rate=0.01)");
  fault::RealizeContext ctx;
  ctx.grid = {32, 32};
  core::Rng rng(5);
  fault::FaultVectorFile vectors;
  for (const auto& layer : models::lenet_faultable_layers()) {
    vectors.add(stack.realize_entry(
        layer, fault::FaultGranularity::kOutputElement, ctx, rng));
  }

  data::SyntheticMnistOptions opts;
  opts.size = 256;
  data::SyntheticMnist ds(opts);
  train::Graph g = models::build_lenet_binary_fault_aware(3, vectors);
  train::Adam adam(2e-3f);
  train::TrainConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = 32;
  cfg.train_samples = 128;
  const auto result = train::fit(g, adam, ds, cfg);
  EXPECT_GT(result.final_train_accuracy, 0.05);

  // Conversion drops the injection sites; the inference model runs clean.
  bnn::Model model = g.to_inference_model();
  bnn::ReferenceEngine engine;
  const data::Batch batch = data::load_batch(ds, 0, 8);
  const FloatTensor logits = model.forward(batch.images, engine);
  EXPECT_EQ(logits.shape(), (Shape{8, 10}));
  // Eval-mode graph output must match the converted model exactly.
  const FloatTensor graph_logits = g.forward(batch.images, false);
  for (std::int64_t i = 0; i < logits.numel(); ++i) {
    EXPECT_NEAR(graph_logits[i], logits[i], 1e-3f);
  }
}

FloatTensor random_pm1(const Shape& shape, std::uint64_t seed) {
  core::Rng rng(seed);
  FloatTensor t(shape);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = rng.bernoulli(0.5) ? 1.0f : -1.0f;
  }
  return t;
}

/// A binarized dense layer "layer" as a one-layer Model.
bnn::Model dense_model(std::int64_t in, std::int64_t out,
                       const FloatTensor& w) {
  bnn::Model model("dense");
  model.add(std::make_unique<bnn::BinaryDense>("layer", in, out, w));
  return model;
}

TEST(MedianVoteEngine, RequiresOddReplicaCount) {
  std::vector<std::unique_ptr<bnn::XnorExecutionEngine>> two;
  two.push_back(std::make_unique<bnn::ReferenceEngine>());
  two.push_back(std::make_unique<bnn::ReferenceEngine>());
  EXPECT_THROW(bnn::MedianVoteEngine{std::move(two)}, std::invalid_argument);
}

TEST(MedianVoteEngine, CleanReplicasMatchReference) {
  std::vector<std::unique_ptr<bnn::XnorExecutionEngine>> replicas;
  for (int i = 0; i < 3; ++i) {
    replicas.push_back(std::make_unique<bnn::ReferenceEngine>());
  }
  bnn::MedianVoteEngine vote(std::move(replicas));

  const bnn::Model dense = dense_model(30, 4, random_pm1(Shape{4, 30}, 1));
  const FloatTensor x = random_pm1(Shape{3, 30}, 2);

  bnn::ReferenceEngine ref;
  EXPECT_EQ(dense.forward(x, ref), dense.forward(x, vote));
}

TEST(MedianVoteEngine, OutvotesSingleFaultyReplica) {
  // Replica 1 has a full flip mask; replicas 0 and 2 are clean. The median
  // must equal the clean result everywhere.
  fault::FaultVectorEntry e = entry_with("bitflip", 2, 2);
  for (std::int64_t s = 0; s < 4; ++s) e.components[0].mask.set_flip(s, true);

  std::vector<std::unique_ptr<bnn::XnorExecutionEngine>> replicas;
  replicas.push_back(std::make_unique<bnn::ReferenceEngine>());
  auto faulty = std::make_unique<bnn::FlimEngine>();
  faulty->set_layer_fault(e);
  replicas.push_back(std::move(faulty));
  replicas.push_back(std::make_unique<bnn::ReferenceEngine>());
  bnn::MedianVoteEngine vote(std::move(replicas));

  const bnn::Model dense = dense_model(20, 4, random_pm1(Shape{4, 20}, 3));
  const FloatTensor x = random_pm1(Shape{2, 20}, 4);

  bnn::ReferenceEngine ref;
  EXPECT_EQ(dense.forward(x, ref), dense.forward(x, vote));
}

TEST(MedianVoteEngine, MajorityFaultyLosesTheVote) {
  fault::FaultVectorEntry e = entry_with("bitflip", 1, 1);
  e.components[0].mask.set_flip(0, true);

  std::vector<std::unique_ptr<bnn::XnorExecutionEngine>> replicas;
  for (int i = 0; i < 3; ++i) {
    auto faulty = std::make_unique<bnn::FlimEngine>();
    faulty->set_layer_fault(e);
    replicas.push_back(std::move(faulty));
  }
  bnn::MedianVoteEngine vote(std::move(replicas));

  const bnn::Model dense = dense_model(10, 1, random_pm1(Shape{1, 10}, 5));
  const FloatTensor x = random_pm1(Shape{1, 10}, 6);

  bnn::ReferenceEngine ref;
  const FloatTensor clean = dense.forward(x, ref);
  const FloatTensor voted = dense.forward(x, vote);
  EXPECT_FLOAT_EQ(voted[0], -clean[0]);  // all replicas agree on the fault
}

}  // namespace
}  // namespace flim
