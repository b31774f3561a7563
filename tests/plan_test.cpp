// Compiled-forward-plan tests: golden logit checksums across the model zoo
// and every fault-injecting backend, device-vs-flim equivalence per layer
// type, workspace-reuse determinism, and serial-vs-pooled intra-GEMM
// sharding identity.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bnn/activations.hpp"
#include "bnn/binary_conv2d.hpp"
#include "bnn/binary_dense.hpp"
#include "bnn/blocks.hpp"
#include "bnn/flim_engine.hpp"
#include "bnn/model.hpp"
#include "bnn/plan.hpp"
#include "core/rng.hpp"
#include "core/sysinfo.hpp"
#include "core/thread_pool.hpp"
#include "exp/engine_factory.hpp"
#include "fault/fault_registry.hpp"
#include "fault/fault_vector_file.hpp"
#include "models/zoo.hpp"
#include "tensor/workspace.hpp"
#include "tensor/xnor_gemm.hpp"
#include "train/graph.hpp"
#include "xfault/device_engine.hpp"

namespace flim::bnn {
namespace {

using tensor::FloatTensor;
using tensor::Shape;

FloatTensor deterministic_input(Shape shape, std::uint64_t seed) {
  FloatTensor x(std::move(shape));
  core::Rng rng(seed);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(rng.uniform_double() * 2.0 - 1.0);
  }
  return x;
}

/// Draws one fault-vector file covering every binarized layer of `model`.
fault::FaultVectorFile realize_vectors(const Model& model,
                                       const FloatTensor& sample,
                                       const fault::FaultSpec& spec,
                                       std::uint64_t seed) {
  const auto layers = model.analyze(sample).binarized_layers;
  const fault::FaultStack stack = fault::stack_from_spec(spec);
  fault::RealizeContext ctx;
  ctx.grid = {16, 16};
  core::Rng rng(seed);
  fault::FaultVectorFile file;
  for (const LayerWorkload& layer : layers) {
    file.add(stack.realize_entry(layer.layer_name, spec.granularity, ctx, rng));
  }
  return file;
}

/// FNV-1a over the raw logit bytes.
std::uint64_t logits_checksum(const FloatTensor& logits) {
  return core::fnv1a64(std::string_view(
      reinterpret_cast<const char*>(logits.data()),
      static_cast<std::size_t>(logits.numel()) * sizeof(float)));
}

void expect_equal_logits(const FloatTensor& expected, const FloatTensor& actual,
                         const std::string& what) {
  ASSERT_EQ(expected.shape(), actual.shape()) << what;
  for (std::int64_t i = 0; i < expected.numel(); ++i) {
    ASSERT_EQ(expected[i], actual[i]) << what << " logit " << i;
  }
}

/// Executes a compiled plan of `model` and requires the logits' checksum to
/// equal the committed golden.
void expect_golden(const Model& model, const FloatTensor& x,
                   XnorExecutionEngine& engine, const std::string& what,
                   std::uint64_t golden) {
  const ForwardPlan plan(model, x.shape());
  tensor::Workspace ws;
  const std::uint64_t observed = logits_checksum(plan.execute(x, ws, engine));
  EXPECT_EQ(observed, golden)
      << what << ": observed checksum 0x" << core::hash_hex(observed);
}

/// Committed FNV-1a checksums of plan logits, the oracle for every
/// arithmetic change to the layers. Recorded against the former
/// layer-by-layer forward pass, in a run that asserted both paths equal.
/// A mismatch prints the observed checksum; edit the constant only for an
/// intended change in arithmetic.
struct ZooGolden {
  const char* model;
  std::uint64_t reference;
  std::uint64_t flim_bitflip;
  std::uint64_t flim_dynamic;
  std::uint64_t tmr;
};

constexpr ZooGolden kZooGoldens[] = {
    {"RealToBinaryNet", 0x630010a5e26a325dull, 0x5f5142ebf8cc4288ull,
     0x8e5edc2101dd173bull, 0x545774e2c8e821b6ull},
    {"BinaryDenseNet45", 0x3f71cd9c7c55b884ull, 0xf1c5dfeaf617d46eull,
     0x002baae2c37eb1f5ull, 0xc8df388a9e7a27b6ull},
    {"BinaryDenseNet37", 0x6c5c8639432f0ddcull, 0x7c186cc949b517ccull,
     0x095413b3444ffcc5ull, 0x438c6cecda6cccafull},
    {"BinaryDenseNet28", 0x768d2cbd045ddc80ull, 0x8cc3395c6fee8c8cull,
     0xcb60603d77f69b5cull, 0x23a4868cabfd579bull},
    {"BinaryResNetE18", 0x9172b9c37c77c78eull, 0xf55a988e6bc950e2ull,
     0x777bdb6bcf43f8acull, 0xb272ea81761d4f42ull},
    {"BinaryAlexNet", 0xe3fa617ae6a802c8ull, 0x5d14b92441f337a9ull,
     0xf8cfa096524bc0e8ull, 0x78adf413b21048c6ull},
    {"MeliusNet22", 0x2a67f4319fb64a73ull, 0xadb23237dc76aef2ull,
     0xd638494c503226fdull, 0xee71ff49cf7541b7ull},
    {"BiRealNet", 0xe0fb8f7c6406f06aull, 0x89c856cab22c2970ull,
     0x5418879cdbd7b289ull, 0x86c29271d510b583ull},
    {"XNORNet", 0xe3fa617ae6a802c8ull, 0x5d14b92441f337a9ull,
     0xf8cfa096524bc0e8ull, 0x78adf413b21048c6ull},
};

constexpr std::uint64_t kLenetProductTermDynamicGolden = 0x3611a408dad08d6eull;

const ZooGolden& zoo_golden(const std::string& model) {
  for (const ZooGolden& g : kZooGoldens) {
    if (model == g.model) return g;
  }
  throw std::invalid_argument("no golden checksums for " + model);
}

class PlanZooModels : public ::testing::TestWithParam<std::string> {};

TEST_P(PlanZooModels, ReferenceMatchesGolden) {
  Model model = models::build_zoo_graph(GetParam(), 3).to_inference_model();
  const FloatTensor x = deterministic_input(Shape{2, 3, 32, 32}, 11);
  ReferenceEngine engine;
  expect_golden(model, x, engine, GetParam() + "/reference",
                zoo_golden(GetParam()).reference);
}

TEST_P(PlanZooModels, FlimMatchesGolden) {
  Model model = models::build_zoo_graph(GetParam(), 5).to_inference_model();
  const FloatTensor sample = deterministic_input(Shape{1, 3, 32, 32}, 7);
  const FloatTensor x = deterministic_input(Shape{2, 3, 32, 32}, 13);

  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kBitFlip;
  spec.injection_rate = 0.1;
  FlimEngine bitflip(realize_vectors(model, sample, spec, 21));
  expect_golden(model, x, bitflip, GetParam() + "/flim-bitflip",
                zoo_golden(GetParam()).flim_bitflip);

  // Dynamic faults exercise the per-image execution counters: the plan must
  // keep calling the engine in the recorded order.
  fault::FaultSpec dynamic = spec;
  dynamic.kind = fault::FaultKind::kDynamic;
  dynamic.dynamic_period = 2;
  FlimEngine dynamic_engine(realize_vectors(model, sample, dynamic, 22));
  expect_golden(model, x, dynamic_engine, GetParam() + "/flim-dynamic",
                zoo_golden(GetParam()).flim_dynamic);
}

TEST_P(PlanZooModels, TmrMatchesGolden) {
  Model model = models::build_zoo_graph(GetParam(), 6).to_inference_model();
  const FloatTensor sample = deterministic_input(Shape{1, 3, 32, 32}, 7);
  const FloatTensor x = deterministic_input(Shape{2, 3, 32, 32}, 17);

  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kStuckAt;
  spec.injection_rate = 0.1;
  const fault::FaultVectorFile vectors =
      realize_vectors(model, sample, spec, 23);
  exp::EngineSpec engine_spec;
  engine_spec.backend = exp::Backend::kTmr;
  engine_spec.tmr_replicas = 3;
  const auto engine = exp::make_engine(engine_spec, vectors);
  expect_golden(model, x, *engine, GetParam() + "/tmr",
                zoo_golden(GetParam()).tmr);
}

/// Draws a fault-vector file that faults `layer` alone.
fault::FaultVectorFile one_layer_vectors(const std::string& layer,
                                         const fault::FaultSpec& spec,
                                         std::uint64_t seed) {
  fault::RealizeContext ctx;
  ctx.grid = {16, 16};
  core::Rng rng(seed);
  fault::FaultVectorFile file;
  file.add(fault::stack_from_spec(spec).realize_entry(layer, spec.granularity,
                                                      ctx, rng));
  return file;
}

// A run that starts at a faulted layer's root, from the clean activation the
// prefix stored, gives the full pass's logits bit for bit: for every
// binarized layer, at both granularities. The zoo's root inputs include
// exact ±1 activations (stored packed) and real-valued ones (Bi-Real,
// RealToBinary and MeliusNet blocks; stored as floats). One workspace serves
// every prefix run, so stale buffers from another start root must not leak.
TEST_P(PlanZooModels, PrefixRunEqualsFullPassPerFaultedLayer) {
  Model model = models::build_zoo_graph(GetParam(), 5).to_inference_model();
  const FloatTensor sample = deterministic_input(Shape{1, 3, 32, 32}, 7);
  const FloatTensor x = deterministic_input(Shape{2, 3, 32, 32}, 13);
  const ForwardPlan plan(model, x.shape());
  CleanPrefix prefix(plan, x);
  tensor::Workspace full_ws;
  tensor::Workspace prefix_ws;

  ReferenceEngine reference;
  const FloatTensor clean = plan.execute(x, full_ws, reference);
  expect_equal_logits(
      clean, prefix.execute_from(plan.num_roots(), prefix_ws, reference),
      GetParam() + "/clean logits");

  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kBitFlip;
  spec.injection_rate = 0.1;
  for (const auto granularity : {fault::FaultGranularity::kOutputElement,
                                 fault::FaultGranularity::kProductTerm}) {
    spec.granularity = granularity;
    for (const LayerWorkload& layer : model.analyze(sample).binarized_layers) {
      const std::string what = GetParam() + "/" + layer.layer_name + "/" +
                               fault::to_string(granularity);
      const fault::FaultVectorFile vectors =
          one_layer_vectors(layer.layer_name, spec, 29);
      FlimEngine full(vectors);
      FlimEngine from_root(vectors);
      const FloatTensor expected = plan.execute(x, full_ws, full);
      ASSERT_NE(expected, clean) << what << ": the faults must be live";
      expect_equal_logits(
          expected,
          prefix.execute_from(plan.root_of(layer.layer_name), prefix_ws,
                              from_root),
          what);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllNine, PlanZooModels,
                         ::testing::ValuesIn(models::zoo_model_names()));

TEST(Plan, LenetProductTermDynamicMatchesGolden) {
  Model model = models::build_lenet_binary(2).to_inference_model();
  const FloatTensor sample = deterministic_input(Shape{1, 1, 28, 28}, 3);
  const FloatTensor x = deterministic_input(Shape{4, 1, 28, 28}, 31);

  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kDynamic;
  spec.dynamic_period = 2;
  spec.injection_rate = 0.15;
  spec.granularity = fault::FaultGranularity::kProductTerm;
  FlimEngine engine(realize_vectors(model, sample, spec, 37));
  expect_golden(model, x, engine, "lenet/flim-product-term-dynamic",
                kLenetProductTermDynamicGolden);
}

// Device-vs-flim equivalence per layer type: hand-placed product-term
// faults on small shapes, where the gate-by-gate crossbar simulation stays
// cheap. Each case requires the device logits to equal flim's bit for bit
// and to differ from the fault-free reference, so the placed faults are
// live.

/// An empty one-component product-term entry of `model` over a 4x4 gate
/// grid; cases mark slots.
fault::FaultVectorEntry term_entry(const std::string& layer,
                                   const std::string& model) {
  fault::RealizedFault component;
  component.model = model;
  component.mask = fault::FaultMask(4, 4);
  fault::FaultVectorEntry e;
  e.layer_name = layer;
  e.granularity = fault::FaultGranularity::kProductTerm;
  e.components.push_back(std::move(component));
  return e;
}

Model one_layer_model(LayerPtr layer) {
  Model model("one-layer");
  model.add(std::move(layer));
  return model;
}

/// Returns the flim logits for cases that check more than equivalence.
FloatTensor expect_device_matches_flim(
    const Model& model, const FloatTensor& x,
    const std::vector<fault::FaultVectorEntry>& entries,
    const std::string& what) {
  fault::FaultVectorFile vectors;
  for (const fault::FaultVectorEntry& e : entries) vectors.add(e);
  FlimEngine flim(vectors);
  xfault::DeviceEngine device(xfault::DeviceEngineConfig{}, vectors);
  ReferenceEngine reference;
  const FloatTensor expected = model.forward(x, flim);
  expect_equal_logits(expected, model.forward(x, device), what);
  EXPECT_NE(expected, model.forward(x, reference))
      << what << ": the placed faults must change the output";
  return expected;
}

TEST(DeviceVsFlim, BinaryConvPackedLowering) {
  // kernel <= 64: word-level patch assembly from packed image rows.
  const Model model = one_layer_model(std::make_unique<BinaryConv2D>(
      "conv", 3, 4, 3, 1, 1, deterministic_input(Shape{4, 27}, 81)));
  fault::FaultVectorEntry e = term_entry("conv", "bitflip");
  e.components[0].mask.set_flip(1, true);
  e.components[0].mask.set_flip(6, true);
  e.components[0].mask.set_flip(11, true);
  expect_device_matches_flim(model, deterministic_input(Shape{2, 3, 6, 6}, 82),
                             {e}, "packed conv");
}

TEST(DeviceVsFlim, BinaryConvGatherLowering) {
  // kernel > 64: the precomputed gather map; K = 65*65 wraps the 16 gates.
  const Model model = one_layer_model(std::make_unique<BinaryConv2D>(
      "conv", 1, 2, 65, 1, 0, deterministic_input(Shape{2, 65 * 65}, 83)));
  fault::FaultVectorEntry e = term_entry("conv", "stuckat");
  e.components[0].mask.set_sa0(2, true);
  e.components[0].mask.set_sa1(7, true);
  e.components[0].mask.set_sa0(13, true);
  expect_device_matches_flim(
      model, deterministic_input(Shape{1, 1, 65, 66}, 84), {e}, "gather conv");
}

TEST(DeviceVsFlim, BinaryDense) {
  const Model model = one_layer_model(std::make_unique<BinaryDense>(
      "fc", 40, 5, deterministic_input(Shape{5, 40}, 85)));
  fault::FaultVectorEntry e = term_entry("fc", "bitflip");
  for (const std::int64_t slot : {0, 5, 10, 15}) {
    e.components[0].mask.set_flip(slot, true);
  }
  expect_device_matches_flim(model, deterministic_input(Shape{3, 40}, 86),
                             {e}, "dense");
}

TEST(DeviceVsFlim, ResidualBlockWithShortcut) {
  std::vector<LayerPtr> body;
  body.push_back(std::make_unique<BinaryConv2D>(
      "res/body", 2, 3, 3, 1, 1, deterministic_input(Shape{3, 18}, 87)));
  const Model model = one_layer_model(std::make_unique<ResidualBlock>(
      "res", std::move(body),
      std::make_unique<BinaryConv2D>("res/shortcut", 2, 3, 1, 1, 0,
                                     deterministic_input(Shape{3, 2}, 88))));
  fault::FaultVectorEntry body_fault =
      term_entry("res/body", "bitflip");
  body_fault.components[0].mask.set_flip(3, true);
  body_fault.components[0].mask.set_flip(9, true);
  fault::FaultVectorEntry shortcut_fault =
      term_entry("res/shortcut", "stuckat");
  shortcut_fault.components[0].mask.set_sa1(0, true);
  shortcut_fault.components[0].mask.set_sa0(5, true);
  expect_device_matches_flim(model, deterministic_input(Shape{1, 2, 5, 5}, 89),
                             {body_fault, shortcut_fault}, "residual");
}

TEST(DeviceVsFlim, ConcatBlock) {
  std::vector<LayerPtr> body;
  body.push_back(std::make_unique<Sign>("cat/sign"));
  body.push_back(std::make_unique<BinaryConv2D>(
      "cat/conv", 2, 2, 3, 1, 1, deterministic_input(Shape{2, 18}, 90)));
  const Model model = one_layer_model(
      std::make_unique<ConcatBlock>("cat", std::move(body)));
  fault::FaultVectorEntry e =
      term_entry("cat/conv", "stuckat");
  e.components[0].mask.set_sa1(4, true);
  e.components[0].mask.set_sa0(8, true);
  e.components[0].mask.set_sa1(14, true);
  expect_device_matches_flim(model, deterministic_input(Shape{1, 2, 4, 4}, 91),
                             {e}, "concat");
}

TEST(DeviceVsFlim, DynamicPeriodFollowsImages) {
  // Period 2 over a 4-image batch: images 1 and 3 see the flips, 0 and 2
  // run clean, on both engines.
  const Model model = one_layer_model(std::make_unique<BinaryDense>(
      "fc", 24, 3, deterministic_input(Shape{3, 24}, 92)));
  fault::FaultVectorEntry e = term_entry("fc", "dynamic");
  e.components[0].params = {{"period", 2.0}};
  for (std::int64_t slot = 0; slot < 16; slot += 3) {
    e.components[0].mask.set_flip(slot, true);
  }
  const FloatTensor x = deterministic_input(Shape{4, 24}, 93);
  const FloatTensor faulty =
      expect_device_matches_flim(model, x, {e}, "dynamic");

  ReferenceEngine reference;
  const FloatTensor clean = model.forward(x, reference);
  for (std::int64_t image = 0; image < 4; ++image) {
    bool image_clean = true;
    for (std::int64_t c = 0; c < 3; ++c) {
      image_clean = image_clean && faulty.at2(image, c) == clean.at2(image, c);
    }
    EXPECT_EQ(image_clean, image % 2 == 0) << "image " << image;
  }
}

TEST(Plan, WorkspaceReuseIsDeterministicAndAllocationFree) {
  Model model =
      models::build_zoo_graph("BinaryAlexNet", 4).to_inference_model();
  const FloatTensor x = deterministic_input(Shape{2, 3, 32, 32}, 41);
  const ForwardPlan plan(model, x.shape());

  tensor::Workspace ws;
  ReferenceEngine engine;
  const FloatTensor first = plan.execute(x, ws, engine);  // copy
  const std::uint64_t allocations_after_first = ws.allocation_count();

  const FloatTensor& second = plan.execute(x, ws, engine);
  expect_equal_logits(first, second, "workspace reuse");
  EXPECT_EQ(ws.allocation_count(), allocations_after_first)
      << "steady-state execution must not allocate";

  const FloatTensor& third = plan.execute(x, ws, engine);
  expect_equal_logits(first, third, "workspace reuse (third pass)");
  EXPECT_EQ(ws.allocation_count(), allocations_after_first);
}

TEST(Plan, RejectsInputShapeMismatch) {
  Model model = models::build_lenet_binary(2).to_inference_model();
  const ForwardPlan plan(model, Shape{2, 1, 28, 28});
  tensor::Workspace ws;
  ReferenceEngine engine;
  const FloatTensor wrong = deterministic_input(Shape{3, 1, 28, 28}, 5);
  EXPECT_THROW(plan.execute(wrong, ws, engine), std::invalid_argument);
}

TEST(Plan, LenetPrefixRunsKeepDynamicFaultTiming) {
  // Dynamic faults count executions per image in the faulted layer's
  // injector; skipping the clean roots in front must not shift them.
  Model model = models::build_lenet_binary(2).to_inference_model();
  const FloatTensor sample = deterministic_input(Shape{1, 1, 28, 28}, 3);
  const FloatTensor x = deterministic_input(Shape{4, 1, 28, 28}, 31);
  const ForwardPlan plan(model, x.shape());
  CleanPrefix prefix(plan, x);
  tensor::Workspace full_ws;
  tensor::Workspace prefix_ws;
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kDynamic;
  spec.dynamic_period = 2;
  spec.injection_rate = 0.15;
  spec.granularity = fault::FaultGranularity::kProductTerm;
  std::size_t previous_root = 0;
  for (const LayerWorkload& layer : model.analyze(sample).binarized_layers) {
    const std::size_t root = plan.root_of(layer.layer_name);
    EXPECT_GE(root, previous_root) << "layers appear in root order";
    previous_root = root;
    const fault::FaultVectorFile vectors =
        one_layer_vectors(layer.layer_name, spec, 37);
    FlimEngine full(vectors);
    FlimEngine from_root(vectors);
    const FloatTensor expected = plan.execute(x, full_ws, full);
    expect_equal_logits(expected,
                        prefix.execute_from(root, prefix_ws, from_root),
                        layer.layer_name);
  }
  EXPECT_GT(previous_root, 0u);
  EXPECT_EQ(prefix.fills(), 4u) << "one fill per distinct start root";
}

TEST(Plan, RangedRunsComposeAndBlockLayersMapToTheirRoot) {
  std::vector<LayerPtr> body;
  body.push_back(std::make_unique<BinaryConv2D>(
      "res/body", 2, 2, 3, 1, 1, deterministic_input(Shape{2, 18}, 87)));
  Model model("two-roots");
  model.add(std::make_unique<Sign>("sign"));
  model.add(std::make_unique<ResidualBlock>(
      "res", std::move(body),
      std::make_unique<BinaryConv2D>("res/shortcut", 2, 2, 1, 1, 0,
                                     deterministic_input(Shape{2, 2}, 88))));
  const FloatTensor x = deterministic_input(Shape{2, 2, 5, 5}, 89);
  const ForwardPlan plan(model, x.shape());
  ASSERT_EQ(plan.num_roots(), 2u);
  EXPECT_EQ(plan.root_of("sign"), 0u);
  EXPECT_EQ(plan.root_of("res"), 1u);
  EXPECT_EQ(plan.root_of("res/body"), 1u);
  EXPECT_EQ(plan.root_of("res/shortcut"), 1u);
  EXPECT_THROW(plan.root_of("no-such-layer"), std::invalid_argument);

  tensor::Workspace ws;
  ReferenceEngine engine;
  const FloatTensor full = plan.execute(x, ws, engine);
  const FloatTensor& signs = plan.execute_range(0, 1, x, ws, engine);
  EXPECT_EQ(&signs, &plan.entry_buffer(1, ws));
  expect_equal_logits(full, plan.execute_range(1, 2, signs, ws, engine),
                      "[0, 1) then [1, 2)");
  EXPECT_EQ(&plan.execute_range(2, 2, full, ws, engine), &full);

  EXPECT_THROW(plan.execute_range(1, 3, signs, ws, engine),
               std::invalid_argument);
  EXPECT_THROW(plan.execute_range(1, 2,
                                  deterministic_input(Shape{2, 2, 4, 4}, 90),
                                  ws, engine),
               std::invalid_argument);
  // Root 0 writes the buffer root 1 enters from.
  FloatTensor& aliased = plan.entry_buffer(1, ws);
  ws.reshape(aliased, x.shape());
  EXPECT_THROW(plan.execute_range(0, 1, aliased, ws, engine),
               std::invalid_argument);
}

TEST(Plan, SharedPlanSeparateWorkspacesAgree) {
  Model model = models::build_lenet_binary(6).to_inference_model();
  const FloatTensor x = deterministic_input(Shape{3, 1, 28, 28}, 43);
  const ForwardPlan plan(model, x.shape());

  tensor::Workspace ws_a, ws_b;
  ReferenceEngine engine_a, engine_b;
  const FloatTensor& a = plan.execute(x, ws_a, engine_a);
  const FloatTensor b = a;  // copy before the other arena executes
  const FloatTensor& c = plan.execute(x, ws_b, engine_b);
  expect_equal_logits(b, c, "per-worker workspaces");
}

TEST(Im2colVariants, PackedAndGatherMatchReferenceAcrossGeometries) {
  struct Case {
    std::int64_t c, h, w, k, stride, pad;
  };
  const Case cases[] = {
      {1, 28, 28, 5, 1, 0},  // LeNet-ish
      {3, 32, 32, 3, 1, 1},  // zoo stem
      {64, 16, 16, 3, 1, 1},
      {8, 33, 33, 5, 2, 2},   // odd extent, stride 2
      {2, 9, 80, 7, 3, 3},    // padded width > 64: general packed path
      {4, 12, 12, 1, 2, 0},   // 1x1 kernel, stride 2
  };
  core::Rng rng(71);
  for (const Case& tc : cases) {
    tensor::ConvGeometry g;
    g.in_channels = tc.c;
    g.in_h = tc.h;
    g.in_w = tc.w;
    g.kernel_h = g.kernel_w = tc.k;
    g.stride = tc.stride;
    g.pad = tc.pad;
    tensor::FloatTensor input(Shape{2, tc.c, tc.h, tc.w});
    for (std::int64_t i = 0; i < input.numel(); ++i) {
      input[i] = static_cast<float>(rng.uniform_double() * 2.0 - 1.0);
    }

    const tensor::BitMatrix reference = tensor::im2col_binary(input, g);

    tensor::BitMatrix packed(2 * tc.c * tc.h, tc.w + 2 * tc.pad);
    tensor::BitMatrix out(reference.rows(), reference.cols());
    tensor::im2col_binary_packed(input, g, packed, out);
    EXPECT_EQ(reference, out) << "packed, k=" << tc.k << " w=" << tc.w;

    tensor::BitMatrix gathered(reference.rows(), reference.cols());
    tensor::im2col_binary_gather(input, g, tensor::make_im2col_gather(g),
                                 gathered);
    EXPECT_EQ(reference, gathered) << "gather, k=" << tc.k << " w=" << tc.w;
  }
}

tensor::BitMatrix random_bits(std::int64_t rows, std::int64_t cols,
                              std::uint64_t seed) {
  tensor::BitMatrix m(rows, cols);
  core::Rng rng(seed);
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      m.set_bit(r, c, rng.bernoulli(0.5));
    }
  }
  return m;
}

TEST(PooledGemm, SerialAndShardedBitIdentical) {
  const tensor::BitMatrix a = random_bits(301, 433, 51);
  const tensor::BitMatrix w = random_bits(37, 433, 52);

  tensor::IntTensor serial, pooled;
  tensor::xnor_gemm(a, w, serial);
  core::ThreadPool pool(4);
  tensor::xnor_gemm(a, w, pooled, &pool);
  EXPECT_EQ(serial, pooled);
}

TEST(PooledGemm, TermFaultsSerialAndShardedBitIdentical) {
  const tensor::BitMatrix a = random_bits(257, 195, 53);
  const tensor::BitMatrix w = random_bits(41, 195, 54);
  const tensor::BitMatrix flip = random_bits(41, 195, 55);
  const tensor::BitMatrix sa0 = random_bits(41, 195, 56);
  const tensor::BitMatrix sa1 = random_bits(41, 195, 57);

  tensor::IntTensor serial, pooled;
  tensor::xnor_gemm_term_faults(a, w, flip, sa0, sa1, serial);
  core::ThreadPool pool(3);
  tensor::xnor_gemm_term_faults(a, w, flip, sa0, sa1, pooled, &pool);
  EXPECT_EQ(serial, pooled);
}

TEST(PooledGemm, EngineShardingMatchesSerialInference) {
  Model model = models::build_lenet_binary(9).to_inference_model();
  const FloatTensor x = deterministic_input(Shape{2, 1, 28, 28}, 61);
  const ForwardPlan plan(model, x.shape());

  tensor::Workspace ws_serial, ws_pooled;
  ReferenceEngine serial_engine, pooled_engine;
  const FloatTensor serial = plan.execute(x, ws_serial, serial_engine);
  core::ThreadPool pool(4);
  const FloatTensor& pooled =
      plan.execute(x, ws_pooled, pooled_engine, &pool);
  expect_equal_logits(serial, pooled, "engine sharding");
}

TEST(PooledGemm, NestedUseOfOnePoolRunsInlineInsteadOfDeadlocking) {
  // Batch-level parallel_for whose tasks shard their GEMMs on the same
  // pool: the nested call must degrade to inline execution.
  const tensor::BitMatrix a = random_bits(130, 96, 65);
  const tensor::BitMatrix w = random_bits(8, 96, 66);
  tensor::IntTensor serial;
  tensor::xnor_gemm(a, w, serial);

  core::ThreadPool pool(2);
  std::vector<tensor::IntTensor> outs(4);
  pool.parallel_for(outs.size(), [&](std::size_t i) {
    tensor::xnor_gemm(a, w, outs[i], &pool);
  });
  for (const auto& out : outs) EXPECT_EQ(serial, out);
}

TEST(FlimEngineValidation, CleanPathRejectsBatchMismatch) {
  // Regression: the clean early-return used to skip the batch-consistency
  // checks the faulty path enforces.
  FlimEngine engine;  // no fault entries -> clean path
  const tensor::BitMatrix a = random_bits(10, 8, 63);
  const tensor::BitMatrix w = random_bits(4, 8, 64);
  tensor::IntTensor out;
  EXPECT_THROW(engine.execute("layer", a, w, 0, out), std::invalid_argument);
  EXPECT_THROW(engine.execute("layer", a, w, 3, out), std::invalid_argument);
  // A consistent batch still runs clean.
  engine.execute("layer", a, w, 5, out);
  EXPECT_EQ(out.shape(), (Shape{10, 4}));
}

}  // namespace
}  // namespace flim::bnn
