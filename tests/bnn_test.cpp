// Unit tests for the BNN engine: layers, engines, model, serialization.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "bnn/activations.hpp"
#include "bnn/batch_norm.hpp"
#include "bnn/binary_conv2d.hpp"
#include "bnn/binary_dense.hpp"
#include "bnn/blocks.hpp"
#include "bnn/conv2d.hpp"
#include "bnn/dense.hpp"
#include "bnn/engine.hpp"
#include "bnn/flim_engine.hpp"
#include "bnn/model.hpp"
#include "bnn/pooling.hpp"
#include "bnn/serialize.hpp"
#include "core/rng.hpp"
#include "fault/fault_vector_file.hpp"
#include "tensor/ops.hpp"

namespace flim::bnn {
namespace {

using tensor::FloatTensor;
using tensor::Shape;

FloatTensor random_pm1(const Shape& shape, std::uint64_t seed) {
  core::Rng rng(seed);
  FloatTensor t(shape);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = rng.bernoulli(0.5) ? 1.0f : -1.0f;
  }
  return t;
}

FloatTensor random_float(const Shape& shape, std::uint64_t seed) {
  core::Rng rng(seed);
  FloatTensor t(shape);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.normal());
  }
  return t;
}

/// Wraps one layer as a Model, the unit every forward pass runs on.
Model one_layer(LayerPtr layer) {
  Model model("one-layer");
  model.add(std::move(layer));
  return model;
}

TEST(BinaryConv2D, MatchesFloatSignConvolution) {
  // Binary conv must equal a float convolution of sign(x) with ±1 weights
  // and -1 padding.
  const std::int64_t in_ch = 3, out_ch = 4, k = 3;
  const FloatTensor weights = random_pm1(Shape{out_ch, in_ch * k * k}, 1);
  const Model conv = one_layer(
      std::make_unique<BinaryConv2D>("c", in_ch, out_ch, k, 1, 1, weights));
  const FloatTensor x = random_float(Shape{2, in_ch, 6, 6}, 2);

  ReferenceEngine engine;
  const FloatTensor y = conv.forward(x, engine);
  ASSERT_EQ(y.shape(), (Shape{2, out_ch, 6, 6}));

  // Naive reference.
  for (std::int64_t b = 0; b < 2; ++b) {
    for (std::int64_t oc = 0; oc < out_ch; ++oc) {
      for (std::int64_t oy = 0; oy < 6; ++oy) {
        for (std::int64_t ox = 0; ox < 6; ++ox) {
          float acc = 0.0f;
          std::int64_t idx = 0;
          for (std::int64_t ic = 0; ic < in_ch; ++ic) {
            for (std::int64_t ky = 0; ky < k; ++ky) {
              for (std::int64_t kx = 0; kx < k; ++kx, ++idx) {
                const std::int64_t iy = oy + ky - 1;
                const std::int64_t ix = ox + kx - 1;
                float v = -1.0f;  // binary padding
                if (iy >= 0 && iy < 6 && ix >= 0 && ix < 6) {
                  v = x.at4(b, ic, iy, ix) >= 0.0f ? 1.0f : -1.0f;
                }
                acc += v * weights.at2(oc, idx);
              }
            }
          }
          EXPECT_FLOAT_EQ(y.at4(b, oc, oy, ox), acc);
        }
      }
    }
  }
}

TEST(BinaryDense, MatchesSignDotProduct) {
  const FloatTensor weights = random_pm1(Shape{3, 10}, 3);
  const Model dense =
      one_layer(std::make_unique<BinaryDense>("d", 10, 3, weights));
  const FloatTensor x = random_float(Shape{2, 10}, 4);
  ReferenceEngine engine;
  const FloatTensor y = dense.forward(x, engine);
  for (std::int64_t b = 0; b < 2; ++b) {
    for (std::int64_t o = 0; o < 3; ++o) {
      float acc = 0.0f;
      for (std::int64_t i = 0; i < 10; ++i) {
        acc += (x.at2(b, i) >= 0.0f ? 1.0f : -1.0f) * weights.at2(o, i);
      }
      EXPECT_FLOAT_EQ(y.at2(b, o), acc);
    }
  }
}

TEST(Conv2D, IdentityKernelPassesThrough) {
  // 1x1 kernel with weight 1 reproduces the input.
  FloatTensor w(Shape{1, 1}, 1.0f);
  const Model conv = one_layer(
      std::make_unique<Conv2D>("c", 1, 1, 1, 1, 0, w, FloatTensor(Shape{1})));
  const FloatTensor x = random_float(Shape{1, 1, 4, 4}, 5);
  ReferenceEngine engine;
  const FloatTensor y = conv.forward(x, engine);
  for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Dense, AppliesBias) {
  FloatTensor w(Shape{2, 2}, std::vector<float>{1, 0, 0, 1});
  FloatTensor b(Shape{2}, std::vector<float>{10, 20});
  const Model dense = one_layer(std::make_unique<Dense>("d", 2, 2, w, b));
  FloatTensor x(Shape{1, 2}, std::vector<float>{1, 2});
  ReferenceEngine engine;
  const FloatTensor y = dense.forward(x, engine);
  EXPECT_FLOAT_EQ(y.at2(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(y.at2(0, 1), 22.0f);
}

TEST(BatchNorm, NormalizesPerChannel) {
  const std::int64_t ch = 2;
  FloatTensor gamma(Shape{ch}, 2.0f);
  FloatTensor beta(Shape{ch}, std::vector<float>{1.0f, -1.0f});
  FloatTensor mean(Shape{ch}, std::vector<float>{5.0f, 0.0f});
  FloatTensor var(Shape{ch}, std::vector<float>{4.0f, 1.0f});
  const Model bn = one_layer(
      std::make_unique<BatchNorm>("bn", ch, gamma, beta, mean, var, 0.0f));

  FloatTensor x(Shape{1, ch, 1, 2});
  x.at4(0, 0, 0, 0) = 5.0f;  // (5-5)/2*2+1 = 1
  x.at4(0, 0, 0, 1) = 7.0f;  // (7-5)/2*2+1 = 3
  x.at4(0, 1, 0, 0) = 1.0f;  // (1-0)/1*2-1 = 1
  x.at4(0, 1, 0, 1) = -1.0f;

  ReferenceEngine engine;
  const FloatTensor y = bn.forward(x, engine);
  EXPECT_NEAR(y.at4(0, 0, 0, 0), 1.0f, 1e-5f);
  EXPECT_NEAR(y.at4(0, 0, 0, 1), 3.0f, 1e-5f);
  EXPECT_NEAR(y.at4(0, 1, 0, 0), 1.0f, 1e-5f);
  EXPECT_NEAR(y.at4(0, 1, 0, 1), -3.0f, 1e-5f);
}

TEST(BatchNorm, Rank2Inputs) {
  FloatTensor ones(Shape{3}, 1.0f);
  FloatTensor zeros(Shape{3});
  const Model bn = one_layer(
      std::make_unique<BatchNorm>("bn", 3, ones, zeros, zeros, ones, 0.0f));
  const FloatTensor x = random_float(Shape{2, 3}, 6);
  ReferenceEngine engine;
  const FloatTensor y = bn.forward(x, engine);
  for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_NEAR(y[i], x[i], 1e-5f);
}

TEST(MaxPool2D, PicksWindowMaximum) {
  const Model pool = one_layer(std::make_unique<MaxPool2D>("p", 2, 2));
  FloatTensor x(Shape{1, 1, 4, 4});
  for (std::int64_t i = 0; i < 16; ++i) x[i] = static_cast<float>(i);
  ReferenceEngine engine;
  const FloatTensor y = pool.forward(x, engine);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(y.at4(0, 0, 0, 0), 5.0f);
  EXPECT_FLOAT_EQ(y.at4(0, 0, 1, 1), 15.0f);
}

TEST(Pooling, GlobalAvgAndAvgPool) {
  const Model gap = one_layer(std::make_unique<GlobalAvgPool>("g"));
  const Model avg = one_layer(std::make_unique<AvgPool2D>("a", 2, 2));
  FloatTensor x(Shape{1, 2, 2, 2});
  for (std::int64_t i = 0; i < 8; ++i) x[i] = static_cast<float>(i);
  ReferenceEngine engine;
  const FloatTensor g = gap.forward(x, engine);
  EXPECT_EQ(g.shape(), (Shape{1, 2}));
  EXPECT_FLOAT_EQ(g.at2(0, 0), 1.5f);
  EXPECT_FLOAT_EQ(g.at2(0, 1), 5.5f);
  const FloatTensor a = avg.forward(x, engine);
  EXPECT_FLOAT_EQ(a.at4(0, 0, 0, 0), 1.5f);
}

TEST(Activations, SignReluScaleFlatten) {
  ReferenceEngine engine;

  const Model sign_layer = one_layer(std::make_unique<Sign>("s"));
  FloatTensor x(Shape{1, 1, 1, 4}, std::vector<float>{-2, -0.0f, 0.5f, 3});
  const FloatTensor s = sign_layer.forward(x, engine);
  EXPECT_FLOAT_EQ(s[0], -1.0f);
  EXPECT_FLOAT_EQ(s[1], 1.0f);  // sign(-0.0) == sign(0) == +1

  const Model relu = one_layer(std::make_unique<ReLU>("r"));
  const FloatTensor r = relu.forward(x, engine);
  EXPECT_FLOAT_EQ(r[0], 0.0f);
  EXPECT_FLOAT_EQ(r[3], 3.0f);

  const Model scale = one_layer(
      std::make_unique<ChannelScale>("cs", FloatTensor(Shape{1}, 2.0f)));
  const FloatTensor sc = scale.forward(x, engine);
  EXPECT_FLOAT_EQ(sc[3], 6.0f);

  const Model flat = one_layer(std::make_unique<Flatten>("f"));
  const FloatTensor fl = flat.forward(x, engine);
  EXPECT_EQ(fl.shape(), (Shape{1, 4}));
}

TEST(Blocks, ResidualAddsIdentity) {
  std::vector<LayerPtr> body;
  body.push_back(std::make_unique<ChannelScale>("x2", FloatTensor(Shape{1}, 2.0f)));
  const Model block = one_layer(
      std::make_unique<ResidualBlock>("res", std::move(body), nullptr));
  FloatTensor x(Shape{1, 1, 2, 2}, 3.0f);
  ReferenceEngine engine;
  const FloatTensor y = block.forward(x, engine);
  for (std::int64_t i = 0; i < y.numel(); ++i) EXPECT_FLOAT_EQ(y[i], 9.0f);
}

TEST(Blocks, ConcatGrowsChannels) {
  std::vector<LayerPtr> body;
  body.push_back(std::make_unique<ChannelScale>("x2", FloatTensor(Shape{2}, 2.0f)));
  const Model block =
      one_layer(std::make_unique<ConcatBlock>("cat", std::move(body)));
  FloatTensor x(Shape{1, 2, 2, 2}, 1.0f);
  ReferenceEngine engine;
  const FloatTensor y = block.forward(x, engine);
  EXPECT_EQ(y.shape(), (Shape{1, 4, 2, 2}));
  EXPECT_FLOAT_EQ(y.at4(0, 0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(y.at4(0, 3, 0, 0), 2.0f);
}

TEST(ConvGeometry, RejectsImpossibleKernelStrideAndPad) {
  // A zero stride would divide by zero when the plan sizes the output.
  const FloatTensor w9 = random_pm1(Shape{1, 9}, 19);
  const FloatTensor w0 = FloatTensor(Shape{1, 0});
  const FloatTensor bias(Shape{1});
  EXPECT_THROW(BinaryConv2D("c", 1, 1, 3, 0, 0, w9), std::invalid_argument);
  EXPECT_THROW(BinaryConv2D("c", 1, 1, 0, 1, 0, w0), std::invalid_argument);
  EXPECT_THROW(BinaryConv2D("c", 1, 1, 3, 1, -1, w9), std::invalid_argument);
  EXPECT_THROW(Conv2D("c", 1, 1, 3, 0, 0, w9, bias), std::invalid_argument);
  EXPECT_THROW(Conv2D("c", 1, 1, 0, 1, 0, w0, bias), std::invalid_argument);
  EXPECT_THROW(Conv2D("c", 1, 1, 3, 1, -1, w9, bias), std::invalid_argument);
}

// Key verification (paper, Section IV): FLIM without faults must equal the
// vanilla framework exactly.
TEST(FlimEngine, ZeroFaultsEqualsReference) {
  const FloatTensor weights = random_pm1(Shape{6, 30}, 7);
  const Model dense =
      one_layer(std::make_unique<BinaryDense>("layer", 30, 6, weights));
  const FloatTensor x = random_float(Shape{4, 30}, 8);

  ReferenceEngine ref;
  FlimEngine flim;  // no fault entries
  EXPECT_EQ(dense.forward(x, ref), dense.forward(x, flim));
}

/// One-component fault entry for `layer` on a clear rows x cols grid.
fault::FaultVectorEntry fault_entry(const std::string& layer,
                                    const std::string& model,
                                    std::int64_t rows, std::int64_t cols) {
  fault::RealizedFault component;
  component.model = model;
  component.mask = fault::FaultMask(rows, cols);
  fault::FaultVectorEntry entry;
  entry.layer_name = layer;
  entry.components.push_back(std::move(component));
  return entry;
}

TEST(FlimEngine, CleanMaskEqualsReference) {
  // Even with an (all-zero) mask configured, results must be identical.
  const FloatTensor weights = random_pm1(Shape{6, 30}, 9);
  const Model dense =
      one_layer(std::make_unique<BinaryDense>("layer", 30, 6, weights));
  const FloatTensor x = random_float(Shape{4, 30}, 10);

  fault::FaultVectorEntry entry = fault_entry("layer", "bitflip", 5, 5);
  for (const auto granularity : {fault::FaultGranularity::kOutputElement,
                                 fault::FaultGranularity::kProductTerm}) {
    entry.granularity = granularity;
    FlimEngine flim;
    flim.set_layer_fault(entry);
    ReferenceEngine ref;
    EXPECT_EQ(dense.forward(x, ref), dense.forward(x, flim));
  }
}

TEST(FlimEngine, FullFlipMaskNegatesEverything) {
  const FloatTensor weights = random_pm1(Shape{4, 20}, 11);
  const Model dense =
      one_layer(std::make_unique<BinaryDense>("layer", 20, 4, weights));
  const FloatTensor x = random_float(Shape{2, 20}, 12);

  fault::FaultVectorEntry entry = fault_entry("layer", "bitflip", 2, 2);
  for (std::int64_t s = 0; s < 4; ++s) {
    entry.components[0].mask.set_flip(s, true);
  }

  ReferenceEngine ref;
  FlimEngine flim;
  flim.set_layer_fault(entry);
  const FloatTensor clean = dense.forward(x, ref);
  const FloatTensor faulty = dense.forward(x, flim);
  for (std::int64_t i = 0; i < clean.numel(); ++i) {
    EXPECT_FLOAT_EQ(faulty[i], -clean[i]);
  }
}

TEST(FlimEngine, FaultsOnlyTouchConfiguredLayer) {
  const FloatTensor weights = random_pm1(Shape{4, 20}, 13);
  const Model faulty_layer =
      one_layer(std::make_unique<BinaryDense>("faulty", 20, 4, weights));
  const Model clean_layer =
      one_layer(std::make_unique<BinaryDense>("clean", 20, 4, weights));
  const FloatTensor x = random_float(Shape{2, 20}, 14);

  fault::FaultVectorEntry entry = fault_entry("faulty", "bitflip", 2, 2);
  entry.components[0].mask.set_flip(0, true);

  FlimEngine flim;
  flim.set_layer_fault(entry);
  ReferenceEngine ref;
  EXPECT_EQ(clean_layer.forward(x, flim), clean_layer.forward(x, ref));
  EXPECT_NE(faulty_layer.forward(x, flim), faulty_layer.forward(x, ref));
}

TEST(FlimEngine, ResetTimeRestartsDynamicFaults) {
  const FloatTensor weights = random_pm1(Shape{2, 10}, 15);
  const Model dense =
      one_layer(std::make_unique<BinaryDense>("layer", 10, 2, weights));
  const FloatTensor x = random_float(Shape{1, 10}, 16);

  fault::FaultVectorEntry entry = fault_entry("layer", "dynamic", 1, 2);
  entry.components[0].params = {{"period", 2.0}};
  entry.components[0].mask.set_flip(0, true);
  entry.components[0].mask.set_flip(1, true);

  FlimEngine flim;
  flim.set_layer_fault(entry);
  ReferenceEngine ref;
  const FloatTensor clean = dense.forward(x, ref);

  // Execution 0: inactive; execution 1: active.
  EXPECT_EQ(dense.forward(x, flim), clean);
  EXPECT_NE(dense.forward(x, flim), clean);
  flim.reset_time();
  EXPECT_EQ(dense.forward(x, flim), clean);
}

TEST(RecordingEngine, CapturesWorkloads) {
  const FloatTensor weights = random_pm1(Shape{4, 27}, 17);
  const Model conv =
      one_layer(std::make_unique<BinaryConv2D>("conv", 3, 4, 3, 1, 1, weights));
  const FloatTensor x = random_float(Shape{1, 3, 5, 5}, 18);
  RecordingEngine rec;
  conv.forward(x, rec);
  ASSERT_EQ(rec.workloads().size(), 1u);
  const LayerWorkload& w = rec.workloads()[0];
  EXPECT_EQ(w.layer_name, "conv");
  EXPECT_EQ(w.positions_per_image, 25);
  EXPECT_EQ(w.out_channels, 4);
  EXPECT_EQ(w.k, 27);
  EXPECT_EQ(w.output_elements_per_image(), 100);
  EXPECT_EQ(w.product_terms_per_image(), 2700);
}

Model make_tiny_model(std::uint64_t seed) {
  Model m("tiny");
  core::Rng rng(seed);
  m.add(std::make_unique<Conv2D>("stem", 1, 2, 3, 1, 1,
                                 random_float(Shape{2, 9}, seed + 1),
                                 FloatTensor(Shape{2})));
  m.add(std::make_unique<BatchNorm>("bn", 2, FloatTensor(Shape{2}, 1.0f),
                                    FloatTensor(Shape{2}),
                                    FloatTensor(Shape{2}),
                                    FloatTensor(Shape{2}, 1.0f)));
  m.add(std::make_unique<Sign>("sign"));
  m.add(std::make_unique<BinaryConv2D>("bconv", 2, 4, 3, 1, 1,
                                       random_pm1(Shape{4, 18}, seed + 2)));
  m.add(std::make_unique<MaxPool2D>("pool", 2, 2));
  m.add(std::make_unique<Flatten>("flat"));
  m.add(std::make_unique<BinaryDense>("head", 4 * 3 * 3,
                                      10, random_pm1(Shape{10, 36}, seed + 3)));
  return m;
}

TEST(Model, ForwardShapeAndAnalyze) {
  Model m = make_tiny_model(21);
  ReferenceEngine engine;
  const FloatTensor x = random_float(Shape{2, 1, 6, 6}, 22);
  const FloatTensor logits = m.forward(x, engine);
  EXPECT_EQ(logits.shape(), (Shape{2, 10}));

  const ModelCharacteristics c = m.analyze(random_float(Shape{1, 1, 6, 6}, 23));
  EXPECT_EQ(c.binarized_layers.size(), 2u);  // bconv + head
  EXPECT_GT(c.binary_params, 0);
  EXPECT_GT(c.real_params, 0);
  EXPECT_GT(c.binarized_percent, 0.0);
  EXPECT_LT(c.binarized_percent, 100.0);
  EXPECT_GT(c.size_megabytes, 0.0);
}

TEST(Model, SerializationRoundTripPreservesLogits) {
  Model m = make_tiny_model(31);
  const std::string path = ::testing::TempDir() + "/flim_model_test.flim";
  save_model(m, path);
  const Model loaded = load_model(path);
  EXPECT_EQ(loaded.name(), "tiny");
  EXPECT_EQ(loaded.num_layers(), m.num_layers());

  ReferenceEngine engine;
  const FloatTensor x = random_float(Shape{3, 1, 6, 6}, 32);
  const FloatTensor a = m.forward(x, engine);
  const FloatTensor b = loaded.forward(x, engine);
  EXPECT_EQ(a, b);
  std::filesystem::remove(path);
}

TEST(Model, SerializationHandlesBlocks) {
  Model m("blocks");
  std::vector<LayerPtr> body;
  body.push_back(std::make_unique<ChannelScale>("s", FloatTensor(Shape{2}, 2.0f)));
  m.add(std::make_unique<ResidualBlock>("res", std::move(body), nullptr));
  std::vector<LayerPtr> cat_body;
  cat_body.push_back(
      std::make_unique<ChannelScale>("s2", FloatTensor(Shape{2}, 0.5f)));
  m.add(std::make_unique<ConcatBlock>("cat", std::move(cat_body)));

  const std::string path = ::testing::TempDir() + "/flim_blocks_test.flim";
  save_model(m, path);
  const Model loaded = load_model(path);

  ReferenceEngine engine;
  const FloatTensor x = random_float(Shape{1, 2, 3, 3}, 33);
  EXPECT_EQ(m.forward(x, engine), loaded.forward(x, engine));
  std::filesystem::remove(path);
}

/// Builds model files byte by byte, in the little-endian layout
/// save_model writes, to reach what save_model never produces.
class ModelFileBytes {
 public:
  ModelFileBytes() {
    u64(0x314c444d4d494c46ull);  // "FLIMMDL1"
    u32(1);                      // version
    str("hostile");
  }
  ModelFileBytes& u8(std::uint8_t v) { return raw(&v, sizeof v); }
  ModelFileBytes& u32(std::uint32_t v) { return raw(&v, sizeof v); }
  ModelFileBytes& u64(std::uint64_t v) { return raw(&v, sizeof v); }
  ModelFileBytes& i64(std::int64_t v) { return raw(&v, sizeof v); }
  ModelFileBytes& str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes_ += s;
    return *this;
  }

  /// Writes the bytes to a temp file and returns its path.
  std::string save(const std::string& file) const {
    const std::string path = ::testing::TempDir() + "/" + file;
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes_.data(), static_cast<std::streamsize>(bytes_.size()));
    return path;
  }

 private:
  ModelFileBytes& raw(const void* p, std::size_t n) {
    bytes_.append(static_cast<const char*>(p), n);
    return *this;
  }
  std::string bytes_;
};

TEST(ModelFile, RejectsOversizedTensorDimension) {
  // A single 2^40 dimension used to reach the allocator (std::bad_alloc).
  ModelFileBytes f;
  f.u32(1).str("channel_scale").str("gains").u32(1).i64(std::int64_t{1} << 40);
  const std::string path = f.save("flim_oversized_dim.flim");
  EXPECT_THROW(load_model(path), std::invalid_argument);
  std::filesystem::remove(path);
}

TEST(ModelFile, RejectsOverflowingElementCount) {
  // {2^32, 2^32}: the element count overflows int64 before any allocation.
  ModelFileBytes f;
  f.u32(1).str("channel_scale").str("gains").u32(2);
  f.i64(std::int64_t{1} << 32).i64(std::int64_t{1} << 32);
  const std::string path = f.save("flim_overflow_dims.flim");
  EXPECT_THROW(load_model(path), std::invalid_argument);
  std::filesystem::remove(path);
}

TEST(ModelFile, RejectsOverDeepBlockNesting) {
  // 100000 nested sequential blocks used to exhaust the stack.
  ModelFileBytes f;
  f.u32(1);
  for (int i = 0; i < 100000; ++i) f.str("sequential").str("s").u32(1);
  f.str("sequential").str("s").u32(0);
  const std::string path = f.save("flim_deep_nesting.flim");
  EXPECT_THROW(load_model(path), std::invalid_argument);
  std::filesystem::remove(path);
}

TEST(ModelFile, RejectsZeroStrideConv) {
  ModelFileBytes f;
  f.u32(1).str("binary_conv2d").str("c");
  f.i64(1).i64(1).i64(1).i64(0).i64(0);  // in, out, kernel, stride 0, pad
  f.u32(2).i64(1).i64(1).u32(0x3f800000u);  // weights [1, 1] = {1.0f}
  const std::string path = f.save("flim_zero_stride.flim");
  EXPECT_THROW(load_model(path), std::invalid_argument);
  std::filesystem::remove(path);
}

TEST(Model, EvaluateComputesAccuracy) {
  Model m = make_tiny_model(41);
  ReferenceEngine engine;
  data::Batch batch;
  batch.images = random_float(Shape{4, 1, 6, 6}, 42);
  const FloatTensor logits = m.forward(batch.images, engine);
  batch.labels = tensor::argmax_rows(logits);
  EXPECT_DOUBLE_EQ(m.evaluate(batch, engine), 1.0);
}

}  // namespace
}  // namespace flim::bnn
