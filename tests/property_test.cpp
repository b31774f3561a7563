// Property-based and corner-case sweeps across modules:
//  * gate correctness across device corners (the EDA sign-off question),
//  * algebraic invariants of fault application (involution, exactness),
//  * serialization idempotence over the whole model zoo.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <string>
#include <tuple>

#include "bnn/engine.hpp"
#include "bnn/flim_engine.hpp"
#include "bnn/serialize.hpp"
#include "core/rng.hpp"
#include "fault/fault_registry.hpp"
#include "fault/residual.hpp"
#include "lim/crossbar.hpp"
#include "models/zoo.hpp"
#include "reliability/march.hpp"
#include "reliability/monitor.hpp"
#include "tensor/xnor_gemm.hpp"

namespace flim {
namespace {

// ---------------------------------------------------------------------------
// Device corners: the XNOR gates must stay correct across pulse granularity,
// resistance window, and logic family -- a behavioural PVT-corner sweep.
struct DeviceCorner {
  int steps_per_pulse;
  double r_off_over_r_on;
  lim::LogicFamilyKind family;
};

// Prints a corner as e.g. magic_s12_w1000. Without it gtest prints the raw
// bytes, padding included, so the test IDs change from one process to the
// next.
void PrintTo(const DeviceCorner& corner, std::ostream* os) {
  std::string family = lim::to_string(corner.family);
  for (char& c : family) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  *os << family << "_s" << corner.steps_per_pulse << "_w"
      << static_cast<long long>(corner.r_off_over_r_on);
}

class GateAcrossCorners : public ::testing::TestWithParam<DeviceCorner> {};

TEST_P(GateAcrossCorners, XnorTruthTableHolds) {
  const DeviceCorner corner = GetParam();
  lim::CrossbarConfig cfg;
  cfg.rows = 1;
  cfg.cols = lim::kCellsPerGate;
  cfg.device.steps_per_pulse = corner.steps_per_pulse;
  cfg.device.r_off = cfg.device.r_on * corner.r_off_over_r_on;
  const auto family = lim::make_logic_family(corner.family);
  lim::CrossbarArray xbar(cfg);
  for (int a = 0; a < 2; ++a) {
    for (int b = 0; b < 2; ++b) {
      EXPECT_EQ(xbar.execute_xnor(*family, 0, 0, a != 0, b != 0), a == b)
          << "steps=" << corner.steps_per_pulse
          << " window=" << corner.r_off_over_r_on << " family="
          << family->name() << " a=" << a << " b=" << b;
    }
  }
}

// Note the pulse-width envelope: below ~12 integration steps the MAGIC NOR
// cannot complete the output RESET with the default switching rates (dw =
// 0.056/step from the ~1.0 V divider), so 12 is the shortest valid corner --
// a real design constraint of the electrical configuration, verified here.
INSTANTIATE_TEST_SUITE_P(
    Corners, GateAcrossCorners,
    ::testing::Values(DeviceCorner{12, 1000.0, lim::LogicFamilyKind::kMagic},
                      DeviceCorner{16, 1000.0, lim::LogicFamilyKind::kMagic},
                      DeviceCorner{32, 1000.0, lim::LogicFamilyKind::kMagic},
                      DeviceCorner{16, 100.0, lim::LogicFamilyKind::kMagic},
                      DeviceCorner{16, 10000.0, lim::LogicFamilyKind::kMagic},
                      DeviceCorner{16, 1000.0, lim::LogicFamilyKind::kImply},
                      DeviceCorner{32, 1000.0, lim::LogicFamilyKind::kImply},
                      DeviceCorner{16, 10000.0, lim::LogicFamilyKind::kImply}));

// ---------------------------------------------------------------------------
// Fault-generation properties over a rate sweep.
class GeneratorRates : public ::testing::TestWithParam<double> {};

TEST_P(GeneratorRates, ExactCountAndDeterminism) {
  const double rate = GetParam();
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kBitFlip;
  spec.injection_rate = rate;
  const fault::FaultStack stack = fault::stack_from_spec(spec);
  fault::RealizeContext ctx;
  ctx.grid = {32, 48};
  core::Rng r1(99), r2(99);
  const fault::FaultMask a = stack.realize(ctx, r1).front().mask;
  const fault::FaultMask b = stack.realize(ctx, r2).front().mask;
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.count_flip(),
            static_cast<std::int64_t>(std::llround(rate * 32 * 48)));
}

INSTANTIATE_TEST_SUITE_P(Rates, GeneratorRates,
                         ::testing::Values(0.0, 0.01, 0.05, 0.1, 0.25, 0.5,
                                           0.9, 1.0));

// ---------------------------------------------------------------------------
// Algebraic invariants of fault application.

tensor::BitMatrix random_bits(std::int64_t rows, std::int64_t cols,
                              std::uint64_t seed) {
  core::Rng rng(seed);
  tensor::BitMatrix m(rows, cols);
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      m.set_bit(r, c, rng.bernoulli(0.5));
    }
  }
  return m;
}

TEST(FaultInvariants, TermFlipIsAnInvolution) {
  // Applying the same flip mask twice must restore the clean result.
  const auto act = random_bits(5, 90, 1);
  const auto wts = random_bits(4, 90, 2);
  const auto flips = random_bits(4, 90, 3);
  const tensor::BitMatrix none(4, 90);

  tensor::IntTensor clean, once, twice;
  tensor::xnor_gemm(act, wts, clean);
  // "Applying twice" at the bit level = XOR of the two masks = empty mask;
  // verify via the kernel by flipping flipped products again manually:
  tensor::xnor_gemm_term_faults(act, wts, flips, none, none, once);
  // Build the double-flip mask (XOR with itself -> empty).
  tensor::BitMatrix empty(4, 90);
  tensor::xnor_gemm_term_faults(act, wts, empty, none, none, twice);
  EXPECT_EQ(twice, clean);
  // And a single application really changed something (overwhelmingly).
  EXPECT_NE(once, clean);
}

TEST(FaultInvariants, FlipPreservesParity) {
  // dot = K - 2*mismatches: any number of product flips changes the dot by
  // an even amount, so parity of (K - dot)/... is preserved: dot and K have
  // equal parity before and after.
  const std::int64_t k = 33;
  const auto act = random_bits(3, k, 4);
  const auto wts = random_bits(2, k, 5);
  const auto flips = random_bits(2, k, 6);
  const tensor::BitMatrix none(2, k);
  tensor::IntTensor clean, faulty;
  tensor::xnor_gemm(act, wts, clean);
  tensor::xnor_gemm_term_faults(act, wts, flips, none, none, faulty);
  for (std::int64_t i = 0; i < clean.numel(); ++i) {
    EXPECT_EQ((clean[i] - faulty[i]) % 2, 0);
    EXPECT_GE(faulty[i], -k);
    EXPECT_LE(faulty[i], k);
  }
}

TEST(FaultInvariants, OutputElementFlipIsAnInvolution) {
  fault::RealizedFault flips;
  flips.model = "bitflip";
  flips.mask = fault::FaultMask(4, 4);
  core::Rng rng(7);
  for (std::int64_t s = 0; s < 16; ++s) {
    flips.mask.set_flip(s, rng.bernoulli(0.4));
  }
  fault::FaultVectorEntry e;
  e.layer_name = "l";
  e.components.push_back(flips);
  fault::FaultInjector inj(e);
  tensor::IntTensor feature(tensor::Shape{8, 4});
  for (std::int64_t i = 0; i < feature.numel(); ++i) {
    feature[i] = static_cast<std::int32_t>(rng.uniform(41)) - 20;
  }
  const tensor::IntTensor original = feature;
  inj.apply_output_element(feature, 0, 8, /*execution=*/0, 20);
  inj.apply_output_element(feature, 0, 8, /*execution=*/1, 20);
  EXPECT_EQ(feature, original);
}

TEST(FaultInvariants, StuckAtIsIdempotent) {
  fault::RealizedFault stuck;
  stuck.model = "stuckat";
  stuck.mask = fault::FaultMask(2, 2);
  stuck.mask.set_sa0(0, true);
  stuck.mask.set_sa1(3, true);
  fault::FaultVectorEntry e;
  e.layer_name = "l";
  e.components.push_back(stuck);
  fault::FaultInjector inj(e);
  tensor::IntTensor feature(tensor::Shape{2, 2});
  feature[0] = 9;
  feature[3] = -9;
  inj.apply_output_element(feature, 0, 2, /*execution=*/0, 12);
  const tensor::IntTensor once = feature;
  inj.apply_output_element(feature, 0, 2, /*execution=*/1, 12);
  EXPECT_EQ(feature, once);  // pinning again changes nothing
}

// ---------------------------------------------------------------------------
// Serialization idempotence across the whole zoo: save(load(save(m))) must
// produce byte-identical files and identical logits.
class ZooSerialization : public ::testing::TestWithParam<std::string> {};

TEST_P(ZooSerialization, SaveLoadSaveIsStable) {
  train::Graph g = models::build_zoo_graph(GetParam(), 11);
  bnn::Model model = g.to_inference_model();
  // Per-model names: ctest runs the instances as concurrent processes.
  const std::string p1 =
      ::testing::TempDir() + "/zoo_a_" + GetParam() + ".flim";
  const std::string p2 =
      ::testing::TempDir() + "/zoo_b_" + GetParam() + ".flim";
  bnn::save_model(model, p1);
  bnn::Model loaded = bnn::load_model(p1);
  bnn::save_model(loaded, p2);

  std::ifstream f1(p1, std::ios::binary), f2(p2, std::ios::binary);
  const std::vector<char> b1((std::istreambuf_iterator<char>(f1)),
                             std::istreambuf_iterator<char>());
  const std::vector<char> b2((std::istreambuf_iterator<char>(f2)),
                             std::istreambuf_iterator<char>());
  EXPECT_EQ(b1, b2);

  bnn::ReferenceEngine engine;
  const tensor::FloatTensor x(tensor::Shape{1, 3, 32, 32}, 0.4f);
  EXPECT_EQ(model.forward(x, engine), loaded.forward(x, engine));
  std::filesystem::remove(p1);
  std::filesystem::remove(p2);
}

INSTANTIATE_TEST_SUITE_P(FourFamilies, ZooSerialization,
                         ::testing::Values("BinaryDenseNet28",
                                           "BinaryResNetE18", "BiRealNet",
                                           "XNORNet"));

// ---------------------------------------------------------------------------
// March-test properties over every bundled algorithm: a clean array passes
// with the advertised op count, and any single hard stuck-at fault -- the
// fault class every March test guarantees -- is detected wherever it lands.

class MarchAlgorithms : public ::testing::TestWithParam<int> {
 protected:
  reliability::MarchTest test() const {
    return reliability::standard_march_tests()[static_cast<std::size_t>(
        GetParam())];
  }
};

TEST_P(MarchAlgorithms, CleanArrayPassesWithAdvertisedOpCount) {
  lim::CrossbarConfig cfg;
  cfg.rows = 6;
  cfg.cols = 7;  // non-power-of-two on purpose
  lim::CrossbarArray array(cfg);
  const reliability::MarchResult result =
      reliability::run_march(test(), array);
  EXPECT_FALSE(result.detected());
  EXPECT_EQ(result.ops_executed,
            static_cast<std::uint64_t>(test().ops_per_cell()) * 6u * 7u);
}

TEST_P(MarchAlgorithms, SingleStuckAtDetectedAtEveryLocation) {
  lim::CrossbarConfig cfg;
  cfg.rows = 3;
  cfg.cols = 4;
  for (std::int64_t r = 0; r < cfg.rows; ++r) {
    for (std::int64_t c = 0; c < cfg.cols; ++c) {
      for (const auto kind : {lim::DeviceFaultKind::kStuckAt0,
                              lim::DeviceFaultKind::kStuckAt1}) {
        lim::CrossbarArray array(cfg);
        array.inject_device_fault(r, c, kind, 1.0);
        EXPECT_TRUE(reliability::run_march(test(), array).detected())
            << test().name << " missed " << lim::to_string(kind) << " at ("
            << r << "," << c << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, MarchAlgorithms,
                         ::testing::Range(0, 4));

// ---------------------------------------------------------------------------
// SEC-DED scrub invariants over the organization grid: the residual never
// introduces faults, never grows, and scrubbing is idempotent.

class EccOrganizations
    : public ::testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(EccOrganizations, ResidualIsSubsetAndScrubIsIdempotent) {
  const auto [word_bits, interleave, rate] = GetParam();
  const fault::ResidualOptions options{word_bits, interleave, 1};

  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kStuckAt;
  spec.injection_rate = rate;
  fault::RealizeContext ctx;
  ctx.grid = {24, 40};
  core::Rng rng(7u + static_cast<std::uint64_t>(word_bits));
  const fault::FaultMask original =
      fault::stack_from_spec(spec).realize(ctx, rng).front().mask;

  fault::ResidualStats stats;
  const fault::FaultMask residual =
      fault::apply_word_residual(original, options, &stats);

  // Subset: every residual fault existed in the original.
  for (std::int64_t s = 0; s < original.num_slots(); ++s) {
    EXPECT_LE(residual.sa0(s), original.sa0(s));
    EXPECT_LE(residual.sa1(s), original.sa1(s));
    EXPECT_LE(residual.flip(s), original.flip(s));
  }
  // Monotone: the scrub never grows the fault population.
  EXPECT_LE(residual.count_sa0() + residual.count_sa1(),
            original.count_sa0() + original.count_sa1());
  EXPECT_EQ(stats.faulty_bits_before,
            original.count_sa0() + original.count_sa1());
  EXPECT_EQ(stats.faulty_bits_after,
            residual.count_sa0() + residual.count_sa1());

  // Idempotent: surviving words still hold >= 2 faults, so a second pass
  // corrects nothing further.
  const fault::FaultMask twice =
      fault::apply_word_residual(residual, options);
  EXPECT_EQ(twice, residual);
}

INSTANTIATE_TEST_SUITE_P(
    Organizations, EccOrganizations,
    ::testing::Combine(::testing::Values(16, 32, 64),
                       ::testing::Values(1, 2, 8),
                       ::testing::Values(0.002, 0.02, 0.1)));

// ---------------------------------------------------------------------------
// Monitor properties across policies: a reported detection always points at
// a genuinely faulty slot, and the op accounting matches the probe count.

class MonitorPolicies
    : public ::testing::TestWithParam<reliability::CanaryPolicy> {};

TEST_P(MonitorPolicies, DetectionsAreTruthfulAndAccounted) {
  reliability::MonitorConfig cfg;
  cfg.grid = {8, 8};
  cfg.test_period = 4;
  cfg.slots_per_round = 4;
  cfg.policy = GetParam();
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    cfg.seed = seed;
    const reliability::OnlineMonitor monitor(cfg);
    fault::FaultMask mask(8, 8);
    mask.set_sa1(static_cast<std::int64_t>(seed * 7 % 64), true);
    const reliability::DetectionOutcome outcome =
        monitor.run_until_detection(mask, 1 << 20);
    ASSERT_TRUE(outcome.detected);
    EXPECT_TRUE(mask.sa1(outcome.detecting_slot));
    // 2 ops per probe; the final (detecting) round may be partial.
    EXPECT_EQ(outcome.canary_ops_spent % 2, 0);
    EXPECT_GT(outcome.canary_ops_spent, 0);
    EXPECT_EQ(outcome.inferences_elapsed % cfg.test_period, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, MonitorPolicies,
    ::testing::Values(reliability::CanaryPolicy::kRoundRobin,
                      reliability::CanaryPolicy::kRandom));

}  // namespace
}  // namespace flim
