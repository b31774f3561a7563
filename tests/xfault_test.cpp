// Tests for the X-Fault-style device-level engine, including the
// cross-validation against FLIM the paper performs.
#include <gtest/gtest.h>

#include "bnn/binary_dense.hpp"
#include "bnn/engine.hpp"
#include "bnn/flim_engine.hpp"
#include "core/rng.hpp"
#include "fault/fault_registry.hpp"
#include "xfault/device_engine.hpp"

namespace flim::xfault {
namespace {

using tensor::BitMatrix;
using tensor::FloatTensor;
using tensor::IntTensor;
using tensor::Shape;

FloatTensor random_pm1(const Shape& shape, std::uint64_t seed) {
  core::Rng rng(seed);
  FloatTensor t(shape);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = rng.bernoulli(0.5) ? 1.0f : -1.0f;
  }
  return t;
}

DeviceEngineConfig small_config(lim::LogicFamilyKind family) {
  DeviceEngineConfig cfg;
  cfg.crossbar.rows = 4;
  cfg.crossbar.cols = 16;  // 16 gates by default
  cfg.family = family;
  return cfg;
}

class DeviceEngineFamilies
    : public ::testing::TestWithParam<lim::LogicFamilyKind> {};

TEST_P(DeviceEngineFamilies, CleanExecutionMatchesReference) {
  const FloatTensor a = random_pm1(Shape{3, 9}, 1);
  const FloatTensor w = random_pm1(Shape{2, 9}, 2);
  const BitMatrix pa = BitMatrix::from_float(a);
  const BitMatrix pw = BitMatrix::from_float(w);

  bnn::ReferenceEngine ref;
  IntTensor expected;
  ref.execute("layer", pa, pw, 1, expected);

  DeviceEngine device(small_config(GetParam()));
  IntTensor actual;
  device.execute("layer", pa, pw, 1, actual);
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(device.stats().xnor_ops, 3u * 2u * 9u);
}

INSTANTIATE_TEST_SUITE_P(BothFamilies, DeviceEngineFamilies,
                         ::testing::Values(lim::LogicFamilyKind::kMagic,
                                           lim::LogicFamilyKind::kImply));

/// An empty one-component product-term entry of `model` on a rows x cols
/// gate grid; cases mark slots.
fault::FaultVectorEntry gate_grid_entry(const std::string& model,
                                        std::int64_t rows, std::int64_t cols) {
  fault::RealizedFault component;
  component.model = model;
  component.mask = fault::FaultMask(rows, cols);
  fault::FaultVectorEntry e;
  e.layer_name = "layer";
  e.granularity = fault::FaultGranularity::kProductTerm;
  e.components.push_back(std::move(component));
  return e;
}

// The cross-validation experiment: FLIM product-term faults and device-level
// faults must agree bit-exactly on the same mask (the paper verifies fault
// distribution and mapping against X-Fault).
TEST(DeviceEngine, StuckAtMatchesFlimProductTerm) {
  const FloatTensor a = random_pm1(Shape{4, 12}, 3);
  const FloatTensor w = random_pm1(Shape{3, 12}, 4);
  const BitMatrix pa = BitMatrix::from_float(a);
  const BitMatrix pw = BitMatrix::from_float(w);

  fault::FaultVectorEntry entry = gate_grid_entry("stuckat", 3, 4);  // 12 gates
  entry.components[0].mask.set_sa0(2, true);
  entry.components[0].mask.set_sa1(7, true);
  entry.components[0].mask.set_sa0(11, true);

  bnn::FlimEngine flim;
  flim.set_layer_fault(entry);
  IntTensor flim_out;
  flim.execute("layer", pa, pw, 1, flim_out);

  DeviceEngineConfig cfg = small_config(lim::LogicFamilyKind::kMagic);
  DeviceEngine device(cfg);
  device.set_layer_fault(entry);
  IntTensor device_out;
  device.execute("layer", pa, pw, 1, device_out);

  EXPECT_EQ(device_out, flim_out);
}

TEST(DeviceEngine, BitFlipMatchesFlimProductTerm) {
  const FloatTensor a = random_pm1(Shape{2, 10}, 5);
  const FloatTensor w = random_pm1(Shape{2, 10}, 6);
  const BitMatrix pa = BitMatrix::from_float(a);
  const BitMatrix pw = BitMatrix::from_float(w);

  fault::FaultVectorEntry entry = gate_grid_entry("bitflip", 2, 4);  // 8 gates
  entry.components[0].mask.set_flip(1, true);
  entry.components[0].mask.set_flip(6, true);

  bnn::FlimEngine flim;
  flim.set_layer_fault(entry);
  IntTensor flim_out;
  flim.execute("layer", pa, pw, 1, flim_out);

  DeviceEngine device(small_config(lim::LogicFamilyKind::kImply));
  device.set_layer_fault(entry);
  IntTensor device_out;
  device.execute("layer", pa, pw, 1, device_out);

  EXPECT_EQ(device_out, flim_out);
}

TEST(DeviceEngine, RandomMaskMatchesFlimAcrossSeeds) {
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const FloatTensor a = random_pm1(Shape{3, 8}, 10 + seed);
    const FloatTensor w = random_pm1(Shape{2, 8}, 20 + seed);
    const BitMatrix pa = BitMatrix::from_float(a);
    const BitMatrix pw = BitMatrix::from_float(w);

    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::kStuckAt;
    spec.injection_rate = 0.25;
    fault::RealizeContext ctx;
    ctx.grid = {2, 4};
    core::Rng rng(seed);
    const fault::FaultVectorEntry entry =
        fault::stack_from_spec(spec).realize_entry(
            "layer", fault::FaultGranularity::kProductTerm, ctx, rng);

    bnn::FlimEngine flim;
    flim.set_layer_fault(entry);
    IntTensor flim_out;
    flim.execute("layer", pa, pw, 1, flim_out);

    DeviceEngine device(small_config(lim::LogicFamilyKind::kMagic));
    device.set_layer_fault(entry);
    IntTensor device_out;
    device.execute("layer", pa, pw, 1, device_out);

    EXPECT_EQ(device_out, flim_out) << "seed " << seed;
  }
}

TEST(DeviceEngine, DynamicFaultsFollowSchedule) {
  const FloatTensor a = random_pm1(Shape{1, 6}, 30);
  const FloatTensor w = random_pm1(Shape{1, 6}, 31);
  const BitMatrix pa = BitMatrix::from_float(a);
  const BitMatrix pw = BitMatrix::from_float(w);

  bnn::ReferenceEngine ref;
  IntTensor clean;
  ref.execute("layer", pa, pw, 1, clean);

  fault::FaultVectorEntry entry = gate_grid_entry("dynamic", 1, 6);
  entry.components[0].params = {{"period", 2.0}};
  for (std::int64_t s = 0; s < 6; ++s) {
    entry.components[0].mask.set_flip(s, true);
  }

  DeviceEngine device(small_config(lim::LogicFamilyKind::kMagic));
  device.set_layer_fault(entry);

  IntTensor out;
  device.execute("layer", pa, pw, 1, out);  // execution 0: inactive
  EXPECT_EQ(out, clean);
  device.execute("layer", pa, pw, 1, out);  // execution 1: active
  EXPECT_EQ(out.at2(0, 0), -clean.at2(0, 0));
  device.reset_time();
  device.execute("layer", pa, pw, 1, out);
  EXPECT_EQ(out, clean);
}

TEST(DeviceEngine, StatsTrackDeviceActivity) {
  const FloatTensor a = random_pm1(Shape{2, 4}, 40);
  const FloatTensor w = random_pm1(Shape{1, 4}, 41);
  DeviceEngine device(small_config(lim::LogicFamilyKind::kMagic));
  IntTensor out;
  device.execute("layer", BitMatrix::from_float(a), BitMatrix::from_float(w),
                 1, out);
  const DeviceEngineStats s = device.stats();
  EXPECT_EQ(s.xnor_ops, 8u);
  EXPECT_GT(s.crossbar.gate_steps, 0u);
  EXPECT_GT(s.crossbar.energy_joules, 0.0);
  EXPECT_GT(s.crossbar.sim_time_seconds, 0.0);
}

TEST(DeviceEngine, MultipleLayersKeepIndependentState) {
  const FloatTensor a = random_pm1(Shape{1, 4}, 50);
  const FloatTensor w = random_pm1(Shape{1, 4}, 51);
  const BitMatrix pa = BitMatrix::from_float(a);
  const BitMatrix pw = BitMatrix::from_float(w);

  bnn::ReferenceEngine ref;
  IntTensor clean;
  ref.execute("x", pa, pw, 1, clean);

  fault::FaultVectorEntry entry = gate_grid_entry("bitflip", 1, 4);
  for (std::int64_t s = 0; s < 4; ++s) {
    entry.components[0].mask.set_flip(s, true);
  }
  entry.layer_name = "faulty";

  DeviceEngine device(small_config(lim::LogicFamilyKind::kMagic));
  device.set_layer_fault(entry);
  IntTensor out_clean, out_faulty;
  device.execute("clean", pa, pw, 1, out_clean);
  device.execute("faulty", pa, pw, 1, out_faulty);
  EXPECT_EQ(out_clean, clean);
  EXPECT_EQ(out_faulty.at2(0, 0), -clean.at2(0, 0));
}

// The extended device-fault taxonomy reaches end-to-end inference through
// inject_device_fault: mask entries only express flip/stuck-at planes, but
// transition and sense-path faults act inside the gate execution.

TEST(DeviceEngine, InjectedIncorrectReadCorruptsExactlyItsGate) {
  const FloatTensor a = random_pm1(Shape{1, 4}, 60);
  const FloatTensor w = random_pm1(Shape{1, 4}, 61);
  const BitMatrix pa = BitMatrix::from_float(a);
  const BitMatrix pw = BitMatrix::from_float(w);

  bnn::ReferenceEngine ref;
  IntTensor clean;
  ref.execute("layer", pa, pw, 1, clean);

  DeviceEngineConfig cfg = small_config(lim::LogicFamilyKind::kMagic);
  cfg.crossbar.rows = 1;
  cfg.crossbar.cols = 4 * lim::kCellsPerGate;  // gates = K: term t -> gate t
  DeviceEngine device(cfg);
  // Inverted sense amp on gate 1's result cell: product term 1 reads
  // inverted for the single output element, shifting the accumulator by 2.
  const auto result_cell =
      static_cast<int>(lim::make_magic_family()->result_cell());
  device.inject_device_fault("layer", 0, 1 * lim::kCellsPerGate + result_cell,
                             lim::DeviceFaultKind::kIncorrectRead);
  IntTensor out;
  device.execute("layer", pa, pw, 1, out);
  EXPECT_EQ(std::abs(out.at2(0, 0) - clean.at2(0, 0)), 2);
}

TEST(DeviceEngine, InjectedSlowSetPinsGateResultLow) {
  // A complete 0->1 transition fault on a result cell: that gate can never
  // report "match", so its product term always contributes -1.
  const FloatTensor a = random_pm1(Shape{1, 4}, 62);
  const BitMatrix pa = BitMatrix::from_float(a);
  const BitMatrix pw = pa;  // weights equal activations: all terms match

  DeviceEngineConfig cfg = small_config(lim::LogicFamilyKind::kMagic);
  cfg.crossbar.rows = 1;
  cfg.crossbar.cols = 4 * lim::kCellsPerGate;
  DeviceEngine device(cfg);
  IntTensor out;
  device.execute("layer", pa, pw, 1, out);
  EXPECT_EQ(out.at2(0, 0), 4);  // perfect match without faults

  const auto result_cell =
      static_cast<int>(lim::make_magic_family()->result_cell());
  device.inject_device_fault("layer", 0, 2 * lim::kCellsPerGate + result_cell,
                             lim::DeviceFaultKind::kSlowSet, 1.0);
  device.execute("layer", pa, pw, 1, out);
  EXPECT_EQ(out.at2(0, 0), 2);  // one term flips +1 -> -1
}

TEST(DeviceEngine, DriftIsHarmlessWhileGatePulsesRetainMargin) {
  // Parametric drift leaves results correct while the (weaker) gate-step
  // overdrive still completes the switching event; past that margin the
  // computation corrupts -- at severities the March write pulses still
  // tolerate (March escape tested in reliability_test), i.e. compute fails
  // before offline test can see it.
  const FloatTensor a = random_pm1(Shape{2, 6}, 63);
  const FloatTensor w = random_pm1(Shape{2, 6}, 64);
  const BitMatrix pa = BitMatrix::from_float(a);
  const BitMatrix pw = BitMatrix::from_float(w);

  bnn::ReferenceEngine ref;
  IntTensor clean;
  ref.execute("layer", pa, pw, 1, clean);

  const auto result_cell =
      static_cast<int>(lim::make_magic_family()->result_cell());
  const auto run_with_drift = [&](double severity) {
    DeviceEngine device(small_config(lim::LogicFamilyKind::kMagic));
    for (std::int64_t g = 0; g < 16; ++g) {
      device.inject_device_fault(
          "layer", g / 4, (g % 4) * lim::kCellsPerGate + result_cell,
          lim::DeviceFaultKind::kDrift, severity);
    }
    IntTensor out;
    device.execute("layer", pa, pw, 1, out);
    return out;
  };

  EXPECT_EQ(run_with_drift(0.3), clean);   // within the gate-pulse margin
  EXPECT_NE(run_with_drift(0.5), clean);   // margin exceeded
}

}  // namespace
}  // namespace flim::xfault
