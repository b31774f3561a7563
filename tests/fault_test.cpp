// Unit tests for the fault subsystem: specs, masks, realization, vector
// files, the model registry + expression language, and the injector.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "core/sysinfo.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_mask.hpp"
#include "fault/fault_model.hpp"
#include "fault/fault_registry.hpp"
#include "fault/fault_spec.hpp"
#include "fault/fault_vector_file.hpp"

namespace flim::fault {
namespace {

/// Error message produced by validating `spec` (empty when it passes).
std::string validation_error(const FaultSpec& spec) {
  try {
    validate(spec);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

/// Realizes `spec` on `grid` the way campaigns do: lowered to its one-model
/// stack, with the placement settings in the realization context.
FaultMask realize_spec(const FaultSpec& spec, lim::CrossbarGeometry grid,
                       core::Rng& rng) {
  RealizeContext ctx;
  ctx.grid = grid;
  ctx.distribution = spec.distribution;
  ctx.cluster_count = spec.cluster_count;
  ctx.cluster_radius = spec.cluster_radius;
  return stack_from_spec(spec).realize(ctx, rng).front().mask;
}

TEST(FaultSpec, ValidationRejectsNonsense) {
  FaultSpec bad;
  bad.injection_rate = 1.5;
  EXPECT_THROW(validate(bad), std::invalid_argument);
  bad = FaultSpec{};
  bad.faulty_rows = -1;
  EXPECT_THROW(validate(bad), std::invalid_argument);
  bad = FaultSpec{};
  bad.stuck_at_one_fraction = 2.0;
  EXPECT_THROW(validate(bad), std::invalid_argument);
  validate(FaultSpec{});  // defaults are fine
}

TEST(FaultSpec, ValidationRejectsNonsenseClusterParameters) {
  // Each rejection carries an actionable message naming the bad value.
  FaultSpec bad;
  bad.cluster_count = -3;
  EXPECT_NE(validation_error(bad).find("cluster count"), std::string::npos);
  EXPECT_NE(validation_error(bad).find("-3"), std::string::npos);

  bad = FaultSpec{};
  bad.cluster_radius = 0.0;
  EXPECT_NE(validation_error(bad).find("cluster radius"), std::string::npos);
  bad.cluster_radius = -1.5;
  EXPECT_NE(validation_error(bad).find("cluster radius"), std::string::npos);

  bad = FaultSpec{};
  bad.distribution = FaultDistribution::kClustered;
  bad.injection_rate = 0.0;
  const std::string error = validation_error(bad);
  EXPECT_NE(error.find("zero injection rate"), std::string::npos);
  EXPECT_NE(error.find("uniform"), std::string::npos);  // suggests the fix
  bad.injection_rate = 0.05;
  validate(bad);  // a positive rate makes clustered mode meaningful
}

TEST(FaultSpec, Names) {
  EXPECT_EQ(to_string(FaultKind::kBitFlip), "bit-flip");
  EXPECT_EQ(to_string(FaultKind::kStuckAt), "stuck-at");
  EXPECT_EQ(to_string(FaultKind::kDynamic), "dynamic");
  EXPECT_EQ(to_string(FaultGranularity::kOutputElement), "output-element");
  EXPECT_EQ(to_string(FaultGranularity::kProductTerm), "product-term");
}

TEST(FaultMask, PlanesStartClear) {
  FaultMask m(5, 7);
  EXPECT_EQ(m.num_slots(), 35);
  EXPECT_FALSE(m.any());
  EXPECT_EQ(m.count_flip(), 0);
}

TEST(FaultMask, RowColumnMarking) {
  FaultMask m(4, 6);
  m.mark_row_flip(2);
  EXPECT_EQ(m.count_flip(), 6);
  m.mark_col_flip(0);
  EXPECT_EQ(m.count_flip(), 6 + 4 - 1);  // intersection counted once
  EXPECT_TRUE(m.flip_at(2, 3));
  EXPECT_TRUE(m.flip_at(0, 0));
  EXPECT_FALSE(m.flip_at(0, 1));
}

// The paper's Fault Generator stage: a FaultSpec realized into masks through
// its one-model stack (realize_spec).

TEST(FaultGenerator, ExactInjectionCount) {
  core::Rng rng(1);
  FaultSpec spec;
  spec.kind = FaultKind::kBitFlip;
  spec.injection_rate = 0.1;
  const FaultMask m = realize_spec(spec, {20, 20}, rng);
  EXPECT_EQ(m.count_flip(), 40);  // exactly 10% of 400
  EXPECT_EQ(m.count_sa0() + m.count_sa1(), 0);
}

TEST(FaultGenerator, StuckAtSplitsByFraction) {
  core::Rng rng(2);
  FaultSpec spec;
  spec.kind = FaultKind::kStuckAt;
  spec.injection_rate = 0.2;  // 500 cells
  spec.stuck_at_one_fraction = 0.5;
  const FaultMask m = realize_spec(spec, {50, 50}, rng);
  EXPECT_EQ(m.count_sa0() + m.count_sa1(), 500);
  EXPECT_EQ(m.count_flip(), 0);
  EXPECT_NEAR(static_cast<double>(m.count_sa1()), 250.0, 60.0);
}

TEST(FaultGenerator, StuckAtFractionExtremes) {
  core::Rng rng(3);
  FaultSpec spec;
  spec.kind = FaultKind::kStuckAt;
  spec.injection_rate = 0.5;
  spec.stuck_at_one_fraction = 1.0;
  FaultMask m = realize_spec(spec, {10, 10}, rng);
  EXPECT_EQ(m.count_sa1(), 50);
  EXPECT_EQ(m.count_sa0(), 0);
  spec.stuck_at_one_fraction = 0.0;
  m = realize_spec(spec, {10, 10}, rng);
  EXPECT_EQ(m.count_sa0(), 50);
  EXPECT_EQ(m.count_sa1(), 0);
}

TEST(FaultGenerator, RowsAndColumnsMarked) {
  core::Rng rng(4);
  FaultSpec spec;
  spec.kind = FaultKind::kBitFlip;
  spec.faulty_cols = 2;
  FaultMask m = realize_spec(spec, {40, 10}, rng);
  EXPECT_EQ(m.count_flip(), 2 * 40);
  spec = FaultSpec{};
  spec.faulty_rows = 3;
  m = realize_spec(spec, {40, 10}, rng);
  EXPECT_EQ(m.count_flip(), 3 * 10);
}

TEST(FaultGenerator, DeterministicPerSeed) {
  FaultSpec spec;
  spec.injection_rate = 0.05;
  core::Rng r1(42), r2(42), r3(43);
  const FaultMask a = realize_spec(spec, {30, 30}, r1);
  const FaultMask b = realize_spec(spec, {30, 30}, r2);
  const FaultMask c = realize_spec(spec, {30, 30}, r3);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

TEST(FaultGenerator, RejectsTooManyRows) {
  core::Rng rng(5);
  FaultSpec spec;
  spec.faulty_rows = 5;
  EXPECT_THROW(realize_spec(spec, {4, 4}, rng), std::invalid_argument);
}

namespace {

/// Mean pairwise Manhattan distance between marked flip slots.
double mean_pairwise_distance(const FaultMask& mask) {
  std::vector<std::pair<std::int64_t, std::int64_t>> sites;
  for (std::int64_t s = 0; s < mask.num_slots(); ++s) {
    if (mask.flip(s)) sites.emplace_back(s / mask.cols(), s % mask.cols());
  }
  double total = 0.0;
  std::int64_t pairs = 0;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    for (std::size_t j = i + 1; j < sites.size(); ++j) {
      total += std::abs(static_cast<double>(sites[i].first - sites[j].first)) +
               std::abs(static_cast<double>(sites[i].second - sites[j].second));
      ++pairs;
    }
  }
  return pairs > 0 ? total / static_cast<double>(pairs) : 0.0;
}

}  // namespace

TEST(FaultGenerator, ClusteredKeepsExactCount) {
  core::Rng rng(6);
  FaultSpec spec;
  spec.kind = FaultKind::kBitFlip;
  spec.injection_rate = 0.05;
  spec.distribution = FaultDistribution::kClustered;
  spec.cluster_count = 2;
  const FaultMask m = realize_spec(spec, {32, 32}, rng);
  EXPECT_EQ(m.count_flip(), 51);  // round(0.05 * 1024)
}

TEST(FaultGenerator, ClusteredSitesAreSpatiallyTighter) {
  FaultSpec uniform;
  uniform.kind = FaultKind::kBitFlip;
  uniform.injection_rate = 0.02;
  FaultSpec clustered = uniform;
  clustered.distribution = FaultDistribution::kClustered;
  clustered.cluster_count = 1;  // single cluster: all pairs are intra-cluster
  clustered.cluster_radius = 1.5;

  // Averaged over seeds, cluster scatter is far tighter than uniform, while
  // the realized mask popcount is identical in both modes (the distribution
  // ablation varies only spatial correlation, never the fault budget).
  double uniform_dist = 0.0;
  double clustered_dist = 0.0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    core::Rng r1(seed), r2(seed);
    const FaultMask uniform_mask = realize_spec(uniform, {48, 48}, r1);
    const FaultMask clustered_mask = realize_spec(clustered, {48, 48}, r2);
    EXPECT_EQ(uniform_mask.count_flip(), clustered_mask.count_flip());
    uniform_dist += mean_pairwise_distance(uniform_mask);
    clustered_dist += mean_pairwise_distance(clustered_mask);
  }
  EXPECT_LT(clustered_dist, 0.25 * uniform_dist);
  EXPECT_LT(clustered_dist, uniform_dist);  // below the uniform baseline
}

TEST(FaultGenerator, ClusteredIsDeterministicPerSeed) {
  FaultSpec spec;
  spec.injection_rate = 0.1;
  spec.distribution = FaultDistribution::kClustered;
  core::Rng r1(9), r2(9);
  EXPECT_EQ(realize_spec(spec, {24, 24}, r1),
            realize_spec(spec, {24, 24}, r2));
}

TEST(FaultGenerator, ClusteredSaturationFallsBackToExactCount) {
  // Radius so small that one cluster cannot hold all faults: the uniform
  // fallback must still deliver the exact requested count.
  core::Rng rng(10);
  FaultSpec spec;
  spec.kind = FaultKind::kStuckAt;
  spec.injection_rate = 0.5;
  spec.distribution = FaultDistribution::kClustered;
  spec.cluster_count = 1;
  spec.cluster_radius = 0.5;
  const FaultMask m = realize_spec(spec, {16, 16}, rng);
  EXPECT_EQ(m.count_sa0() + m.count_sa1(), 128);
}

TEST(FaultGenerator, ClusterSpecValidation) {
  core::Rng rng(11);
  FaultSpec spec;
  spec.distribution = FaultDistribution::kClustered;
  spec.cluster_radius = 0.0;
  EXPECT_THROW(realize_spec(spec, {8, 8}, rng), std::invalid_argument);
  spec.cluster_radius = 1.0;
  spec.cluster_count = -1;
  EXPECT_THROW(realize_spec(spec, {8, 8}, rng), std::invalid_argument);
}

TEST(FaultSpec, DistributionNames) {
  EXPECT_EQ(to_string(FaultDistribution::kUniform), "uniform");
  EXPECT_EQ(to_string(FaultDistribution::kClustered), "clustered");
}

TEST(FaultGenerator, ClusteredPopcountMatchesUniformForStuckAt) {
  FaultSpec uniform;
  uniform.kind = FaultKind::kStuckAt;
  uniform.injection_rate = 0.08;
  FaultSpec clustered = uniform;
  clustered.distribution = FaultDistribution::kClustered;
  clustered.cluster_count = 3;
  for (std::uint64_t seed = 20; seed < 24; ++seed) {
    core::Rng r1(seed), r2(seed);
    const FaultMask u = realize_spec(uniform, {32, 32}, r1);
    const FaultMask c = realize_spec(clustered, {32, 32}, r2);
    EXPECT_EQ(u.count_sa0() + u.count_sa1(), c.count_sa0() + c.count_sa1());
  }
}

TEST(FaultVectorFile, SerializationRoundTrip) {
  RealizeContext ctx;
  ctx.grid = {13, 17};
  core::Rng rng(6);
  FaultVectorFile file;
  file.add(parse_fault_expr("bitflip(rate=0.15)")
               .realize_entry("conv1", FaultGranularity::kOutputElement, ctx,
                              rng));
  file.add(parse_fault_expr("stuckat(rate=0.1)")
               .realize_entry("dense0", FaultGranularity::kProductTerm, ctx,
                              rng));
  file.add(parse_fault_expr("dynamic(rate=0.15,period=3)")
               .realize_entry("conv2", FaultGranularity::kOutputElement, ctx,
                              rng));

  const auto bytes = file.serialize();
  EXPECT_EQ(bytes[8], 2u);  // only version 2 is written
  const FaultVectorFile loaded = FaultVectorFile::deserialize(bytes);
  EXPECT_EQ(loaded, file);
  ASSERT_NE(loaded.find("conv2"), nullptr);
  EXPECT_EQ(loaded.find("conv2")->describe(), "dynamic(period=3,rate=0.15)");
  EXPECT_EQ(loaded.find("nonexistent"), nullptr);
}

// A version-1 file (the former single-kind layout) written by the former
// writer: a bitflip entry at output granularity, a stuckat entry at
// product-term granularity and a dynamic entry with period 3, each on a 4x4
// grid with hand-placed bits.
constexpr std::uint8_t kVersion1File[] = {
    // magic "FLIMFVC1", version 1, 3 entries
    0x46, 0x4c, 0x49, 0x4d, 0x46, 0x56, 0x43, 0x31, 0x01, 0x00,
    0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
    // conv1: bitflip, output-element, period 0
    0x05, 0x00, 0x00, 0x00, 0x63, 0x6f, 0x6e, 0x76, 0x31, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00,
    // 4x4 grid; flip, sa0, sa1 planes
    0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x42, 0x80, 0x00, 0x00,
    0x00, 0x00,
    // conv2: stuckat, product-term, period 0
    0x05, 0x00, 0x00, 0x00, 0x63, 0x6f, 0x6e, 0x76, 0x32, 0x01,
    0x01, 0x00, 0x00, 0x00, 0x00,
    // 4x4 grid; flip, sa0, sa1 planes
    0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x02,
    0x20, 0x40,
    // dense0: dynamic, output-element, period 3
    0x06, 0x00, 0x00, 0x00, 0x64, 0x65, 0x6e, 0x73, 0x65, 0x30,
    0x02, 0x00, 0x03, 0x00, 0x00, 0x00,
    // 4x4 grid; flip, sa0, sa1 planes
    0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0c, 0x10, 0x00, 0x00,
    0x00, 0x00,
};

/// The 4x4 masks of kVersion1File, in entry order.
std::vector<FaultMask> version1_masks() {
  FaultMask flips(4, 4);
  for (const std::int64_t slot : {1, 6, 15}) flips.set_flip(slot, true);
  FaultMask stuck(4, 4);
  for (const std::int64_t slot : {0, 9}) stuck.set_sa0(slot, true);
  for (const std::int64_t slot : {5, 14}) stuck.set_sa1(slot, true);
  FaultMask dynamic(4, 4);
  for (const std::int64_t slot : {2, 3, 12}) dynamic.set_flip(slot, true);
  return {flips, stuck, dynamic};
}

TEST(FaultVectorFile, LoadsVersion1File) {
  // Each single-kind entry loads as one component of the matching model;
  // only dynamic carries a parameter, its period.
  const std::vector<FaultMask> masks = version1_masks();
  const auto component = [](const char* model, const FaultMask& mask) {
    RealizedFault c;
    c.model = model;
    c.mask = mask;
    return c;
  };
  RealizedFault dynamic = component("dynamic", masks[2]);
  dynamic.params = {{"period", 3.0}};
  FaultVectorFile expected;
  expected.add({"conv1", FaultGranularity::kOutputElement,
                {component("bitflip", masks[0])}});
  expected.add({"conv2", FaultGranularity::kProductTerm,
                {component("stuckat", masks[1])}});
  expected.add({"dense0", FaultGranularity::kOutputElement, {dynamic}});

  const FaultVectorFile loaded = FaultVectorFile::deserialize(
      std::vector<std::uint8_t>(std::begin(kVersion1File),
                                std::end(kVersion1File)));
  EXPECT_EQ(loaded, expected);
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded.entries()[0].describe(), "bitflip");
  EXPECT_EQ(loaded.entries()[1].describe(), "stuckat");
  EXPECT_EQ(loaded.entries()[2].describe(), "dynamic(period=3)");
  // Written back, it is a version-2 file with the same entries.
  const auto rewritten = loaded.serialize();
  EXPECT_EQ(rewritten[8], 2u);
  EXPECT_EQ(FaultVectorFile::deserialize(rewritten), loaded);
}

TEST(FaultVectorFile, FileRoundTrip) {
  RealizeContext ctx;
  ctx.grid = {8, 8};
  core::Rng rng(7);
  FaultVectorFile file;
  file.add(parse_fault_expr("bitflip(rate=0.25)")
               .realize_entry("layer", FaultGranularity::kOutputElement, ctx,
                              rng));
  const std::string path = ::testing::TempDir() + "/flim_vectors_test.bin";
  file.save(path);
  const FaultVectorFile loaded = FaultVectorFile::load(path);
  EXPECT_EQ(loaded, file);
  std::filesystem::remove(path);
}

TEST(FaultVectorFile, RejectsCorruptData) {
  EXPECT_THROW(FaultVectorFile::deserialize({1, 2, 3}), std::invalid_argument);
  std::vector<std::uint8_t> bytes{'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X',
                                  1,   0,   0,   0,   0,   0,   0,   0};
  EXPECT_THROW(FaultVectorFile::deserialize(bytes), std::invalid_argument);
}

/// Little-endian writer for hand-made fault vector files.
struct FileBytes {
  std::vector<std::uint8_t> bytes;

  FileBytes& u8(std::uint8_t v) {
    bytes.push_back(v);
    return *this;
  }
  FileBytes& u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes.push_back((v >> (8 * i)) & 0xff);
    return *this;
  }
  FileBytes& u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes.push_back((v >> (8 * i)) & 0xff);
    return *this;
  }
  FileBytes& str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes.insert(bytes.end(), s.begin(), s.end());
    return *this;
  }
  /// A clear 1x1 mask: dimensions plus three one-byte planes.
  FileBytes& clear_mask() { return u64(1).u64(1).u8(0).u8(0).u8(0); }
};

/// A file of `version` holding one entry "x" up to (not including) its
/// header mask.
FileBytes one_entry_file(std::uint32_t version, std::uint8_t kind,
                         std::uint8_t granularity) {
  FileBytes f;
  f.u64(0x314356464d494c46ull).u32(version).u32(1);
  f.str("x").u8(kind).u8(granularity).u32(0);
  return f;
}

TEST(FaultVectorFile, HostileCountsFailBeforeAllocating) {
  // Counts of 2^32-1 components or params must fail on the missing bytes,
  // not reserve memory for them first.
  FileBytes components = one_entry_file(2, 0, 0);
  components.clear_mask().u32(0xffffffffu);
  EXPECT_THROW(FaultVectorFile::deserialize(components.bytes),
               std::invalid_argument);
  FileBytes params = one_entry_file(2, 0, 0);
  params.clear_mask().u32(1).str("bitflip").u32(0xffffffffu);
  EXPECT_THROW(FaultVectorFile::deserialize(params.bytes),
               std::invalid_argument);
  // A plausible but huge mask whose planes are missing.
  FileBytes mask = one_entry_file(1, 0, 0);
  mask.u64(65536).u64(65535);
  EXPECT_THROW(FaultVectorFile::deserialize(mask.bytes),
               std::invalid_argument);
}

TEST(FaultVectorFile, HostileDimensionsDoNotOverflow) {
  // rows * cols = 2^80 must not wrap a signed 64-bit product into a mask
  // with zero slots (which the injector would later divide by).
  FileBytes f = one_entry_file(1, 0, 0);
  f.u64(std::uint64_t{1} << 40).u64(std::uint64_t{1} << 40).u8(0);
  EXPECT_THROW(FaultVectorFile::deserialize(f.bytes), std::invalid_argument);
  FileBytes negative = one_entry_file(1, 0, 0);
  negative.u64(~std::uint64_t{0}).u64(1).u8(0);
  EXPECT_THROW(FaultVectorFile::deserialize(negative.bytes),
               std::invalid_argument);
}

TEST(FaultVectorFile, RejectsUnknownKindAndGranularityBytes) {
  for (const std::uint32_t version : {1u, 2u}) {
    FileBytes granularity = one_entry_file(version, 0, 7);
    granularity.clear_mask().u32(0);
    EXPECT_THROW(FaultVectorFile::deserialize(granularity.bytes),
                 std::invalid_argument);
    FileBytes kind = one_entry_file(version, 9, 0);
    kind.clear_mask().u32(0);
    EXPECT_THROW(FaultVectorFile::deserialize(kind.bytes),
                 std::invalid_argument);
  }
  // The same bytes with in-range values load.
  FileBytes ok = one_entry_file(1, 2, 1);
  ok.clear_mask();
  const FaultVectorFile loaded = FaultVectorFile::deserialize(ok.bytes);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded.entries()[0].describe(), "dynamic(period=0)");
  EXPECT_EQ(loaded.entries()[0].granularity, FaultGranularity::kProductTerm);
}

/// A one-component entry of `model` on a clear rows x cols grid.
FaultVectorEntry make_entry(const std::string& model, std::int64_t rows,
                            std::int64_t cols,
                            std::vector<std::pair<std::string, double>> params =
                                {}) {
  RealizedFault component;
  component.model = model;
  component.params = std::move(params);
  component.mask = FaultMask(rows, cols);
  FaultVectorEntry e;
  e.layer_name = "test";
  e.components.push_back(std::move(component));
  return e;
}

TEST(FaultInjector, FlipNegatesMappedOps) {
  // Mask with slot 1 flipped on a 1x4 grid; feature map of one image with
  // 2 positions x 4 channels => ops 1 and 5 map to slot 1.
  FaultVectorEntry e = make_entry("bitflip", 1, 4);
  e.components[0].mask.set_flip(1, true);
  FaultInjector inj(e);

  tensor::IntTensor feature(tensor::Shape{2, 4});
  for (std::int64_t i = 0; i < 8; ++i) feature[i] = static_cast<int>(i + 1);
  const std::int64_t exec = inj.advance_execution();
  EXPECT_TRUE(inj.any_active(exec));
  inj.apply_output_element(feature, 0, 2, exec, /*full_scale=*/1);
  EXPECT_EQ(feature[0], 1);
  EXPECT_EQ(feature[1], -2);  // op 1 -> slot 1 flipped
  EXPECT_EQ(feature[5], -6);  // op 5 -> slot 1 flipped
  EXPECT_EQ(feature[7], 8);
}

TEST(FaultInjector, StuckAtPinsValues) {
  FaultVectorEntry e = make_entry("stuckat", 1, 3);
  e.components[0].mask.set_sa0(0, true);
  e.components[0].mask.set_sa1(2, true);
  FaultInjector inj(e);
  tensor::IntTensor feature(tensor::Shape{1, 3});
  feature[0] = 10;
  feature[1] = 20;
  feature[2] = 30;
  inj.apply_output_element(feature, 0, 1, /*execution=*/0, /*full_scale=*/1);
  EXPECT_EQ(feature[0], -1);  // stuck-at-0 pins to -1 in the ±1 encoding
  EXPECT_EQ(feature[1], 20);
  EXPECT_EQ(feature[2], 1);  // stuck-at-1 pins to +1
}

TEST(FaultInjector, StuckAtPinsToFullScale) {
  // A stuck XNOR column reports all-match (+K) or all-mismatch (-K).
  FaultVectorEntry e = make_entry("stuckat", 1, 2);
  e.components[0].mask.set_sa0(0, true);
  e.components[0].mask.set_sa1(1, true);
  FaultInjector inj(e);
  tensor::IntTensor feature(tensor::Shape{1, 2});
  feature[0] = 3;
  feature[1] = -3;
  inj.apply_output_element(feature, 0, 1, /*execution=*/0, /*full_scale=*/7);
  EXPECT_EQ(feature[0], -7);
  EXPECT_EQ(feature[1], 7);
}

TEST(FaultInjector, StuckAtDominatesFlipOnSameSlot) {
  FaultVectorEntry e = make_entry("stuckat", 1, 1);
  e.components[0].mask.set_flip(0, true);
  e.components[0].mask.set_sa1(0, true);
  FaultInjector inj(e);
  tensor::IntTensor feature(tensor::Shape{1, 1});
  feature[0] = -5;
  inj.apply_output_element(feature, 0, 1, /*execution=*/0, /*full_scale=*/1);
  EXPECT_EQ(feature[0], 1);
}

TEST(FaultInjector, InactiveApplicationIsNoop) {
  // A dynamic entry with period 2 is dormant on execution 0.
  FaultVectorEntry e = make_entry("dynamic", 1, 2, {{"period", 2.0}});
  e.components[0].mask.set_flip(0, true);
  FaultInjector inj(e);
  tensor::IntTensor feature(tensor::Shape{1, 2});
  feature[0] = 3;
  EXPECT_FALSE(inj.any_active(0));
  inj.apply_output_element(feature, 0, 1, /*execution=*/0, /*full_scale=*/1);
  EXPECT_EQ(feature[0], 3);
}

// Dynamic faults fire on executions period-1, 2*period-1, ...
class DynamicSchedule : public ::testing::TestWithParam<int> {};

TEST_P(DynamicSchedule, FiresEveryNthExecution) {
  const int period = GetParam();
  FaultVectorEntry e = make_entry("dynamic", 2, 2,
                                  {{"period", static_cast<double>(period)}});
  FaultInjector inj(e);
  const int effective = std::max(1, period);
  for (int exec = 0; exec < 3 * effective; ++exec) {
    const bool fired = inj.any_active(inj.advance_execution());
    EXPECT_EQ(fired, (exec % effective) == effective - 1)
        << "period=" << period << " exec=" << exec;
  }
}

INSTANTIATE_TEST_SUITE_P(Periods, DynamicSchedule,
                         ::testing::Values(0, 1, 2, 3, 4, 5));

TEST(FaultInjector, ResetTimeRestartsDynamicSchedule) {
  FaultVectorEntry e = make_entry("dynamic", 1, 1, {{"period", 2.0}});
  FaultInjector inj(e);
  EXPECT_FALSE(inj.any_active(inj.advance_execution()));
  EXPECT_TRUE(inj.any_active(inj.advance_execution()));
  inj.reset_time();
  EXPECT_FALSE(inj.any_active(inj.advance_execution()));
}

TEST(FaultInjector, StaticKindsAlwaysActive) {
  FaultVectorEntry e = make_entry("bitflip", 1, 1);
  FaultInjector inj(e);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(inj.any_active(inj.advance_execution()));
  }
}

TEST(FaultInjector, TermMasksFollowSlotMapping) {
  // Grid 1x4 with slot 2 flipped; term (ch=0, k=2) and (ch=1, k=1) with K=5:
  // indices 2 and 6 -> slots 2 and 2 (6 mod 4 = 2).
  FaultVectorEntry e = make_entry("bitflip", 1, 4);
  e.granularity = FaultGranularity::kProductTerm;
  e.components[0].mask.set_flip(2, true);
  FaultInjector inj(e);
  const TermMasks* masks = inj.term_masks(2, 5, /*execution=*/0);
  ASSERT_NE(masks, nullptr);
  EXPECT_EQ(masks->flip.rows(), 2);
  EXPECT_EQ(masks->flip.cols(), 5);
  // ch0: term indices 0..4 -> slots 0,1,2,3,0 => k=2 flipped.
  EXPECT_EQ(masks->flip.get(0, 2), 1);
  EXPECT_EQ(masks->flip.get(0, 0), -1);
  // ch1: term indices 5..9 -> slots 1,2,3,0,1 => k=1 flipped.
  EXPECT_EQ(masks->flip.get(1, 1), 1);
  EXPECT_EQ(masks->flip.get(1, 2), -1);
}

TEST(FaultInjector, TermMasksAreCachedAndShapeChecked) {
  FaultVectorEntry e = make_entry("bitflip", 2, 2);
  e.components[0].mask.set_flip(0, true);
  e.granularity = FaultGranularity::kProductTerm;
  FaultInjector inj(e);
  const TermMasks* a = inj.term_masks(3, 4, 0);
  const TermMasks* b = inj.term_masks(3, 4, 1);
  EXPECT_NE(a, nullptr);
  EXPECT_EQ(a, b);  // same active signature -> same cached planes
  EXPECT_THROW(inj.term_masks(4, 4, 0), std::invalid_argument);
}

TEST(FaultInjector, TermMasksNullWhenDormant) {
  // A period-3 dynamic entry folds planes only on the firing execution.
  FaultVectorEntry e = make_entry("dynamic", 1, 4, {{"period", 3.0}});
  e.granularity = FaultGranularity::kProductTerm;
  e.components[0].mask.set_flip(1, true);
  FaultInjector inj(e);
  EXPECT_EQ(inj.term_masks(2, 4, 0), nullptr);
  EXPECT_EQ(inj.term_masks(2, 4, 1), nullptr);
  const TermMasks* firing = inj.term_masks(2, 4, 2);
  ASSERT_NE(firing, nullptr);
  EXPECT_EQ(firing->flip.get(0, 1), 1);
}

TEST(FaultInjector, RejectsEmptyMask) {
  FaultVectorEntry e;
  e.layer_name = "x";
  EXPECT_THROW(FaultInjector{e}, std::invalid_argument);  // no components
  EXPECT_THROW(FaultInjector{make_entry("bitflip", 0, 0)},
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Model registry and the expression language.

TEST(FaultRegistry, ListsBuiltinModelsSorted) {
  const auto models = FaultRegistry::instance().models();
  std::vector<std::string> names;
  for (const FaultModel* m : models) names.push_back(m->info().name);
  const std::vector<std::string> expected{"bitflip",     "coupling",
                                          "drift",       "dynamic",
                                          "readdisturb", "stuckat"};
  EXPECT_EQ(names, expected);
}

TEST(FaultRegistry, UnknownModelNamesTheRegisteredOnes) {
  try {
    FaultRegistry::instance().get("gamma-ray");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("gamma-ray"), std::string::npos);
    EXPECT_NE(what.find("bitflip"), std::string::npos);
    EXPECT_NE(what.find("drift"), std::string::npos);
  }
}

TEST(FaultExpr, ParsesSingleModel) {
  const FaultStack stack = parse_fault_expr("bitflip(rate=0.1)");
  ASSERT_EQ(stack.items().size(), 1u);
  EXPECT_EQ(stack.items()[0].model->info().name, "bitflip");
  EXPECT_EQ(stack.items()[0].params.get("rate", 0.0), 0.1);
  EXPECT_EQ(stack.canonical(), "bitflip(rate=0.1)");
}

TEST(FaultExpr, CanonicalSortsParamsAndSurvivesRoundTrip) {
  const std::string canonical =
      canonical_fault_expr(" stuckat( sa1 = 0.7 , rate = 5e-4 ) ");
  EXPECT_EQ(canonical, "stuckat(rate=5e-04,sa1=0.7)");
  // Canonicalization is idempotent and spelling-independent.
  EXPECT_EQ(canonical_fault_expr(canonical), canonical);
  EXPECT_EQ(canonical_fault_expr("stuckat(rate=5e-04,sa1=0.7)"),
            canonical_fault_expr("stuckat(sa1=0.70,rate=5.0e-4)"));
}

TEST(FaultExpr, ParsesComposedStacksInOrder) {
  const FaultStack stack =
      parse_fault_expr("stuckat(rate=5e-4,sa1=0.7)+drift(tau=2000)+coupling");
  ASSERT_EQ(stack.items().size(), 3u);
  EXPECT_EQ(stack.items()[0].model->info().name, "stuckat");
  EXPECT_EQ(stack.items()[1].model->info().name, "drift");
  EXPECT_EQ(stack.items()[2].model->info().name, "coupling");
  EXPECT_EQ(stack.canonical(),
            "stuckat(rate=5e-04,sa1=0.7)+drift(tau=2000)+coupling");
}

TEST(FaultExpr, RejectsMalformedExpressions) {
  EXPECT_THROW(parse_fault_expr(""), std::invalid_argument);
  EXPECT_THROW(parse_fault_expr("   "), std::invalid_argument);
  EXPECT_THROW(parse_fault_expr("unknownmodel(rate=0.1)"),
               std::invalid_argument);
  EXPECT_THROW(parse_fault_expr("bitflip(rate)"), std::invalid_argument);
  EXPECT_THROW(parse_fault_expr("bitflip(rate=)"), std::invalid_argument);
  EXPECT_THROW(parse_fault_expr("bitflip(rate=0.1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_expr("bitflip(rate=0.1)x"), std::invalid_argument);
  EXPECT_THROW(parse_fault_expr("bitflip+"), std::invalid_argument);
  EXPECT_THROW(parse_fault_expr("bitflip(bogus=1)"), std::invalid_argument);
  EXPECT_THROW(parse_fault_expr("bitflip(rate=1.5)"), std::invalid_argument);
  EXPECT_THROW(parse_fault_expr("bitflip(rate=0.1,rate=0.2)"),
               std::invalid_argument);
  EXPECT_THROW(parse_fault_expr("dynamic(period=1.5)"),  // integer param
               std::invalid_argument);
}

TEST(FaultExpr, LegacySpecConvertsToOneModelStack) {
  FaultSpec spec;
  spec.kind = FaultKind::kStuckAt;
  spec.injection_rate = 0.05;
  spec.stuck_at_one_fraction = 0.7;
  const FaultStack stack = stack_from_spec(spec);
  ASSERT_EQ(stack.items().size(), 1u);
  EXPECT_EQ(stack.items()[0].model->info().name, "stuckat");
  EXPECT_EQ(stack.canonical(),
            "stuckat(cols=0,rate=0.05,rows=0,sa1=0.7)");
}

/// FNV-1a over a mask's three planes (flip, then sa0, then sa1).
std::uint64_t planes_checksum(const FaultMask& mask) {
  std::string bytes;
  for (const auto* plane :
       {&mask.flip_plane(), &mask.sa0_plane(), &mask.sa1_plane()}) {
    bytes.append(plane->begin(), plane->end());
  }
  return core::fnv1a64(bytes);
}

// Pinned realizations of the paper's three kinds, uniform and clustered,
// with whole faulty rows and columns on top. The registered models own the
// RNG draw order, so these constants pin every campaign that lowers a
// FaultSpec. A mismatch prints the observed checksum; edit a constant only
// for an intended change in realization.
TEST(FaultExpr, PaperKindRealizationsMatchPinnedChecksums) {
  struct Golden {
    FaultKind kind;
    FaultDistribution distribution;
    std::uint64_t checksum;
  };
  const Golden goldens[] = {
      {FaultKind::kBitFlip, FaultDistribution::kUniform, 0x27ba6ed9b3084fc9ull},
      {FaultKind::kStuckAt, FaultDistribution::kUniform, 0x9dca04cd8fbbf8f4ull},
      {FaultKind::kDynamic, FaultDistribution::kUniform, 0x27ba6ed9b3084fc9ull},
      {FaultKind::kBitFlip, FaultDistribution::kClustered, 0x4037525a4a5a0236ull},
      {FaultKind::kStuckAt, FaultDistribution::kClustered, 0x41e440dbacdd6e78ull},
      {FaultKind::kDynamic, FaultDistribution::kClustered, 0x4037525a4a5a0236ull},
  };
  for (const Golden& g : goldens) {
    FaultSpec spec;
    spec.kind = g.kind;
    spec.injection_rate = 0.08;
    spec.faulty_rows = 2;
    spec.faulty_cols = 1;
    spec.dynamic_period = 4;
    spec.stuck_at_one_fraction = 0.7;
    spec.distribution = g.distribution;
    spec.cluster_count = 2;
    RealizeContext ctx;
    ctx.grid = {24, 16};
    ctx.distribution = spec.distribution;
    ctx.cluster_count = spec.cluster_count;
    ctx.cluster_radius = spec.cluster_radius;
    core::Rng rng(77);
    const std::vector<RealizedFault> components =
        stack_from_spec(spec).realize(ctx, rng);
    ASSERT_EQ(components.size(), 1u);
    const std::uint64_t observed = planes_checksum(components[0].mask);
    EXPECT_EQ(observed, g.checksum)
        << to_string(g.kind) << " " << to_string(g.distribution)
        << ": observed checksum 0x" << core::hash_hex(observed);
  }
}

// ---------------------------------------------------------------------------
// The extended models.

TEST(ReadDisturbModel, FlipsOnlyMatchingReads) {
  const FaultStack stack = parse_fault_expr("readdisturb(rate=1)");
  RealizeContext ctx;
  ctx.grid = {1, 4};
  core::Rng rng(5);
  FaultVectorEntry entry = stack.realize_entry(
      "layer", FaultGranularity::kOutputElement, ctx, rng);
  ASSERT_EQ(entry.components.size(), 1u);
  EXPECT_EQ(entry.components[0].mask.count_flip(), 4);

  FaultInjector inj(entry);
  tensor::IntTensor feature(tensor::Shape{1, 4});
  feature[0] = 3;   // positive read: disturbed
  feature[1] = -3;  // negative read: untouched
  feature[2] = 0;   // at threshold: untouched
  feature[3] = 7;
  inj.apply_output_element(feature, 0, 1, /*execution=*/0, /*full_scale=*/8);
  EXPECT_EQ(feature[0], -3);
  EXPECT_EQ(feature[1], -3);
  EXPECT_EQ(feature[2], 0);
  EXPECT_EQ(feature[3], -7);
}

TEST(ReadDisturbModel, HonorsThresholdFraction) {
  const FaultStack stack =
      parse_fault_expr("readdisturb(rate=1,threshold=0.5)");
  RealizeContext ctx;
  ctx.grid = {1, 2};
  core::Rng rng(6);
  FaultInjector inj(stack.realize_entry(
      "layer", FaultGranularity::kOutputElement, ctx, rng));
  tensor::IntTensor feature(tensor::Shape{1, 2});
  feature[0] = 5;  // above 0.5 * 8 = 4: disturbed
  feature[1] = 4;  // at the cutoff: untouched
  inj.apply_output_element(feature, 0, 1, 0, /*full_scale=*/8);
  EXPECT_EQ(feature[0], -5);
  EXPECT_EQ(feature[1], 4);
}

TEST(DriftModel, StuckPopulationGrowsWithExecutions) {
  const FaultStack stack = parse_fault_expr("drift(rate=0.5,tau=50)");
  RealizeContext ctx;
  ctx.grid = {16, 16};
  core::Rng rng(7);
  FaultVectorEntry entry = stack.realize_entry(
      "layer", FaultGranularity::kOutputElement, ctx, rng);
  ASSERT_EQ(entry.components.size(), 1u);
  const RealizedFault& fault = entry.components[0];
  EXPECT_EQ(fault.mask.count_sa0() + fault.mask.count_sa1(), 128);
  EXPECT_EQ(fault.site_values.size(), 256u);

  // Count elements pinned at increasing execution indices: monotone, and
  // eventually the whole aged population is stuck.
  FaultInjector inj(entry);
  const auto pinned_at = [&](std::int64_t exec) {
    tensor::IntTensor feature(tensor::Shape{256, 1});
    for (std::int64_t i = 0; i < 256; ++i) feature[i] = 2;
    inj.apply_output_element(feature, 0, 256, exec, /*full_scale=*/9);
    std::int64_t pinned = 0;
    for (std::int64_t i = 0; i < 256; ++i) {
      if (feature[i] == 9 || feature[i] == -9) ++pinned;
    }
    return pinned;
  };
  const std::int64_t early = pinned_at(0);
  const std::int64_t mid = pinned_at(50);
  const std::int64_t late = pinned_at(100000);
  EXPECT_LE(early, mid);
  EXPECT_LT(mid, late);
  EXPECT_EQ(late, 128);
  // Before the first onset the component reports inactive (fast path).
  if (fault.first_active > 0) {
    EXPECT_FALSE(inj.any_active(fault.first_active - 1));
  }
  EXPECT_TRUE(inj.any_active(fault.first_active));
}

TEST(DriftModel, ClearedPolarityPlanesDisableTheCell) {
  // An ECC scrub repairs faults by clearing mask planes; a drift cell whose
  // polarity planes were cleared must inject nothing even past its onset
  // (the planes gate the pin, site_values only time it).
  const FaultStack stack = parse_fault_expr("drift(rate=1,tau=1,sa1=1)");
  RealizeContext ctx;
  ctx.grid = {1, 2};
  core::Rng rng(13);
  FaultVectorEntry entry = stack.realize_entry(
      "layer", FaultGranularity::kOutputElement, ctx, rng);
  entry.components[0].mask.set_sa1(0, false);  // "scrubbed" cell
  FaultInjector inj(entry);
  tensor::IntTensor feature(tensor::Shape{1, 2});
  feature[0] = 3;
  feature[1] = 3;
  inj.apply_output_element(feature, 0, 1, /*execution=*/100000,
                           /*full_scale=*/8);
  EXPECT_EQ(feature[0], 3);  // cleared planes: no fault
  EXPECT_EQ(feature[1], 8);  // intact cell pins to +K
}

TEST(CouplingModel, StrengthZeroIsExactlyTheSeeds) {
  const FaultStack stack = parse_fault_expr("coupling(rate=0.1,strength=0)");
  RealizeContext ctx;
  ctx.grid = {20, 20};
  core::Rng rng(8);
  const std::vector<RealizedFault> components = stack.realize(ctx, rng);
  EXPECT_EQ(components[0].mask.count_flip(), 40);  // 10% of 400 seeds only
}

TEST(CouplingModel, FullStrengthFlipsEveryNeighbor) {
  const FaultStack stack =
      parse_fault_expr("coupling(rate=0.01,strength=1,reach=1)");
  RealizeContext ctx;
  ctx.grid = {16, 16};
  core::Rng rng(9);
  const std::vector<RealizedFault> components = stack.realize(ctx, rng);
  const FaultMask& mask = components[0].mask;
  // Same seed, strength 1 vs 0: full strength must add every in-grid
  // neighbor, bounded by the 3x3 neighborhood of each seed.
  core::Rng rng2(9);
  const std::vector<RealizedFault> seeds_only =
      parse_fault_expr("coupling(rate=0.01,strength=0,reach=1)")
          .realize(ctx, rng2);
  EXPECT_GT(mask.count_flip(), seeds_only[0].mask.count_flip());
  EXPECT_LE(mask.count_flip(), 9 * seeds_only[0].mask.count_flip());
}

TEST(CouplingModel, SitesAreSpatiallyCorrelated) {
  // Equal flip budgets: coupling's realized sites must sit closer together
  // than a uniform bitflip mask of the same popcount.
  RealizeContext ctx;
  ctx.grid = {32, 32};
  double coupled_dist = 0.0;
  double uniform_dist = 0.0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    core::Rng r1(seed);
    const FaultMask coupled =
        parse_fault_expr("coupling(rate=0.02,strength=1,reach=1)")
            .realize(ctx, r1)[0]
            .mask;
    const double rate = static_cast<double>(coupled.count_flip()) / 1024.0;
    core::Rng r2(seed + 100);
    FaultSpec uniform;
    uniform.injection_rate = rate;
    const FaultMask baseline = realize_spec(uniform, ctx.grid, r2);
    coupled_dist += mean_pairwise_distance(coupled);
    uniform_dist += mean_pairwise_distance(baseline);
  }
  EXPECT_LT(coupled_dist, uniform_dist);
}

// ---------------------------------------------------------------------------
// Composition and granularity rules.

TEST(FaultStack, ComponentsApplyInStackOrder) {
  // stuckat then bitflip: the flip negates the pinned value; in the other
  // order the pin wins. Both single-slot models on a 1x1 grid.
  RealizeContext ctx;
  ctx.grid = {1, 1};
  core::Rng r1(3);
  FaultVectorEntry pinned_then_flipped =
      parse_fault_expr("stuckat(rate=1,sa1=1)+bitflip(rate=1)")
          .realize_entry("l", FaultGranularity::kOutputElement, ctx, r1);
  FaultInjector inj1(pinned_then_flipped);
  tensor::IntTensor feature(tensor::Shape{1, 1});
  feature[0] = 2;
  inj1.apply_output_element(feature, 0, 1, 0, /*full_scale=*/5);
  EXPECT_EQ(feature[0], -5);  // pinned to +5, then flipped

  core::Rng r2(3);
  FaultVectorEntry flipped_then_pinned =
      parse_fault_expr("bitflip(rate=1)+stuckat(rate=1,sa1=1)")
          .realize_entry("l", FaultGranularity::kOutputElement, ctx, r2);
  FaultInjector inj2(flipped_then_pinned);
  feature[0] = 2;
  inj2.apply_output_element(feature, 0, 1, 0, /*full_scale=*/5);
  EXPECT_EQ(feature[0], 5);  // flip first, pin wins
}

TEST(FaultStack, TermPlanesFoldFlipsByXor) {
  // Two stacked flip mechanisms on the same slot cancel.
  RealizeContext ctx;
  ctx.grid = {1, 1};
  core::Rng rng(4);
  FaultVectorEntry entry =
      parse_fault_expr("bitflip(rate=1)+bitflip(rate=1)")
          .realize_entry("l", FaultGranularity::kProductTerm, ctx, rng);
  FaultInjector inj(entry);
  const TermMasks* masks = inj.term_masks(1, 1, 0);
  ASSERT_NE(masks, nullptr);
  EXPECT_EQ(masks->flip.get(0, 0), -1);  // flipped twice == clean
}

TEST(FaultStack, GranularitySupportIsValidated) {
  const FaultStack drift = parse_fault_expr("drift(rate=0.1)");
  drift.validate_granularity(FaultGranularity::kOutputElement);
  EXPECT_THROW(drift.validate_granularity(FaultGranularity::kProductTerm),
               std::invalid_argument);
  EXPECT_THROW(parse_fault_expr("readdisturb(rate=0.1)")
                   .validate_granularity(FaultGranularity::kProductTerm),
               std::invalid_argument);

  // The injector enforces the same rule on realized entries.
  RealizeContext ctx;
  ctx.grid = {4, 4};
  core::Rng rng(5);
  FaultVectorEntry entry = parse_fault_expr("drift(rate=0.5)").realize_entry(
      "l", FaultGranularity::kProductTerm, ctx, rng);
  EXPECT_THROW(FaultInjector{entry}, std::invalid_argument);
}

TEST(FaultStack, DeviceBackendSupportIsValidated) {
  parse_fault_expr("bitflip(rate=0.1)+coupling(rate=0.1)")
      .validate_device_backend();
  EXPECT_THROW(
      parse_fault_expr("drift(rate=0.1)").validate_device_backend(),
      std::invalid_argument);
  EXPECT_THROW(
      parse_fault_expr("readdisturb(rate=0.1)").validate_device_backend(),
      std::invalid_argument);
}

TEST(FaultVectorFile, ComponentEntriesRoundTrip) {
  RealizeContext ctx;
  ctx.grid = {9, 5};
  core::Rng rng(11);
  const FaultStack stack =
      parse_fault_expr("stuckat(rate=0.2,sa1=0.7)+drift(rate=0.1,tau=300)");
  FaultVectorFile file;
  file.add(stack.realize_entry("conv1", FaultGranularity::kOutputElement, ctx,
                               rng));
  file.add(stack.realize_entry("dense0", FaultGranularity::kOutputElement,
                               ctx, rng));

  const auto bytes = file.serialize();
  EXPECT_EQ(bytes[8], 2u);  // component entries use the version-2 layout
  const FaultVectorFile loaded = FaultVectorFile::deserialize(bytes);
  EXPECT_EQ(loaded, file);
  ASSERT_NE(loaded.find("conv1"), nullptr);
  EXPECT_EQ(loaded.find("conv1")->components.size(), 2u);
  EXPECT_EQ(loaded.find("conv1")->describe(),
            "stuckat(rate=0.2,sa1=0.7)+drift(rate=0.1,tau=300)");
}

}  // namespace
}  // namespace flim::fault
