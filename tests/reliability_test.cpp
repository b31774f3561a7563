// Tests for the reliability substrate: March tests and their fault
// coverage, the SEC-DED codec and mask-level scrub model, the online canary
// monitor, and the lifetime simulator with mitigation stacks.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "core/rng.hpp"
#include "data/synthetic_mnist.hpp"
#include "lim/crossbar.hpp"
#include "lim/memristor.hpp"
#include "reliability/criticality.hpp"
#include "fault/residual.hpp"
#include "reliability/ecc/registry.hpp"
#include "reliability/lifetime.hpp"
#include "reliability/march.hpp"
#include "reliability/monitor.hpp"
#include "train/layers.hpp"
#include "train/optimizer.hpp"
#include "train/trainer.hpp"

namespace flim::reliability {
namespace {

lim::CrossbarConfig small_array() {
  lim::CrossbarConfig cfg;
  cfg.rows = 4;
  cfg.cols = 8;
  return cfg;
}

// ---- March algorithm definitions -------------------------------------------

TEST(March, ComplexityMatchesLiterature) {
  EXPECT_EQ(mats_plus().ops_per_cell(), 5);
  EXPECT_EQ(march_x().ops_per_cell(), 6);
  EXPECT_EQ(march_cminus().ops_per_cell(), 10);
  EXPECT_EQ(march_raw1().ops_per_cell(), 12);
}

TEST(March, NotationRendersStandardForm) {
  EXPECT_EQ(mats_plus().notation(), "{ #(w0); U(r0,w1); D(r1,w0) }");
  EXPECT_EQ(march_x().notation(), "{ #(w0); U(r0,w1); D(r1,w0); #(r0) }");
}

TEST(March, StandardTestsAreInComplexityOrder) {
  const auto& tests = standard_march_tests();
  ASSERT_EQ(tests.size(), 4u);
  for (std::size_t i = 1; i < tests.size(); ++i) {
    EXPECT_LE(tests[i - 1].ops_per_cell(), tests[i].ops_per_cell());
  }
}

TEST(March, CleanArrayPassesEveryStandardTest) {
  for (const MarchTest& test : standard_march_tests()) {
    lim::CrossbarArray array(small_array());
    const MarchResult result = run_march(test, array);
    EXPECT_FALSE(result.detected()) << test.name;
    EXPECT_EQ(result.ops_executed,
              static_cast<std::uint64_t>(test.ops_per_cell()) *
                  static_cast<std::uint64_t>(array.rows() * array.cols()))
        << test.name;
  }
}

TEST(March, EmptyTestIsRejected) {
  lim::CrossbarArray array(small_array());
  EXPECT_THROW(run_march(MarchTest{}, array), std::invalid_argument);
  MarchTest empty_element;
  empty_element.elements.push_back({});
  EXPECT_THROW(run_march(empty_element, array), std::invalid_argument);
}

// ---- per-fault-kind detection ----------------------------------------------

bool detects(const MarchTest& test, lim::DeviceFaultKind kind,
             double severity) {
  lim::CrossbarArray array(small_array());
  array.inject_device_fault(2, 3, kind, severity);
  return run_march(test, array).detected();
}

TEST(March, AllStandardTestsDetectHardStuckAts) {
  for (const MarchTest& test : standard_march_tests()) {
    EXPECT_TRUE(detects(test, lim::DeviceFaultKind::kStuckAt0, 1.0))
        << test.name;
    EXPECT_TRUE(detects(test, lim::DeviceFaultKind::kStuckAt1, 1.0))
        << test.name;
  }
}

TEST(March, StuckCurrentDetectedByMatsPlus) {
  // A fresh cell is at HRS; w1 cannot switch it, the following r1 fails.
  EXPECT_TRUE(detects(mats_plus(), lim::DeviceFaultKind::kStuckCurrent, 1.0));
}

TEST(March, SlowSetDetectedByAllStandardTests) {
  // 0->1 transition fault: w1 is ineffective, the next r1 read fails.
  for (const MarchTest& test : standard_march_tests()) {
    EXPECT_TRUE(detects(test, lim::DeviceFaultKind::kSlowSet, 1.0))
        << test.name;
  }
}

TEST(March, SlowResetEscapesMatsPlusButNotMarchX) {
  // The textbook difference between MATS+ and March X: MATS+ never reads
  // after its final w0, so a 1->0 transition fault sensitized by that write
  // goes unnoticed; March X appends the #(r0) element that catches it.
  EXPECT_FALSE(detects(mats_plus(), lim::DeviceFaultKind::kSlowReset, 1.0));
  EXPECT_TRUE(detects(march_x(), lim::DeviceFaultKind::kSlowReset, 1.0));
  EXPECT_TRUE(detects(march_cminus(), lim::DeviceFaultKind::kSlowReset, 1.0));
}

TEST(March, HardReadDisturbDetectedByEveryTest) {
  // severity 1.0: the very first r0 SETs the cell and misreads.
  for (const MarchTest& test : standard_march_tests()) {
    EXPECT_TRUE(detects(test, lim::DeviceFaultKind::kReadDisturb, 1.0))
        << test.name;
  }
}

TEST(March, WeakReadDisturbOnlyCaughtByRepeatedReadTest) {
  // severity 0.3 needs ~3 consecutive reads to flip. Classical algorithms
  // read each cell once per element with intervening writes that restore
  // the state, so the accumulated disturbance never crosses the threshold
  // within one observation; March RAW1's in-place read quadruples do.
  EXPECT_FALSE(detects(mats_plus(), lim::DeviceFaultKind::kReadDisturb, 0.3));
  EXPECT_FALSE(detects(march_x(), lim::DeviceFaultKind::kReadDisturb, 0.3));
  EXPECT_FALSE(
      detects(march_cminus(), lim::DeviceFaultKind::kReadDisturb, 0.3));
  EXPECT_TRUE(detects(march_raw1(), lim::DeviceFaultKind::kReadDisturb, 0.3));
}

TEST(March, IncorrectReadDetectedByEveryTest) {
  for (const MarchTest& test : standard_march_tests()) {
    EXPECT_TRUE(detects(test, lim::DeviceFaultKind::kIncorrectRead, 1.0))
        << test.name;
  }
}

TEST(March, ParametricDriftEscapesAllMarchTests) {
  // A mildly degraded switching rate still completes within the programming
  // pulse, so functional March tests pass -- the monitoring gap that
  // motivates the lifetime/monitor modules.
  for (const MarchTest& test : standard_march_tests()) {
    EXPECT_FALSE(detects(test, lim::DeviceFaultKind::kDrift, 0.5))
        << test.name;
  }
}

TEST(March, FailureLogPinpointsTheFaultyCell) {
  lim::CrossbarArray array(small_array());
  array.inject_device_fault(1, 5, lim::DeviceFaultKind::kStuckAt0, 1.0);
  const MarchResult result = run_march(march_x(), array);
  ASSERT_TRUE(result.detected());
  const MarchFailure& first = result.failures.front();
  EXPECT_EQ(first.row, 1);
  EXPECT_EQ(first.col, 5);
  EXPECT_TRUE(first.expected);   // r1 observed the stuck-at-0
  EXPECT_FALSE(first.got);
}

TEST(March, FailureLogIsBounded) {
  // Every cell stuck-at-0 floods the log; detection must still be cheap.
  lim::CrossbarConfig cfg;
  cfg.rows = 32;
  cfg.cols = 64;
  lim::CrossbarArray array(cfg);
  for (std::int64_t r = 0; r < cfg.rows; ++r) {
    for (std::int64_t c = 0; c < cfg.cols; ++c) {
      array.inject_device_fault(r, c, lim::DeviceFaultKind::kStuckAt0, 1.0);
    }
  }
  const MarchResult result = run_march(march_cminus(), array);
  EXPECT_TRUE(result.detected());
  EXPECT_LE(result.failures.size(), kMaxRecordedFailures);
}

// ---- coverage evaluation ----------------------------------------------------

CoverageConfig coverage_config(double severity) {
  CoverageConfig cfg;
  cfg.crossbar = small_array();
  cfg.samples_per_kind = 8;
  cfg.severity = severity;
  cfg.seed = 7;
  return cfg;
}

double coverage_of(const std::vector<CoverageRow>& rows,
                   lim::DeviceFaultKind kind) {
  for (const CoverageRow& row : rows) {
    if (row.kind == kind) return row.coverage();
  }
  ADD_FAILURE() << "kind missing from coverage rows";
  return -1.0;
}

TEST(MarchCoverage, MarchCminusCoversAllHardFaults) {
  const auto rows = evaluate_coverage(march_cminus(), coverage_config(1.0));
  EXPECT_EQ(rows.size(), lim::all_device_fault_kinds().size());
  for (const CoverageRow& row : rows) {
    EXPECT_EQ(row.injected, 8);
    EXPECT_DOUBLE_EQ(row.coverage(), 1.0) << lim::to_string(row.kind);
  }
}

TEST(MarchCoverage, MatsPlusMissesSlowResetEntirely) {
  const auto rows = evaluate_coverage(mats_plus(), coverage_config(1.0));
  EXPECT_DOUBLE_EQ(coverage_of(rows, lim::DeviceFaultKind::kSlowReset), 0.0);
  EXPECT_DOUBLE_EQ(coverage_of(rows, lim::DeviceFaultKind::kStuckAt0), 1.0);
}

TEST(MarchCoverage, OnlyRaw1CoversWeakReadDisturb) {
  const auto weak = coverage_config(0.3);
  EXPECT_DOUBLE_EQ(coverage_of(evaluate_coverage(march_cminus(), weak),
                               lim::DeviceFaultKind::kReadDisturb),
                   0.0);
  EXPECT_DOUBLE_EQ(coverage_of(evaluate_coverage(march_raw1(), weak),
                               lim::DeviceFaultKind::kReadDisturb),
                   1.0);
}

TEST(MarchCoverage, RejectsZeroSamples) {
  CoverageConfig cfg = coverage_config(1.0);
  cfg.samples_per_kind = 0;
  EXPECT_THROW(evaluate_coverage(mats_plus(), cfg), std::invalid_argument);
}

// ---- SEC-DED codec -----------------------------------------------------------

const ecc::Codec& secded() {
  return ecc::CodecRegistry::instance().configure("secded");
}

ecc::BitVec bits_of(std::uint64_t word) {
  ecc::BitVec bits(64, 0);
  for (int i = 0; i < 64; ++i) {
    bits[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((word >> i) & 1u);
  }
  return bits;
}

/// secded's layout: index 0 holds the overall parity and the power-of-two
/// indices the Hamming parity; every other index holds a data bit.
bool is_parity_index(int index) { return (index & (index - 1)) == 0; }

TEST(SecDed, CleanWordsRoundTrip) {
  const ecc::Codec& codec = secded();
  core::Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    const ecc::BitVec data = bits_of(rng());
    const ecc::DecodeOutcome decoded = codec.decode(codec.encode(data));
    EXPECT_EQ(decoded.status, ecc::DecodeStatus::kClean);
    EXPECT_EQ(decoded.data, data);
  }
}

TEST(SecDed, EverysingleDataBitErrorIsCorrected) {
  const ecc::Codec& codec = secded();
  const ecc::BitVec data = bits_of(0xdeadbeefcafef00dull);
  const ecc::BitVec clean = codec.encode(data);
  int data_bits = 0;
  for (int index = 0; index < codec.capability().code_bits; ++index) {
    if (is_parity_index(index)) continue;
    ++data_bits;
    ecc::BitVec corrupted = clean;
    corrupted[static_cast<std::size_t>(index)] ^= 1;
    const ecc::DecodeOutcome decoded = codec.decode(corrupted);
    EXPECT_EQ(decoded.status, ecc::DecodeStatus::kCorrected) << index;
    EXPECT_EQ(decoded.data, data) << index;
  }
  EXPECT_EQ(data_bits, 64);
}

TEST(SecDed, EverySingleParityBitErrorLeavesDataIntact) {
  const ecc::Codec& codec = secded();
  const ecc::BitVec data = bits_of(0x0123456789abcdefull);
  const ecc::BitVec clean = codec.encode(data);
  int parity_bits = 0;
  for (int index = 0; index < codec.capability().code_bits; ++index) {
    if (!is_parity_index(index)) continue;
    ++parity_bits;
    ecc::BitVec corrupted = clean;
    corrupted[static_cast<std::size_t>(index)] ^= 1;
    const ecc::DecodeOutcome decoded = codec.decode(corrupted);
    EXPECT_EQ(decoded.status, ecc::DecodeStatus::kCorrected) << index;
    EXPECT_EQ(decoded.data, data) << index;
  }
  EXPECT_EQ(parity_bits, 8);
}

TEST(SecDed, DoubleBitErrorsAreDetectedNotMiscorrected) {
  const ecc::Codec& codec = secded();
  const auto code_bits =
      static_cast<std::uint64_t>(codec.capability().code_bits);
  core::Rng rng(13);
  for (int trial = 0; trial < 200; ++trial) {
    ecc::BitVec corrupted = codec.encode(bits_of(rng()));
    const int a = static_cast<int>(rng.uniform(code_bits));
    int b = a;
    while (b == a) b = static_cast<int>(rng.uniform(code_bits));
    for (const int bit : {a, b}) corrupted[static_cast<std::size_t>(bit)] ^= 1;
    const ecc::DecodeOutcome decoded = codec.decode(corrupted);
    EXPECT_EQ(decoded.status, ecc::DecodeStatus::kDetected)
        << "bits " << a << "," << b;
  }
}

TEST(SecDed, TripleBitErrorsNeverCrashAndOftenDetect) {
  // SEC-DED guarantees nothing beyond two errors; the decoder must still
  // return a verdict (never crash, never report kClean) for triples.
  const ecc::Codec& codec = secded();
  const auto code_bits =
      static_cast<std::uint64_t>(codec.capability().code_bits);
  core::Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    ecc::BitVec corrupted = codec.encode(bits_of(rng()));
    std::set<int> bits;
    while (bits.size() < 3u) {
      bits.insert(static_cast<int>(rng.uniform(code_bits)));
    }
    for (const int bit : bits) corrupted[static_cast<std::size_t>(bit)] ^= 1;
    const ecc::DecodeOutcome decoded = codec.decode(corrupted);
    EXPECT_NE(decoded.status, ecc::DecodeStatus::kClean);
  }
}

// ---- ECC scrub over fault masks ----------------------------------------------

/// A SEC-DED scrub pass: radius 1 over words of `word_bits` cells.
fault::ResidualOptions secded_scrub(int word_bits = 64, int interleave = 1) {
  return fault::ResidualOptions{word_bits, interleave, 1};
}

TEST(EccScrub, SingleFaultPerWordIsCleared) {
  fault::FaultMask mask(1, 128);  // two 64-cell words
  mask.set_sa0(3, true);
  mask.set_sa1(100, true);
  fault::ResidualStats stats;
  const fault::FaultMask residual =
      fault::apply_word_residual(mask, secded_scrub(), &stats);
  EXPECT_FALSE(residual.any());
  EXPECT_EQ(stats.words, 2);
  EXPECT_EQ(stats.corrected_words, 2);
  EXPECT_EQ(stats.uncorrectable_words, 0);
  EXPECT_EQ(stats.faulty_bits_before, 2);
  EXPECT_EQ(stats.faulty_bits_after, 0);
}

TEST(EccScrub, TwoFaultsInOneWordAreKept) {
  fault::FaultMask mask(1, 64);
  mask.set_sa0(10, true);
  mask.set_flip(20, true);  // any plane counts against the budget
  fault::ResidualStats stats;
  const fault::FaultMask residual =
      fault::apply_word_residual(mask, secded_scrub(), &stats);
  EXPECT_TRUE(residual.sa0(10));
  EXPECT_TRUE(residual.flip(20));
  EXPECT_EQ(stats.uncorrectable_words, 1);
  EXPECT_EQ(stats.faulty_bits_after, 2);
}

TEST(EccScrub, InterleavingSplitsAdjacentBursts) {
  fault::FaultMask burst(1, 64);
  burst.set_sa0(30, true);
  burst.set_sa0(31, true);  // adjacent pair: a physical burst

  // Without interleaving both land in the same word: uncorrectable.
  EXPECT_TRUE(fault::apply_word_residual(burst, secded_scrub(64, 1)).any());
  // Interleave 2 puts even/odd columns into different words: both correct.
  EXPECT_FALSE(fault::apply_word_residual(burst, secded_scrub(32, 2)).any());
}

TEST(EccScrub, WordsDoNotSpanGridRows) {
  // One faulty cell in each of two rows, columns aligned: with word_bits
  // covering a whole row, each row is its own word, so both are single
  // faults and both are corrected.
  fault::FaultMask mask(2, 32);
  mask.set_sa1(5, true);        // row 0
  mask.set_sa1(32 + 5, true);   // row 1
  fault::ResidualStats stats;
  const fault::FaultMask residual =
      fault::apply_word_residual(mask, secded_scrub(32, 1), &stats);
  EXPECT_FALSE(residual.any());
  EXPECT_EQ(stats.words, 2);
  EXPECT_EQ(stats.corrected_words, 2);
}

TEST(EccScrub, ShortTailWordIsProcessed) {
  fault::FaultMask mask(1, 70);  // one full word + a 6-cell tail
  mask.set_sa0(68, true);
  fault::ResidualStats stats;
  const fault::FaultMask residual =
      fault::apply_word_residual(mask, secded_scrub(), &stats);
  EXPECT_FALSE(residual.any());
  EXPECT_EQ(stats.words, 2);
}

TEST(EccScrub, RejectsNonsenseOptions) {
  fault::FaultMask mask(1, 8);
  EXPECT_THROW(fault::apply_word_residual(mask, secded_scrub(0, 1)),
               std::invalid_argument);
  EXPECT_THROW(fault::apply_word_residual(mask, secded_scrub(64, 0)),
               std::invalid_argument);
}

TEST(EccScrub, OverheadReflectsCodeRate) {
  // SEC-DED over w data bits costs hamming_parity_bits(w) + 1 parity
  // cells: (72,64) -> 8/64, (39,32) -> 7/32, (13,8) -> 5/8. Narrower words
  // pay proportionally more.
  const auto overhead = [](const char* expr) {
    return ecc::CodecRegistry::instance().configure(expr).cost()
        .parity_overhead();
  };
  EXPECT_DOUBLE_EQ(overhead("secded"), 0.125);
  EXPECT_DOUBLE_EQ(overhead("hamming(d=64)"), 0.125);
  EXPECT_DOUBLE_EQ(overhead("hamming(d=32)"), 7.0 / 32.0);
  EXPECT_DOUBLE_EQ(overhead("hamming(d=8)"), 5.0 / 8.0);
}

// ---- online canary monitor -----------------------------------------------------

MonitorConfig monitor_config(CanaryPolicy policy) {
  MonitorConfig cfg;
  cfg.grid = {8, 8};
  cfg.test_period = 4;
  cfg.slots_per_round = 8;
  cfg.policy = policy;
  cfg.seed = 5;
  return cfg;
}

TEST(Monitor, SteadyStateOverheadFormula) {
  const OnlineMonitor monitor(monitor_config(CanaryPolicy::kRoundRobin));
  EXPECT_DOUBLE_EQ(monitor.overhead_ops_per_inference(), 2.0 * 8 / 4);
}

TEST(Monitor, CleanMaskIsNeverFlagged) {
  const OnlineMonitor monitor(monitor_config(CanaryPolicy::kRoundRobin));
  const fault::FaultMask clean(8, 8);
  const DetectionOutcome outcome = monitor.run_until_detection(clean, 1000);
  EXPECT_FALSE(outcome.detected);
  EXPECT_EQ(outcome.inferences_elapsed, 1000);
  EXPECT_EQ(outcome.detecting_slot, -1);
}

TEST(Monitor, RoundRobinDetectsWithinOneFullSweep) {
  const MonitorConfig cfg = monitor_config(CanaryPolicy::kRoundRobin);
  const OnlineMonitor monitor(cfg);
  fault::FaultMask mask(8, 8);
  mask.set_sa1(37, true);
  const DetectionOutcome outcome = monitor.run_until_detection(mask, 100000);
  EXPECT_TRUE(outcome.detected);
  EXPECT_EQ(outcome.detecting_slot, 37);
  // 64 slots / 8 per round = 8 rounds max; one round per 4 inferences.
  EXPECT_LE(outcome.inferences_elapsed, 8 * 4);
}

TEST(Monitor, RandomPolicyEventuallyDetects) {
  const OnlineMonitor monitor(monitor_config(CanaryPolicy::kRandom));
  fault::FaultMask mask(8, 8);
  mask.set_flip(0, true);
  const DetectionOutcome outcome =
      monitor.run_until_detection(mask, 1000000);
  EXPECT_TRUE(outcome.detected);
  EXPECT_EQ(outcome.detecting_slot, 0);
}

TEST(Monitor, LargerCanaryBudgetShortensLatency) {
  // Average detection latency over fault positions: a 4x bigger canary
  // budget should not be slower on any deterministic sweep.
  MonitorConfig small_cfg = monitor_config(CanaryPolicy::kRoundRobin);
  small_cfg.slots_per_round = 2;
  MonitorConfig big_cfg = small_cfg;
  big_cfg.slots_per_round = 16;
  const OnlineMonitor slow(small_cfg);
  const OnlineMonitor fast(big_cfg);
  std::int64_t slow_total = 0;
  std::int64_t fast_total = 0;
  for (std::int64_t slot = 0; slot < 64; slot += 7) {
    fault::FaultMask mask(8, 8);
    mask.set_sa0(slot, true);
    slow_total += slow.run_until_detection(mask, 100000).inferences_elapsed;
    fast_total += fast.run_until_detection(mask, 100000).inferences_elapsed;
  }
  EXPECT_LT(fast_total, slow_total);
}

TEST(Monitor, GeometryMismatchThrows) {
  const OnlineMonitor monitor(monitor_config(CanaryPolicy::kRoundRobin));
  const fault::FaultMask wrong(4, 4);
  EXPECT_THROW(monitor.run_until_detection(wrong, 10), std::invalid_argument);
}

TEST(Monitor, InvalidConfigThrows) {
  MonitorConfig cfg = monitor_config(CanaryPolicy::kRoundRobin);
  cfg.test_period = 0;
  EXPECT_THROW(OnlineMonitor{cfg}, std::invalid_argument);
  cfg = monitor_config(CanaryPolicy::kRoundRobin);
  cfg.slots_per_round = 0;
  EXPECT_THROW(OnlineMonitor{cfg}, std::invalid_argument);
}

// ---- lifetime simulation ----------------------------------------------------

TEST(MitigationStack, NamesAreDescriptive) {
  EXPECT_EQ(MitigationStack{}.name(), "none");
  MitigationStack s;
  s.scrub = true;
  EXPECT_EQ(s.name(), "scrub");
  s.ecc = true;
  EXPECT_EQ(s.name(), "scrub+ECC");
  s.modular_redundancy = 3;
  EXPECT_EQ(s.name(), "scrub+ECC+3MR");
}

TEST(LifetimeCurve, ThresholdCrossingInterpolates) {
  LifetimeCurve curve;
  curve.points.push_back({100.0, 0.9, 0, 0, 0});
  curve.points.push_back({200.0, 0.5, 0, 0, 0});
  const auto hours = curve.hours_to_threshold(0.7);
  ASSERT_TRUE(hours.has_value());
  EXPECT_NEAR(*hours, 150.0, 1e-9);
}

TEST(LifetimeCurve, NoCrossingReturnsNullopt) {
  LifetimeCurve curve;
  curve.points.push_back({100.0, 0.9, 0, 0, 0});
  curve.points.push_back({200.0, 0.85, 0, 0, 0});
  EXPECT_FALSE(curve.hours_to_threshold(0.5).has_value());
}

TEST(LifetimeSimulator, RejectsInvalidConfigurations) {
  LifetimeConfig cfg;
  cfg.step_hours = 0.0;
  EXPECT_THROW(LifetimeSimulator{cfg}, std::invalid_argument);
  cfg = LifetimeConfig{};
  cfg.horizon_hours = cfg.step_hours / 2.0;
  EXPECT_THROW(LifetimeSimulator{cfg}, std::invalid_argument);
  cfg = LifetimeConfig{};
  cfg.wearout.shape = 0.0;
  EXPECT_THROW(LifetimeSimulator{cfg}, std::invalid_argument);
}

/// Small trained binary MLP shared by the lifetime tests (training once).
struct MlpFixture {
  data::SyntheticMnist dataset;
  bnn::Model model;
  data::Batch eval_batch;
  std::vector<bnn::LayerWorkload> layers;

  static const MlpFixture& instance() {
    static MlpFixture* fx = [] {
      auto* f = new MlpFixture();
      data::SyntheticMnistOptions opts;
      opts.size = 900;
      f->dataset = data::SyntheticMnist(opts);

      core::Rng rng(31);
      train::Graph graph("tiny-mlp");
      graph.add(std::make_unique<train::TFlatten>("flatten"));
      graph.add(std::make_unique<train::TDense>("stem", 784, 48, rng));
      graph.add(std::make_unique<train::TBatchNorm>("stem_bn", 48));
      graph.add(std::make_unique<train::TSign>("stem_sign"));
      graph.add(std::make_unique<train::TBinaryDense>("bd0", 48, 48, rng));
      graph.add(std::make_unique<train::TBatchNorm>("bd0_bn", 48));
      graph.add(std::make_unique<train::TSign>("bd0_sign"));
      graph.add(std::make_unique<train::TBinaryDense>("bd1", 48, 10, rng));
      graph.add(std::make_unique<train::TBatchNorm>("bd1_bn", 10));

      train::Adam adam(2e-3f);
      train::TrainConfig cfg;
      cfg.epochs = 3;
      cfg.batch_size = 32;
      cfg.train_samples = 700;
      train::fit(graph, adam, f->dataset, cfg);
      f->model = graph.to_inference_model();
      f->eval_batch = data::load_batch(f->dataset, 700, 200);
      f->layers = f->model
                      .analyze(tensor::FloatTensor(
                          tensor::Shape{1, 1, 28, 28}, 0.5f))
                      .binarized_layers;
      return f;
    }();
    return *fx;
  }
};

LifetimeConfig fast_lifetime_config() {
  LifetimeConfig cfg;
  cfg.grid = {16, 16};
  cfg.step_hours = 1000.0;
  cfg.horizon_hours = 4000.0;
  cfg.wearout.scale_hours = 6000.0;
  cfg.wearout.shape = 2.5;
  cfg.transients.upsets_per_grid_hour = 0.02;
  cfg.seed = 17;
  return cfg;
}

TEST(LifetimeSimulator, RejectsInvalidMitigations) {
  const MlpFixture& fx = MlpFixture::instance();
  const LifetimeSimulator sim(fast_lifetime_config());
  MitigationStack even;
  even.modular_redundancy = 2;
  EXPECT_THROW(sim.simulate(fx.model, fx.eval_batch, fx.layers, even),
               std::invalid_argument);
  MitigationStack ecc_only;
  ecc_only.ecc = true;  // ECC without scrub is rejected
  EXPECT_THROW(sim.simulate(fx.model, fx.eval_batch, fx.layers, ecc_only),
               std::invalid_argument);
}

TEST(LifetimeSimulator, CheckpointsCoverTheHorizon) {
  const MlpFixture& fx = MlpFixture::instance();
  const LifetimeConfig cfg = fast_lifetime_config();
  const LifetimeSimulator sim(cfg);
  const LifetimeCurve curve =
      sim.simulate(fx.model, fx.eval_batch, fx.layers, MitigationStack{});
  ASSERT_EQ(curve.points.size(), 4u);
  for (std::size_t i = 0; i < curve.points.size(); ++i) {
    EXPECT_NEAR(curve.points[i].hours, (i + 1) * cfg.step_hours, 1e-9);
  }
}

TEST(LifetimeSimulator, WearoutAccumulatesMonotonically) {
  const MlpFixture& fx = MlpFixture::instance();
  const LifetimeSimulator sim(fast_lifetime_config());
  const LifetimeCurve curve =
      sim.simulate(fx.model, fx.eval_batch, fx.layers, MitigationStack{});
  for (std::size_t i = 1; i < curve.points.size(); ++i) {
    EXPECT_GE(curve.points[i].stuck_cells_raw,
              curve.points[i - 1].stuck_cells_raw);
  }
  // By 2/3 of characteristic life a 16x16x2-layer deployment has failures.
  EXPECT_GT(curve.points.back().stuck_cells_raw, 0);
}

TEST(LifetimeSimulator, AccuracyDegradesTowardEndOfLife) {
  const MlpFixture& fx = MlpFixture::instance();
  LifetimeConfig cfg = fast_lifetime_config();
  cfg.horizon_hours = 6000.0;  // past the Weibull knee
  const LifetimeSimulator sim(cfg);
  const LifetimeCurve curve =
      sim.simulate(fx.model, fx.eval_batch, fx.layers, MitigationStack{});
  EXPECT_LT(curve.points.back().accuracy, curve.points.front().accuracy);
}

TEST(LifetimeSimulator, ScrubbingClearsTransientFlips) {
  const MlpFixture& fx = MlpFixture::instance();
  LifetimeConfig cfg = fast_lifetime_config();
  cfg.wearout.scale_hours = 1e9;  // isolate the transient process
  cfg.transients.upsets_per_grid_hour = 0.05;
  const LifetimeSimulator sim(cfg);

  const LifetimeCurve bare =
      sim.simulate(fx.model, fx.eval_batch, fx.layers, MitigationStack{});
  MitigationStack scrub;
  scrub.scrub = true;
  scrub.scrub_period_hours = cfg.step_hours;
  const LifetimeCurve scrubbed =
      sim.simulate(fx.model, fx.eval_batch, fx.layers, scrub);

  EXPECT_GT(bare.points.back().transient_flips, 0);
  EXPECT_EQ(scrubbed.points.back().transient_flips, 0);
}

TEST(LifetimeSimulator, EccHidesSparseWearoutFromComputation) {
  const MlpFixture& fx = MlpFixture::instance();
  LifetimeConfig cfg = fast_lifetime_config();
  cfg.transients.upsets_per_grid_hour = 0.0;
  const LifetimeSimulator sim(cfg);

  MitigationStack ecc;
  ecc.scrub = true;
  ecc.ecc = true;
  ecc.ecc_interleave = 4;
  const LifetimeCurve curve =
      sim.simulate(fx.model, fx.eval_batch, fx.layers, ecc);
  // Early in life faults are sparse: most words hold at most one faulty
  // cell, so the effective count is well below the raw count.
  bool some_correction = false;
  for (const LifetimePoint& p : curve.points) {
    EXPECT_LE(p.stuck_cells_effective, p.stuck_cells_raw);
    if (p.stuck_cells_raw > 0 &&
        p.stuck_cells_effective < p.stuck_cells_raw) {
      some_correction = true;
    }
  }
  EXPECT_TRUE(some_correction);
}

// ---- criticality analysis ----------------------------------------------------

TEST(Criticality, RanksEveryColumnSortedByDrop) {
  const MlpFixture& fx = MlpFixture::instance();
  CriticalityConfig cfg;
  cfg.grid = {8, 8};
  cfg.repetitions = 2;
  const CriticalityReport report =
      rank_columns(fx.model, fx.eval_batch, "bd0", cfg);
  ASSERT_EQ(report.columns.size(), 8u);
  EXPECT_GT(report.clean_accuracy, 0.5);
  for (std::size_t i = 1; i < report.columns.size(); ++i) {
    EXPECT_GE(report.columns[i - 1].drop, report.columns[i].drop);
  }
  for (const ColumnCriticality& c : report.columns) {
    EXPECT_NEAR(c.drop, report.clean_accuracy - c.accuracy, 1e-12);
  }
}

TEST(Criticality, OpFreeColumnsHaveExactlyZeroDrop) {
  // bd1 issues only 10 ops per image; on a 2x16 grid they occupy row 0,
  // columns 0..9 -- columns 10..15 carry no ops and must cost nothing.
  const MlpFixture& fx = MlpFixture::instance();
  CriticalityConfig cfg;
  cfg.grid = {2, 16};
  cfg.repetitions = 2;
  const CriticalityReport report =
      rank_columns(fx.model, fx.eval_batch, "bd1", cfg);
  std::set<std::int64_t> zero_drop;
  for (const ColumnCriticality& c : report.columns) {
    if (std::abs(c.drop) < 1e-12) zero_drop.insert(c.column);
  }
  for (std::int64_t c = 10; c < 16; ++c) {
    EXPECT_TRUE(zero_drop.count(c)) << "column " << c << " hosts no ops";
  }
}

TEST(Criticality, SelectiveHardeningNeverLosesToNoRepair) {
  const MlpFixture& fx = MlpFixture::instance();
  CriticalityConfig cfg;
  cfg.grid = {8, 8};
  cfg.repetitions = 3;
  const CriticalityReport report =
      rank_columns(fx.model, fx.eval_batch, "bd0", cfg);
  const HardeningOutcome outcome = evaluate_selective_hardening(
      fx.model, fx.eval_batch, "bd0", report, /*hardening_budget=*/2, cfg);
  // Repairing half the failed columns cannot hurt (small seed noise aside).
  EXPECT_GE(outcome.random_hardening, outcome.faulty_accuracy - 0.03);
  EXPECT_GE(outcome.guided_hardening, outcome.faulty_accuracy - 0.03);
  // Guided repair must track the ranking's promise within noise.
  EXPECT_GE(outcome.guided_hardening, outcome.random_hardening - 0.05);
}

TEST(Criticality, HardeningValidatesScenario) {
  const MlpFixture& fx = MlpFixture::instance();
  CriticalityConfig cfg;
  cfg.grid = {8, 8};
  CriticalityReport report;
  EXPECT_THROW(evaluate_selective_hardening(fx.model, fx.eval_batch, "bd0",
                                            report, 0, cfg),
               std::invalid_argument);
  EXPECT_THROW(evaluate_selective_hardening(fx.model, fx.eval_batch, "bd0",
                                            report, 5, cfg),
               std::invalid_argument);
  cfg.repetitions = 0;
  EXPECT_THROW(rank_columns(fx.model, fx.eval_batch, "bd0", cfg),
               std::invalid_argument);
}

TEST(LifetimeSimulator, MitigationExtendsUsefulLife) {
  const MlpFixture& fx = MlpFixture::instance();
  LifetimeConfig cfg = fast_lifetime_config();
  cfg.horizon_hours = 6000.0;
  cfg.transients.upsets_per_grid_hour = 0.05;
  const LifetimeSimulator sim(cfg);

  const LifetimeCurve bare =
      sim.simulate(fx.model, fx.eval_batch, fx.layers, MitigationStack{});
  MitigationStack full;
  full.scrub = true;
  full.scrub_period_hours = cfg.step_hours;
  full.ecc = true;
  full.ecc_interleave = 4;
  const LifetimeCurve mitigated =
      sim.simulate(fx.model, fx.eval_batch, fx.layers, full);

  // Average accuracy over the lifetime must improve under mitigation.
  double bare_mean = 0.0;
  double mitigated_mean = 0.0;
  for (std::size_t i = 0; i < bare.points.size(); ++i) {
    bare_mean += bare.points[i].accuracy;
    mitigated_mean += mitigated.points[i].accuracy;
  }
  EXPECT_GT(mitigated_mean, bare_mean);
}

}  // namespace
}  // namespace flim::reliability
