// Unit tests for the ECC codec subsystem: registry + expression language,
// per-family exhaustive small-codeword ground truth against closed-form
// placement counts and pinned tallies, the pinned secded placement
// checksum, combinatorial unranking, the durable exhaust store (resume,
// sharding, merge), and the codec-radius residual application in fault/.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "core/sysinfo.hpp"
#include "fault/residual.hpp"
#include "reliability/ecc/codec.hpp"
#include "reliability/ecc/exhaust.hpp"
#include "reliability/ecc/exhaust_store.hpp"
#include "reliability/ecc/registry.hpp"

namespace flim::reliability::ecc {
namespace {

const Codec& configure(const std::string& expr) {
  return CodecRegistry::instance().configure(expr);
}

/// Flips `positions` of the encoding of `data` and decodes the result.
DecodeOutcome decode_with_flips(const Codec& codec, const BitVec& data,
                                const std::vector<int>& positions) {
  BitVec code = codec.encode(data);
  for (const int p : positions) code[static_cast<std::size_t>(p)] ^= 1;
  return codec.decode(code);
}

/// Deterministic but irregular data word for codeword-level tests.
BitVec test_word(int bits, unsigned salt) {
  BitVec data(static_cast<std::size_t>(bits), 0);
  for (int i = 0; i < bits; ++i) {
    data[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(((i * 2654435761u + salt) >> 7) & 1);
  }
  return data;
}

// ---- registry and expression language -------------------------------------

TEST(CodecRegistry, ListsBuiltinFamiliesSorted) {
  std::vector<std::string> names;
  for (const CodecFamily* family : CodecRegistry::instance().families()) {
    names.push_back(family->info().name);
  }
  EXPECT_EQ(names,
            (std::vector<std::string>{"bch", "hamming", "hsiao", "secded"}));
}

TEST(CodecRegistry, CanonicalFormSortsParamsAndStripsSpaces) {
  EXPECT_EQ(canonical_codec_expr("hamming( k=8 , d=64 )"),
            "hamming(d=64,k=8)");
  EXPECT_EQ(canonical_codec_expr("secded"), "secded");
  EXPECT_EQ(canonical_codec_expr("secded()"), "secded");
  EXPECT_EQ(canonical_codec_expr("bch(t=2,d=8)"), "bch(d=8,t=2)");
}

TEST(CodecRegistry, ConfigureCachesPerCanonicalExpression) {
  const Codec& a = configure("hamming(d=64,k=8)");
  const Codec& b = configure("hamming( k=8, d=64 )");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.canonical(), "hamming(d=64,k=8)");
  EXPECT_EQ(a.family(), "hamming");
}

TEST(CodecRegistry, RejectsMalformedExpressions) {
  EXPECT_THROW(parse_codec_expr(""), std::invalid_argument);
  EXPECT_THROW(parse_codec_expr("nosuchcode"), std::invalid_argument);
  EXPECT_THROW(parse_codec_expr("hamming(d=64"), std::invalid_argument);
  EXPECT_THROW(parse_codec_expr("hamming(d)"), std::invalid_argument);
  EXPECT_THROW(parse_codec_expr("hamming(z=1)"), std::invalid_argument);
  // No '+' composition: one code per codeword.
  EXPECT_THROW(parse_codec_expr("secded+hamming"), std::invalid_argument);
}

TEST(CodecRegistry, ValidatesCrossParameterRules) {
  // d=64 needs m=7, so k must be 0 (auto), 7 (SEC) or 8 (SEC-DED).
  EXPECT_THROW(parse_codec_expr("hamming(d=64,k=5)"), std::invalid_argument);
  EXPECT_NO_THROW(parse_codec_expr("hamming(d=64,k=7)"));
  // hsiao d=64 needs k >= 8 for odd-weight column coverage.
  EXPECT_THROW(parse_codec_expr("hsiao(d=64,k=7)"), std::invalid_argument);
  // bch: GF(2^4) cannot hold 64 data bits.
  EXPECT_THROW(parse_codec_expr("bch(d=64,t=2,m=4)"), std::invalid_argument);
  EXPECT_THROW(parse_codec_expr("secded(d=32)"), std::invalid_argument);
}

// ---- capabilities and cost models -----------------------------------------

TEST(CodecCapability, MatchesClassicalGeometries) {
  const Capability& hamming = configure("hamming(d=64,k=8)").capability();
  EXPECT_EQ(hamming.parity_bits, 8);
  EXPECT_EQ(hamming.code_bits, 72);
  EXPECT_EQ(hamming.correct_guarantee, 1);
  EXPECT_EQ(hamming.detect_guarantee, 2);

  // Auto-sized Hsiao over 64 data bits is the standard (72,64) geometry.
  const Capability& hsiao = configure("hsiao(d=64,k=0)").capability();
  EXPECT_EQ(hsiao.parity_bits, 8);
  EXPECT_EQ(hsiao.code_bits, 72);
  EXPECT_EQ(hsiao.detect_guarantee, 2);

  const Capability& secded = configure("secded").capability();
  EXPECT_EQ(secded.data_bits, 64);
  EXPECT_EQ(secded.code_bits, 72);

  // bch(d=8,t=2) lives in GF(2^5): two degree-5 minimal polynomials give
  // 10 parity bits, an (18,8) shortened code.
  const Capability& bch = configure("bch(d=8,t=2)").capability();
  EXPECT_EQ(bch.parity_bits, 10);
  EXPECT_EQ(bch.code_bits, 18);
  EXPECT_EQ(bch.correct_guarantee, 2);
}

TEST(CodecCost, ColumnAndCycleArithmetic) {
  const CostModel cost = configure("secded").cost();
  EXPECT_DOUBLE_EQ(cost.parity_overhead(), 0.125);
  // 100 columns -> 2 words of 64 -> 16 parity columns.
  EXPECT_EQ(cost.extra_columns(100), 16);
  EXPECT_EQ(cost.extra_columns(64), 8);
  EXPECT_GT(cost.syndrome_ops_per_word, 0);
  EXPECT_EQ(cost.scrub_cycles(128), 2 * cost.syndrome_ops_per_word);
}

// ---- encode/decode round trips --------------------------------------------

TEST(CodecRoundTrip, CleanCodewordsDecodeClean) {
  for (const char* expr :
       {"hamming(d=8,k=4)", "hamming(d=8,k=5)", "hamming(d=64,k=8)",
        "hsiao(d=8,k=0)", "hsiao(d=64,k=0)", "secded", "bch(d=8,t=2)",
        "bch(d=64,t=2)", "bch(d=64,t=4)"}) {
    const Codec& codec = configure(expr);
    for (unsigned salt : {0u, 1u, 77u}) {
      const BitVec data = test_word(codec.capability().data_bits, salt);
      const DecodeOutcome outcome = codec.decode(codec.encode(data));
      EXPECT_EQ(outcome.status, DecodeStatus::kClean) << expr;
      EXPECT_EQ(outcome.data, data) << expr;
    }
  }
}

TEST(CodecRoundTrip, CorrectRepairsWithinRadius) {
  const Codec& bch = configure("bch(d=8,t=2)");
  const BitVec data = test_word(8, 3);
  const BitVec code = bch.encode(data);
  BitVec corrupted = code;
  corrupted[2] ^= 1;
  corrupted[11] ^= 1;
  EXPECT_EQ(bch.correct(corrupted), code);
}

// ---- exhaustive ground truth ----------------------------------------------

/// Runs an in-memory exhaustive enumeration of `weights` over `expr`.
ExhaustResult exhaust(const std::string& expr, std::vector<int> weights,
                      bool burst = false) {
  ExhaustSpec spec;
  spec.codec_expr = expr;
  spec.weights = std::move(weights);
  spec.burst = burst;
  spec.chunk = 97;  // deliberately straddles weight-block boundaries
  return run_exhaust(spec, "", 0, 1, 2);
}

TEST(Exhaust, ExtendedHammingGroundTruth) {
  // hamming(d=8,k=5) is the (13,8) extended code: every single error is
  // corrected, every double detected -- closed-form C(13,1) and C(13,2).
  const ExhaustResult r = exhaust("hamming(d=8,k=5)", {1, 2});
  ASSERT_EQ(r.per_weight.size(), 2u);
  EXPECT_EQ(r.per_weight[0].placements, 13u);
  EXPECT_EQ(r.per_weight[0].corrected, 13u);
  EXPECT_EQ(r.per_weight[0].aliased, 0u);
  EXPECT_EQ(r.per_weight[1].placements, ncr(13, 2));
  EXPECT_EQ(r.per_weight[1].detected, ncr(13, 2));
  EXPECT_EQ(r.per_weight[1].aliased, 0u);
}

TEST(Exhaust, PlainSecHammingAliasesDoubles) {
  // hamming(d=8,k=4) is the (12,8) SEC code: singles corrected, doubles
  // NOT guaranteed -- every double error lands on some single-error
  // syndrome or another codeword, so none is corrected and the aliased
  // count is the whole C(12,2) minus whatever the out-of-range-syndrome
  // check happens to catch.
  const ExhaustResult r = exhaust("hamming(d=8,k=4)", {1, 2});
  ASSERT_EQ(r.per_weight.size(), 2u);
  EXPECT_EQ(r.per_weight[0].placements, 12u);
  EXPECT_EQ(r.per_weight[0].corrected, 12u);
  EXPECT_EQ(r.per_weight[1].placements, ncr(12, 2));
  EXPECT_EQ(r.per_weight[1].corrected, 0u);
  EXPECT_GT(r.per_weight[1].aliased, 0u);
  EXPECT_EQ(r.per_weight[1].corrected + r.per_weight[1].detected +
                r.per_weight[1].aliased,
            ncr(12, 2));
}

TEST(Exhaust, HsiaoGroundTruth) {
  // hsiao(d=8,k=0) auto-sizes to (13,8); SEC-DED guarantees hold.
  const ExhaustResult r = exhaust("hsiao(d=8,k=0)", {1, 2});
  EXPECT_EQ(r.per_weight[0].corrected, 13u);
  EXPECT_EQ(r.per_weight[1].detected, ncr(13, 2));
  EXPECT_EQ(r.per_weight[1].aliased, 0u);
}

TEST(Exhaust, BchGroundTruthThroughRadius) {
  // bch(d=8,t=2) is (18,8): ALL weight-1 and weight-2 placements must be
  // corrected; weight-3 exceeds the radius and must never be silently
  // miscorrected more often than detected-or-corrected sums allow.
  const ExhaustResult r = exhaust("bch(d=8,t=2)", {1, 2, 3});
  ASSERT_EQ(r.per_weight.size(), 3u);
  EXPECT_EQ(r.per_weight[0].placements, 18u);
  EXPECT_EQ(r.per_weight[0].corrected, 18u);
  EXPECT_EQ(r.per_weight[1].placements, ncr(18, 2));
  EXPECT_EQ(r.per_weight[1].corrected, ncr(18, 2));
  EXPECT_EQ(r.per_weight[1].aliased, 0u);
  EXPECT_EQ(r.per_weight[2].placements, ncr(18, 3));
  EXPECT_EQ(r.per_weight[2].corrected + r.per_weight[2].detected +
                r.per_weight[2].aliased,
            ncr(18, 3));
  // A t=2 code cannot correct any weight-3 pattern back to the original.
  EXPECT_EQ(r.per_weight[2].corrected, 0u);
}

TEST(Exhaust, SecdedPluginMatchesGenericHamming) {
  // secded is the extended hamming(d=64,k=8) code under its own name, so
  // every one of the 72 + C(72,2) placements must classify identically.
  const ExhaustResult secded = exhaust("secded", {1, 2});
  const ExhaustResult generic = exhaust("hamming(d=64,k=8)", {1, 2});
  ASSERT_EQ(secded.per_weight.size(), generic.per_weight.size());
  for (std::size_t i = 0; i < secded.per_weight.size(); ++i) {
    EXPECT_EQ(secded.per_weight[i].corrected, generic.per_weight[i].corrected);
    EXPECT_EQ(secded.per_weight[i].detected, generic.per_weight[i].detected);
    EXPECT_EQ(secded.per_weight[i].aliased, generic.per_weight[i].aliased);
  }
  EXPECT_EQ(secded.per_weight[0].corrected, 72u);
  EXPECT_EQ(secded.per_weight[1].detected, ncr(72, 2));
}

TEST(Exhaust, SecdedPlacementsMatchPinnedChecksum) {
  // FNV-1a over secded's decoded data bits and verdict for every weight-1
  // and weight-2 placement of one fixed word, in lexicographic order.
  const Codec& secded = configure("secded");
  const BitVec data = test_word(64, 9);
  std::string digest;
  const auto record = [&](const std::vector<int>& flips) {
    const DecodeOutcome outcome = decode_with_flips(secded, data, flips);
    digest.append(outcome.data.begin(), outcome.data.end());
    digest.push_back(static_cast<char>(outcome.status));
  };
  for (int a = 0; a < 72; ++a) record({a});
  for (int a = 0; a < 72; ++a) {
    for (int b = a + 1; b < 72; ++b) record({a, b});
  }
  ASSERT_EQ(digest.size(), (72u + ncr(72, 2)) * 65u);
  const std::uint64_t observed = core::fnv1a64(digest);
  EXPECT_EQ(observed, 0x7e284baf330c947dull)
      << "observed checksum 0x" << core::hash_hex(observed);
}

struct PinnedTally {
  std::uint64_t placements;
  std::uint64_t corrected;
  std::uint64_t detected;
  std::uint64_t aliased;
};

TEST(Exhaust, TalliesMatchPinnedValuesPerFamily) {
  // Exhaustive weight-1..3 tallies of one small code per family, pinned
  // as constants: any change to a decoder or to the enumeration shows here.
  const std::vector<std::pair<std::string, std::vector<PinnedTally>>> pinned{
      {"hamming(d=8)", {{13, 13, 0, 0}, {78, 0, 78, 0}, {286, 0, 66, 220}}},
      {"hsiao(d=8)", {{13, 13, 0, 0}, {78, 0, 78, 0}, {286, 0, 66, 220}}},
      {"bch(d=16,t=2)",
       {{26, 26, 0, 0}, {325, 325, 0, 0}, {2600, 0, 1880, 720}}},
      {"secded",
       {{72, 72, 0, 0}, {2556, 0, 2556, 0}, {59640, 0, 14336, 45304}}},
  };
  for (const auto& [expr, tallies] : pinned) {
    const ExhaustResult r = exhaust(expr, {1, 2, 3});
    ASSERT_EQ(r.per_weight.size(), tallies.size()) << expr;
    for (std::size_t i = 0; i < tallies.size(); ++i) {
      const WeightCounts& got = r.per_weight[i];
      EXPECT_EQ(got.weight, static_cast<int>(i) + 1) << expr;
      EXPECT_EQ(got.placements, tallies[i].placements) << expr << " w" << i + 1;
      EXPECT_EQ(got.corrected, tallies[i].corrected) << expr << " w" << i + 1;
      EXPECT_EQ(got.detected, tallies[i].detected) << expr << " w" << i + 1;
      EXPECT_EQ(got.aliased, tallies[i].aliased) << expr << " w" << i + 1;
    }
  }
}

TEST(Exhaust, BurstModeEnumeratesWindows) {
  // (13,8) extended Hamming, burst length 2: 12 windows, every adjacent
  // double detected.
  const ExhaustResult r = exhaust("hamming(d=8,k=5)", {2}, /*burst=*/true);
  ASSERT_EQ(r.per_weight.size(), 1u);
  EXPECT_EQ(r.per_weight[0].placements, 12u);
  EXPECT_EQ(r.per_weight[0].detected, 12u);

  // bch t=2 corrects every length-2 burst.
  const ExhaustResult b = exhaust("bch(d=8,t=2)", {2}, /*burst=*/true);
  EXPECT_EQ(b.per_weight[0].placements, 17u);
  EXPECT_EQ(b.per_weight[0].corrected, 17u);
}

// ---- combinatorics --------------------------------------------------------

TEST(Unranking, CoversEveryCombinationExactlyOnce) {
  const int n = 11;
  const int r = 3;
  const std::uint64_t total = ncr(n, r);
  EXPECT_EQ(total, 165u);
  std::set<std::vector<int>> seen;
  std::vector<int> prev;
  for (std::uint64_t rank = 0; rank < total; ++rank) {
    std::vector<int> combo = unrank_combination(n, r, rank);
    ASSERT_EQ(combo.size(), 3u);
    EXPECT_TRUE(combo[0] < combo[1] && combo[1] < combo[2]);
    EXPECT_LT(combo[2], n);
    if (!prev.empty()) {
      EXPECT_LT(prev, combo);  // lexicographic order
    }
    EXPECT_TRUE(seen.insert(combo).second);
    prev = std::move(combo);
  }
  EXPECT_EQ(seen.size(), total);
  EXPECT_THROW(unrank_combination(n, r, total), std::invalid_argument);
}

TEST(Unranking, NcrEdgeCasesAndOverflow) {
  EXPECT_EQ(ncr(5, 0), 1u);
  EXPECT_EQ(ncr(5, 5), 1u);
  EXPECT_EQ(ncr(5, 6), 0u);
  EXPECT_EQ(ncr(72, 2), 2556u);
  EXPECT_THROW(ncr(200, 100), std::invalid_argument);
}

TEST(Exhaust, NormalizeSortsAndValidatesWeights) {
  ExhaustSpec spec;
  spec.codec_expr = "hamming( k=5, d=8 )";
  spec.weights = {2, 1, 2};
  const ExhaustSpec norm = normalize_exhaust_spec(spec);
  EXPECT_EQ(norm.codec_expr, "hamming(d=8,k=5)");
  EXPECT_EQ(norm.weights, (std::vector<int>{1, 2}));

  spec.weights = {0};
  EXPECT_THROW(normalize_exhaust_spec(spec), std::invalid_argument);
  spec.weights = {14};  // (13,8) has only 13 code bits
  EXPECT_THROW(normalize_exhaust_spec(spec), std::invalid_argument);
}

// ---- durable store: resume, shard, merge ----------------------------------

class ExhaustStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("flim_ecc_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  static std::string read_bytes(const std::string& file) {
    std::ifstream in(file, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  static void write_bytes(const std::string& file, const std::string& bytes) {
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out << bytes;
  }

  static ExhaustSpec small_spec() {
    ExhaustSpec spec;
    spec.codec_expr = "hamming(d=8,k=5)";
    spec.weights = {1, 2};
    spec.chunk = 7;  // 13 + 78 = 91 placements -> 13 chunks
    return spec;
  }

  std::filesystem::path dir_;
};

TEST_F(ExhaustStoreTest, ShardedMergeMatchesSingleProcessByteForByte) {
  const ExhaustSpec spec = small_spec();
  const ExhaustResult single = run_exhaust(spec, path("single.jsonl"), 0, 1, 2);
  run_exhaust(spec, path("shard0.jsonl"), 0, 2, 2);
  run_exhaust(spec, path("shard1.jsonl"), 1, 2, 1);
  const ExhaustResult merged =
      merge_exhaust_files({path("shard0.jsonl"), path("shard1.jsonl")});
  EXPECT_EQ(merged.to_table().to_csv(), single.to_table().to_csv());
  EXPECT_EQ(single.per_weight[0].corrected, 13u);
  EXPECT_EQ(single.per_weight[1].detected, 78u);

  // A lone complete file merges too.
  const ExhaustResult alone = merge_exhaust_files({path("single.jsonl")});
  EXPECT_EQ(alone.to_table().to_csv(), single.to_table().to_csv());
}

TEST_F(ExhaustStoreTest, PooledStoreEqualsSerialStoreByteForByte) {
  // Chunks finish out of order on a pool; the store still lists them in
  // chunk order, for a whole run and for each shard.
  ExhaustSpec spec = small_spec();
  spec.chunk = 3;  // 31 chunks, so four workers finish out of order
  run_exhaust(spec, path("serial.jsonl"), 0, 1, 1);
  run_exhaust(spec, path("pooled.jsonl"), 0, 1, 4);
  EXPECT_EQ(read_bytes(path("pooled.jsonl")), read_bytes(path("serial.jsonl")));
  run_exhaust(spec, path("serial_s1.jsonl"), 1, 2, 1);
  run_exhaust(spec, path("pooled_s1.jsonl"), 1, 2, 4);
  EXPECT_EQ(read_bytes(path("pooled_s1.jsonl")),
            read_bytes(path("serial_s1.jsonl")));
}

TEST_F(ExhaustStoreTest, WriterBytesMatchPinnedLines) {
  // The exhaust-store format is pinned byte for byte, like the run file's:
  // a resume reads what an earlier build wrote.
  ExhaustHeader header;
  header.codec = "hamming(d=8)";
  header.fingerprint = "fedcba9876543210";
  header.library_version = "flim-test";
  header.data_seed = 18446744073709551615u;  // 2^64 - 1
  header.burst = true;
  header.chunk = 64;
  header.weights = {1, 2};
  header.code_bits = 13;
  header.total_chunks = 4;
  header.total_placements = 200;
  header.shard_index = 1;
  header.shard_count = 2;

  ChunkCounts first;
  first.chunk_index = 1;
  first.counts = {{1, 13, 13, 0, 0}};
  ChunkCounts second;
  second.chunk_index = 3;
  second.counts = {{1, 5, 5, 0, 0}, {2, 59, 0, 58, 1}};

  {
    ExhaustStoreWriter writer(path("pinned.jsonl"), header);
    writer.append(first);
    writer.append(second);
  }
  const std::string expected =
      R"j({"flim_exhaust_format": 1, "codec": "hamming(d=8)", )j"
      R"("fingerprint": "fedcba9876543210", "library_version": "flim-test", )"
      R"("data_seed": "18446744073709551615", "mode": "burst", )"
      R"("chunk": "64", "weights": [1, 2], "code_bits": 13, )"
      R"("total_chunks": "4", "total_placements": "200", )"
      R"("shard_index": 1, "shard_count": 2})"
      "\n"
      R"({"chunk": "1", "counts": [1, 13, 13, 0, 0]})"
      "\n"
      R"({"chunk": "3", "counts": [1, 5, 5, 0, 0, 2, 59, 0, 58, 1]})"
      "\n";
  EXPECT_EQ(read_bytes(path("pinned.jsonl")), expected);

  const ExhaustFile file = ExhaustFile::load(path("pinned.jsonl"));
  EXPECT_EQ(file.header.format, kExhaustFormatVersion);
  EXPECT_EQ(file.header.codec, header.codec);
  EXPECT_EQ(file.header.fingerprint, header.fingerprint);
  EXPECT_EQ(file.header.library_version, header.library_version);
  EXPECT_EQ(file.header.data_seed, header.data_seed);
  EXPECT_EQ(file.header.burst, header.burst);
  EXPECT_EQ(file.header.chunk, header.chunk);
  EXPECT_EQ(file.header.weights, header.weights);
  EXPECT_EQ(file.header.code_bits, header.code_bits);
  EXPECT_EQ(file.header.total_chunks, header.total_chunks);
  EXPECT_EQ(file.header.total_placements, header.total_placements);
  EXPECT_EQ(file.header.shard_index, header.shard_index);
  EXPECT_EQ(file.header.shard_count, header.shard_count);
  ASSERT_EQ(file.chunks.size(), 2u);
  const ChunkCounts* written[] = {&first, &second};
  for (std::size_t i = 0; i < 2; ++i) {
    const ChunkCounts& loaded = file.chunks[i];
    const ChunkCounts& expect = *written[i];
    EXPECT_EQ(loaded.chunk_index, expect.chunk_index);
    ASSERT_EQ(loaded.counts.size(), expect.counts.size());
    for (std::size_t w = 0; w < expect.counts.size(); ++w) {
      EXPECT_EQ(loaded.counts[w].weight, expect.counts[w].weight);
      EXPECT_EQ(loaded.counts[w].placements, expect.counts[w].placements);
      EXPECT_EQ(loaded.counts[w].corrected, expect.counts[w].corrected);
      EXPECT_EQ(loaded.counts[w].detected, expect.counts[w].detected);
      EXPECT_EQ(loaded.counts[w].aliased, expect.counts[w].aliased);
    }
  }
  EXPECT_EQ(file.valid_prefix_bytes, expected.size());
  EXPECT_FALSE(file.truncated_tail);
  EXPECT_EQ(file.owned_chunks(), 2u);
  EXPECT_TRUE(file.complete());
}

TEST_F(ExhaustStoreTest, MergeRejectsIncompleteShardSets) {
  const ExhaustSpec spec = small_spec();
  run_exhaust(spec, path("shard0.jsonl"), 0, 2, 1);
  EXPECT_THROW(merge_exhaust_files({path("shard0.jsonl")}),
               std::invalid_argument);
}

TEST_F(ExhaustStoreTest, MergeRejectsMalformedNumbers) {
  // One-chunk hamming(d=8) store; each copy replaces the chunk line (or
  // a header field) by hand. Tallies are (weight, placements, corrected,
  // detected, aliased) groups.
  ExhaustSpec spec;
  spec.codec_expr = "hamming(d=8)";
  spec.weights = {1, 2};
  run_exhaust(spec, path("clean.jsonl"), 0, 1, 1);
  std::ifstream in(path("clean.jsonl"), std::ios::binary);
  std::string header;
  std::getline(in, header);
  in.close();

  const auto write = [&](const std::string& name, const std::string& head,
                         const std::string& chunk) {
    std::ofstream out(path(name), std::ios::binary | std::ios::trunc);
    out << head << "\n" << chunk << "\n";
    return path(name);
  };
  const std::string good =
      R"({"chunk": "0", "counts": [1, 13, 13, 0, 0, 2, 78, 0, 78, 0]})";
  EXPECT_EQ(merge_exhaust_files({write("good.jsonl", header, good)})
                .per_weight[1]
                .detected,
            78u);

  for (const char* chunk : {
           // detected = 1e30
           R"({"chunk": "0", "counts": [1, 13, 13, 0, 0, 2, 78, 0, 1e30, 0]})",
           // corrected = -5
           R"({"chunk": "0", "counts": [1, 13, -5, 0, 0, 2, 78, 0, 78, 0]})",
           // weight = 2.9
           R"({"chunk": "0", "counts": [1, 13, 13, 0, 0, 2.9, 78, 0, 78, 0]})",
           // a tally of 16.5
           R"({"chunk": "0", "counts": [1, 13, 13, 0, 0, 2, 78, 0, 16.5, 0]})",
           // a chunk index that is not all digits
           R"({"chunk": "0x", "counts": [1, 13, 13, 0, 0, 2, 78, 0, 78, 0]})",
       }) {
    EXPECT_THROW(merge_exhaust_files({write("bad.jsonl", header, chunk)}),
                 std::invalid_argument)
        << chunk;
  }

  const auto with = [&](const std::string& from, const std::string& to) {
    std::string edited = header;
    const std::size_t at = edited.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos) edited.replace(at, from.size(), to);
    return edited;
  };
  for (const std::string& head : {
           with(R"("data_seed": "2023")", R"("data_seed": "-2023")"),
           with(R"("total_chunks": "1")", R"("total_chunks": "1x")"),
           with(R"("total_placements": "91")",
                R"("total_placements": "99999999999999999999")"),
           with(R"("code_bits": 13)", R"("code_bits": 13.5)"),
           with(R"("shard_count": 1)", R"("shard_count": 1e30)"),
           // a shard identity outside [0, shard_count)
           with(R"("shard_count": 1)", R"("shard_count": 0)"),
           with(R"("shard_index": 0)", R"("shard_index": 7)"),
           with(R"("weights": [1, 2])", R"("weights": [1, 2.5])"),
           // well-formed numbers the spec cannot hold
           with(R"("chunk": "4096")", R"("chunk": "0")"),
           with(R"("weights": [1, 2])", R"("weights": [1, 99])"),
       }) {
    EXPECT_THROW(merge_exhaust_files({write("bad_header.jsonl", head, good)}),
                 std::invalid_argument)
        << head;
  }
}

TEST_F(ExhaustStoreTest, ResumesFromTornTail) {
  const ExhaustSpec spec = small_spec();
  const ExhaustResult fresh = run_exhaust(spec, path("run.jsonl"), 0, 1, 1);

  // Simulate a kill mid-write: drop the last line and leave a torn
  // fragment. The next run must resume, recompute only what is missing,
  // and produce identical results.
  std::ifstream in(path("run.jsonl"), std::ios::binary);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  in.close();
  ASSERT_GT(lines.size(), 3u);
  std::ofstream out(path("run.jsonl"), std::ios::binary | std::ios::trunc);
  for (std::size_t i = 0; i + 1 < lines.size(); ++i) out << lines[i] << "\n";
  out << "{\"chunk\": \"torn";  // no newline: a torn final write
  out.close();

  const ExhaustFile before = ExhaustFile::load(path("run.jsonl"));
  EXPECT_TRUE(before.truncated_tail);
  EXPECT_FALSE(before.complete());

  const ExhaustResult resumed = run_exhaust(spec, path("run.jsonl"), 0, 1, 1);
  EXPECT_EQ(resumed.to_table().to_csv(), fresh.to_table().to_csv());
  EXPECT_TRUE(ExhaustFile::load(path("run.jsonl")).complete());
}

TEST_F(ExhaustStoreTest, TornHeaderIsAFreshStart) {
  // A kill between creating the store and durably writing its header
  // leaves an empty file or a newline-less prefix of the header; the rerun
  // starts fresh, exactly like a campaign run file.
  const ExhaustSpec spec = small_spec();
  const std::string fresh_csv =
      run_exhaust(spec, path("fresh.jsonl"), 0, 1, 1).to_table().to_csv();
  const std::string fresh_bytes = read_bytes(path("fresh.jsonl"));
  for (const std::string& residue :
       {std::string(), std::string("{\"flim_exhaust_fo")}) {
    write_bytes(path("torn.jsonl"), residue);
    EXPECT_EQ(run_exhaust(spec, path("torn.jsonl"), 0, 1, 1)
                  .to_table()
                  .to_csv(),
              fresh_csv)
        << residue;
    EXPECT_EQ(read_bytes(path("torn.jsonl")), fresh_bytes) << residue;
  }
  // Anything else is some other file: refused and left untouched.
  write_bytes(path("foreign.jsonl"), "hello");
  EXPECT_THROW(run_exhaust(spec, path("foreign.jsonl"), 0, 1, 1),
               std::invalid_argument);
  EXPECT_EQ(read_bytes(path("foreign.jsonl")), "hello");
}

TEST_F(ExhaustStoreTest, RefusesForeignStores) {
  const ExhaustSpec spec = small_spec();
  run_exhaust(spec, path("run.jsonl"), 0, 1, 1);

  ExhaustSpec other = spec;
  other.data_seed += 1;  // different placement data -> different fingerprint
  EXPECT_THROW(run_exhaust(other, path("run.jsonl"), 0, 1, 1),
               std::invalid_argument);
  // Same spec, different shard identity: also refused.
  EXPECT_THROW(run_exhaust(spec, path("run.jsonl"), 0, 2, 1),
               std::invalid_argument);
}

TEST_F(ExhaustStoreTest, FingerprintIgnoresSpelling) {
  ExhaustSpec a = small_spec();
  ExhaustSpec b = small_spec();
  b.codec_expr = "hamming( k=5 ,d=8)";
  b.weights = {2, 1};
  EXPECT_EQ(exhaust_fingerprint(normalize_exhaust_spec(a)),
            exhaust_fingerprint(normalize_exhaust_spec(b)));
}

// ---- codec-radius residual application ------------------------------------

TEST(Residual, RadiusTwoClearsDoubleFaultWords) {
  fault::FaultMask mask(1, 8);
  mask.set_flip(0, true);
  mask.set_sa0(3, true);  // two faults in the single 8-cell word
  fault::ResidualOptions options;
  options.word_bits = 8;
  options.interleave = 1;

  options.correct_per_word = 1;
  fault::ResidualStats stats;
  fault::FaultMask residual1 =
      fault::apply_word_residual(mask, options, &stats);
  EXPECT_TRUE(residual1.any());
  EXPECT_EQ(stats.uncorrectable_words, 1);

  options.correct_per_word = 2;
  fault::FaultMask residual2 =
      fault::apply_word_residual(mask, options, &stats);
  EXPECT_FALSE(residual2.any());
  EXPECT_EQ(stats.corrected_words, 1);
  EXPECT_EQ(stats.faulty_bits_after, 0);
}

TEST(Residual, RadiusOneScrubMatchesHandPlacedPlanes) {
  // 2x8 grid, 4-cell words, interleave 2: each row holds an even-column
  // word and an odd-column word.
  //   row 0 even {0,2,4,6}:      clean
  //   row 0 odd  {1,3,5,7}:      flip@1 + sa1@3   -> kept
  //   row 1 even {8,10,12,14}:   sa0@10 + flip@12 -> kept
  //   row 1 odd  {9,11,13,15}:   sa1@9            -> corrected
  fault::FaultMask mask(2, 8);
  mask.set_flip(1, true);
  mask.set_sa1(3, true);
  mask.set_sa1(9, true);
  mask.set_sa0(10, true);
  mask.set_flip(12, true);

  fault::ResidualOptions options;
  options.word_bits = 4;
  options.interleave = 2;
  options.correct_per_word = 1;
  fault::ResidualStats stats;
  const fault::FaultMask residual =
      fault::apply_word_residual(mask, options, &stats);

  fault::FaultMask expected(2, 8);
  expected.set_flip(1, true);
  expected.set_sa1(3, true);
  expected.set_sa0(10, true);
  expected.set_flip(12, true);
  EXPECT_EQ(residual, expected);
  EXPECT_EQ(stats.words, 4);
  EXPECT_EQ(stats.clean_words, 1);
  EXPECT_EQ(stats.corrected_words, 1);
  EXPECT_EQ(stats.uncorrectable_words, 2);
  EXPECT_EQ(stats.faulty_bits_before, 5);
  EXPECT_EQ(stats.faulty_bits_after, 4);
}

TEST(Residual, EntryResidualScrubsUnionOfComponents) {
  // Two components each place ONE fault in the same 4-cell word: the
  // physical word holds two faults, so a radius-1 scrub must keep both,
  // while a radius-2 scrub clears both components.
  fault::FaultVectorEntry entry;
  entry.layer_name = "fc1";
  entry.components.resize(2);
  entry.components[0].model = "stuckat";
  entry.components[0].mask = fault::FaultMask(1, 4);
  entry.components[0].mask.set_sa0(1, true);
  entry.components[1].model = "bitflip";
  entry.components[1].mask = fault::FaultMask(1, 4);
  entry.components[1].mask.set_flip(2, true);

  fault::ResidualOptions options;
  options.word_bits = 4;
  options.correct_per_word = 1;
  fault::FaultVectorEntry radius1 = entry;
  fault::ResidualStats stats;
  fault::apply_entry_residual(radius1, options, &stats);
  EXPECT_TRUE(radius1.components[0].mask.any());
  EXPECT_TRUE(radius1.components[1].mask.any());
  EXPECT_EQ(stats.uncorrectable_words, 1);

  options.correct_per_word = 2;
  fault::FaultVectorEntry radius2 = entry;
  fault::apply_entry_residual(radius2, options, &stats);
  EXPECT_FALSE(radius2.components[0].mask.any());
  EXPECT_FALSE(radius2.components[1].mask.any());
  EXPECT_EQ(stats.corrected_words, 1);
}

}  // namespace
}  // namespace flim::reliability::ecc
