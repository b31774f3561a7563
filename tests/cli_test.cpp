// Tests for the flim_cli argument parser and the file-level commands.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "cli/args.hpp"
#include "cli/commands.hpp"
#include "fault/fault_vector_file.hpp"

namespace flim::cli {
namespace {

Args parse(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv{"flim_cli"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  return Args::parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Args, ParsesCommandAndFlags) {
  const Args args = parse({"generate", "--rate", "0.1", "--verbose",
                           "--layers", "a,b"});
  EXPECT_EQ(args.command(), "generate");
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0.0), 0.1);
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_FALSE(args.has("missing"));
  EXPECT_EQ(args.get_list("layers"), (std::vector<std::string>{"a", "b"}));
}

TEST(Args, EmptyCommandLine) {
  const Args args = parse({});
  EXPECT_TRUE(args.command().empty());
}

TEST(Args, TypedAccessorsValidate) {
  const Args args = parse({"x", "--n", "12", "--bad", "abc"});
  EXPECT_EQ(args.get_int("n", 0), 12);
  EXPECT_EQ(args.get_int("absent", 7), 7);
  EXPECT_THROW(args.get_int("bad", 0), std::exception);
}

TEST(Args, DoubleListParsing) {
  const Args args = parse({"x", "--rates", "0,0.05,0.1"});
  const auto rates = args.get_double_list("rates");
  ASSERT_EQ(rates.size(), 3u);
  EXPECT_DOUBLE_EQ(rates[1], 0.05);
}

TEST(Args, RejectsDuplicatesAndUnknown) {
  EXPECT_THROW(parse({"x", "--a", "1", "--a", "2"}), std::invalid_argument);
  const Args args = parse({"x", "--known", "1"});
  EXPECT_THROW(args.require_known({"other"}), std::invalid_argument);
  args.require_known({"known"});
}

TEST(Args, PositionalsPrecedeFlags) {
  const Args args = parse({"campaign", "status", "a.jsonl", "--known", "1"});
  EXPECT_EQ(args.command(), "campaign");
  EXPECT_EQ(args.positionals(),
            (std::vector<std::string>{"status", "a.jsonl"}));
  // Bare tokens after flags began can only be mistyped flags.
  EXPECT_THROW(parse({"x", "--a", "1", "stray", "extra"}),
               std::invalid_argument);
  // Commands that take no positionals keep rejecting them at require_known.
  EXPECT_THROW(args.require_known({"known"}), std::invalid_argument);
  args.require_known({"known"}, 2);
  EXPECT_THROW(args.require_known({"known"}, 1), std::invalid_argument);
}

TEST(Cli, CampaignRejectsReferenceEngine) {
  // --engine reference would run a "fault sweep" that injects nothing;
  // rejected before any model training happens.
  EXPECT_THROW(run(parse({"campaign", "--engine", "reference"})),
               std::invalid_argument);
  EXPECT_THROW(run(parse({"campaign", "--engine", "warp9"})),
               std::invalid_argument);
}

TEST(Cli, EvaluateRejectsReferenceEngine) {
  EXPECT_THROW(run(parse({"evaluate", "--vectors", "x.fvc", "--engine",
                          "reference"})),
               std::invalid_argument);
}

TEST(Cli, UnknownCommandFails) {
  EXPECT_EQ(run(parse({"frobnicate"})), 1);
  EXPECT_EQ(run(parse({"help"})), 0);
}

TEST(Cli, CampaignValidatesStoreFlags) {
  // --shard without --store would evaluate a slice nobody can merge.
  EXPECT_THROW(run(parse({"campaign", "--shard", "0/2"})),
               std::invalid_argument);
  // Malformed shard syntax and out-of-range indices fail loudly.
  EXPECT_THROW(run(parse({"campaign", "--shard", "2", "--store", "/tmp/x"})),
               std::invalid_argument);
  EXPECT_THROW(run(parse({"campaign", "--shard", "3/2", "--store",
                          "/tmp/x"})),
               std::invalid_argument);
  // Trailing garbage must not silently run the wrong partition.
  EXPECT_THROW(run(parse({"campaign", "--shard", "1/2x", "--store",
                          "/tmp/x"})),
               std::invalid_argument);
  EXPECT_THROW(run(parse({"campaign", "--shard", "1/2/4", "--store",
                          "/tmp/x"})),
               std::invalid_argument);
  EXPECT_THROW(run(parse({"campaign", "--shard", "/2", "--store",
                          "/tmp/x"})),
               std::invalid_argument);
}

TEST(Cli, MergeValidatesInput) {
  EXPECT_THROW(cmd_merge(parse({"merge"})), std::invalid_argument);
  EXPECT_THROW(cmd_merge(parse({"merge", "--inputs",
                                "/nonexistent/a.run.jsonl"})),
               std::exception);
}

TEST(Cli, ShardedCampaignMergeMatchesSingleRunCsv) {
  // End-to-end acceptance path: two shard processes + merge reproduce the
  // single-process CSV byte for byte. Tiny scale: 1-epoch LeNet, 8 images.
  const std::string dir = ::testing::TempDir() + "/cli_store";
  std::filesystem::create_directories(dir);
  const std::string weights = dir + "/weights";
  auto campaign = [&](std::initializer_list<const char*> extra) {
    std::vector<const char*> argv{
        "flim_cli", "campaign", "--model",   "lenet",           "--kind",
        "bitflip",  "--rates",  "0,0.2",     "--reps",          "2",
        "--epochs", "1",        "--samples", "32",              "--images",
        "8",        "--weights-dir",         weights.c_str()};
    argv.insert(argv.end(), extra.begin(), extra.end());
    return Args::parse(static_cast<int>(argv.size()), argv.data());
  };

  const std::string single_csv = dir + "/single.csv";
  const std::string s0 = dir + "/s0.run.jsonl";
  const std::string s1 = dir + "/s1.run.jsonl";
  const std::string merged_csv = dir + "/merged.csv";
  ASSERT_EQ(cmd_campaign(campaign({"--csv", single_csv.c_str()})), 0);
  ASSERT_EQ(cmd_campaign(campaign({"--shard", "0/2", "--store",
                                   s0.c_str()})),
            0);
  ASSERT_EQ(cmd_campaign(campaign({"--shard", "1/2", "--store",
                                   s1.c_str()})),
            0);
  const std::string inputs = s0 + "," + s1;
  ASSERT_EQ(cmd_merge(parse({"merge", "--inputs", inputs.c_str(), "--csv",
                             merged_csv.c_str()})),
            0);

  auto read = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };
  ASSERT_FALSE(read(single_csv).empty());
  EXPECT_EQ(read(single_csv), read(merged_csv));

  // Resuming the (complete) shard-0 file evaluates nothing and leaves the
  // run file untouched.
  const std::string before = read(s0);
  ASSERT_EQ(cmd_campaign(campaign({"--shard", "0/2", "--resume",
                                   s0.c_str()})),
            0);
  EXPECT_EQ(read(s0), before);

  // --store alone resumes in place (rerunning the command after a kill must
  // never truncate the checkpoint)...
  ASSERT_EQ(cmd_campaign(campaign({"--shard", "0/2", "--store",
                                   s0.c_str()})),
            0);
  EXPECT_EQ(read(s0), before);
  // ...and a different spec pointed at the same file refuses to clobber it.
  EXPECT_THROW(cmd_campaign(campaign({"--seed", "7", "--shard", "0/2",
                                      "--store", s0.c_str()})),
               std::invalid_argument);
  EXPECT_EQ(read(s0), before);
  std::filesystem::remove_all(dir);
}

TEST(Cli, GenerateAndInspectRoundTrip) {
  const std::string path = ::testing::TempDir() + "/cli_vectors.bin";
  const std::string grid = "8x8";
  std::vector<const char*> argv{
      "flim_cli", "generate", "--out",  path.c_str(), "--layers",
      "conv1,conv2", "--kind", "stuckat", "--rate", "0.25",
      "--grid", grid.c_str(), "--seed", "9"};
  const Args gen_args =
      Args::parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(cmd_generate(gen_args), 0);

  const fault::FaultVectorFile file = fault::FaultVectorFile::load(path);
  EXPECT_EQ(file.size(), 2u);
  ASSERT_NE(file.find("conv1"), nullptr);
  ASSERT_EQ(file.find("conv1")->components.size(), 1u);
  const fault::FaultMask& mask = file.find("conv1")->components[0].mask;
  EXPECT_EQ(mask.count_sa0() + mask.count_sa1(), 16);  // 25% of 64

  std::vector<const char*> inspect{"flim_cli", "inspect", "--file",
                                   path.c_str()};
  EXPECT_EQ(cmd_inspect(Args::parse(4, inspect.data())), 0);
  std::filesystem::remove(path);
}

// The single-kind flags are sugar for the one-model stack they lower to:
// both spellings write the same file, byte for byte.
TEST(Cli, SingleKindFlagsWriteTheSameFileAsTheirExpression) {
  const std::string flags_path = ::testing::TempDir() + "/cli_sugar_flags.bin";
  const std::string expr_path = ::testing::TempDir() + "/cli_sugar_expr.bin";
  ASSERT_EQ(cmd_generate(parse({"generate", "--out", flags_path.c_str(),
                                "--layers", "conv1,dense0", "--kind",
                                "stuckat", "--rate", "0.05", "--sa1-fraction",
                                "0.7", "--seed", "5"})),
            0);
  ASSERT_EQ(cmd_generate(parse({"generate", "--out", expr_path.c_str(),
                                "--layers", "conv1,dense0", "--fault",
                                "stuckat(rate=0.05,sa1=0.7,rows=0,cols=0)",
                                "--seed", "5"})),
            0);
  const auto slurp = [](const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  };
  const std::string bytes = slurp(flags_path);
  EXPECT_FALSE(bytes.empty());
  EXPECT_EQ(bytes, slurp(expr_path));
  std::filesystem::remove(flags_path);
  std::filesystem::remove(expr_path);
}

TEST(Cli, FaultsListsDescribesAndValidatesExpressions) {
  EXPECT_EQ(cmd_faults(parse({"faults"})), 0);
  EXPECT_EQ(cmd_faults(parse({"faults", "--describe", "drift"})), 0);
  EXPECT_EQ(cmd_faults(parse({"faults", "--expr",
                              "stuckat(rate=5e-4,sa1=0.7)+drift(tau=2000)"})),
            0);
  EXPECT_THROW(cmd_faults(parse({"faults", "--describe", "bogus"})),
               std::invalid_argument);
  EXPECT_THROW(cmd_faults(parse({"faults", "--expr", "bitflip(rate=9)"})),
               std::invalid_argument);
  EXPECT_THROW(cmd_faults(parse({"faults", "--unknown-flag", "1"})),
               std::invalid_argument);
}

TEST(Cli, GenerateWithFaultExpressionWritesComponentEntries) {
  const std::string path = ::testing::TempDir() + "/cli_expr_vectors.bin";
  std::vector<const char*> argv{
      "flim_cli", "generate", "--out", path.c_str(), "--layers",
      "conv1,dense0", "--fault", "stuckat(rate=0.25,sa1=1)+coupling(rate=0.1)",
      "--grid", "8x8", "--seed", "3"};
  EXPECT_EQ(cmd_generate(
                Args::parse(static_cast<int>(argv.size()), argv.data())),
            0);
  const fault::FaultVectorFile file = fault::FaultVectorFile::load(path);
  EXPECT_EQ(file.size(), 2u);
  ASSERT_NE(file.find("conv1"), nullptr);
  ASSERT_EQ(file.find("conv1")->components.size(), 2u);
  EXPECT_EQ(file.find("conv1")->components[0].mask.count_sa1(), 16);
  EXPECT_EQ(file.find("conv1")->describe(),
            "stuckat(rate=0.25,sa1=1)+coupling(rate=0.1)");
  // The summary table renders component entries too.
  std::vector<const char*> inspect{"flim_cli", "inspect", "--file",
                                   path.c_str()};
  EXPECT_EQ(cmd_inspect(Args::parse(4, inspect.data())), 0);
  std::filesystem::remove(path);

  // --fault conflicts with every legacy single-kind flag (silently
  // ignoring them would write masks that contradict the command line).
  EXPECT_THROW(cmd_generate(parse({"generate", "--out", "/tmp/x", "--layers",
                                   "a", "--fault", "bitflip", "--kind",
                                   "stuckat"})),
               std::invalid_argument);
  EXPECT_THROW(cmd_generate(parse({"generate", "--out", "/tmp/x", "--layers",
                                   "a", "--fault", "bitflip(rate=0.05)",
                                   "--faulty-rows", "4"})),
               std::invalid_argument);
  EXPECT_THROW(cmd_generate(parse({"generate", "--out", "/tmp/x", "--layers",
                                   "a", "--fault", "dynamic(rate=0.05)",
                                   "--period", "4"})),
               std::invalid_argument);
}

TEST(Cli, CampaignValidatesFaultExpressionFlags) {
  // Bad expressions fail before any training.
  EXPECT_THROW(run(parse({"campaign", "--fault", "warpcore(rate=0.1)"})),
               std::invalid_argument);
  // --fault and --kind are mutually exclusive.
  EXPECT_THROW(run(parse({"campaign", "--fault", "bitflip(rate=0.1)",
                          "--kind", "bitflip"})),
               std::invalid_argument);
  // Explicit --rates without a '@' placeholder is a likely mistake.
  EXPECT_THROW(run(parse({"campaign", "--fault", "bitflip(rate=0.1)",
                          "--rates", "0,0.1"})),
               std::invalid_argument);
  // Unsupported granularity/backend combinations fail at validation.
  EXPECT_THROW(run(parse({"campaign", "--fault", "drift(rate=0.1)",
                          "--granularity", "term"})),
               std::invalid_argument);
  EXPECT_THROW(run(parse({"campaign", "--fault", "readdisturb(rate=0.1)",
                          "--engine", "device"})),
               std::invalid_argument);
}

TEST(Cli, ExpressionCampaignStoreAndResumeRoundTrip) {
  // A composed-stack sweep via '@' expansion: store, then resume with a
  // differently spelled but canonically identical expression -- the
  // fingerprint must match and the CSVs must be byte-identical.
  const std::string dir = ::testing::TempDir() + "/cli_expr_store";
  std::filesystem::create_directories(dir);
  const std::string weights = dir + "/weights";
  const std::string run_file = dir + "/expr.run.jsonl";
  const std::string csv_a = dir + "/a.csv";
  const std::string csv_b = dir + "/b.csv";
  auto campaign = [&](const char* expr, const std::string& csv) {
    std::vector<const char*> argv{
        "flim_cli", "campaign", "--model", "lenet", "--fault", expr,
        "--rates", "0,0.2", "--reps", "2", "--epochs", "1",
        "--samples", "32", "--images", "8", "--weights-dir", weights.c_str(),
        "--store", run_file.c_str(), "--csv", csv.c_str()};
    return Args::parse(static_cast<int>(argv.size()), argv.data());
  };
  ASSERT_EQ(cmd_campaign(campaign("drift(rate=@,tau=2)+coupling(rate=0.05)",
                                  csv_a)),
            0);
  ASSERT_EQ(cmd_campaign(campaign("drift(tau=2.0, rate=@) + coupling( "
                                  "rate = 0.05 )",
                                  csv_b)),
            0);
  auto read = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };
  ASSERT_FALSE(read(csv_a).empty());
  EXPECT_EQ(read(csv_a), read(csv_b));
  std::filesystem::remove_all(dir);
}

TEST(Cli, GenerateValidatesInput) {
  EXPECT_THROW(cmd_generate(parse({"generate"})), std::invalid_argument);
  EXPECT_THROW(cmd_generate(parse({"generate", "--out", "/tmp/x", "--layers",
                                   "a", "--grid", "nonsense"})),
               std::exception);
  EXPECT_THROW(cmd_generate(parse({"generate", "--out", "/tmp/x", "--layers",
                                   "a", "--rate", "7"})),
               std::invalid_argument);
}

TEST(Cli, MarchCleanArrayPasses) {
  EXPECT_EQ(cmd_march(parse({"march", "--algorithm", "all", "--grid",
                             "8x8"})),
            0);
}

TEST(Cli, MarchFindsPlantedFault) {
  // Exit code 2 signals "defect detected", mirroring a test instrument.
  EXPECT_EQ(cmd_march(parse({"march", "--algorithm", "marchc-", "--grid",
                             "8x8", "--inject", "stuckat0", "--at", "1,2"})),
            2);
  // MATS+ famously misses the 1->0 transition fault.
  EXPECT_EQ(cmd_march(parse({"march", "--algorithm", "mats+", "--grid",
                             "8x8", "--inject", "slowreset", "--at", "1,2"})),
            0);
  EXPECT_EQ(cmd_march(parse({"march", "--algorithm", "marchx", "--grid",
                             "8x8", "--inject", "slowreset", "--at", "1,2"})),
            2);
}

TEST(Cli, MarchCoverageMode) {
  EXPECT_EQ(cmd_march(parse({"march", "--algorithm", "raw1", "--grid", "8x8",
                             "--coverage", "--samples", "4"})),
            0);
}

TEST(Cli, MarchValidatesInput) {
  EXPECT_THROW(cmd_march(parse({"march", "--algorithm", "bogus"})),
               std::invalid_argument);
  EXPECT_THROW(cmd_march(parse({"march", "--inject", "nonsense"})),
               std::invalid_argument);
  EXPECT_THROW(cmd_march(parse({"march", "--grid", "x"})), std::exception);
}

TEST(Cli, ScrubPipelineReducesFaultyBits) {
  const std::string in_path = ::testing::TempDir() + "/cli_scrub_in.bin";
  const std::string out_path = ::testing::TempDir() + "/cli_scrub_out.bin";
  ASSERT_EQ(cmd_generate(parse({"generate", "--out", in_path.c_str(),
                                "--layers", "conv1", "--kind", "stuckat",
                                "--rate", "0.005", "--grid", "64x64",
                                "--seed", "9"})),
            0);
  ASSERT_EQ(cmd_scrub(parse({"scrub", "--in", in_path.c_str(), "--out",
                             out_path.c_str(), "--word-bits", "32",
                             "--interleave", "4"})),
            0);
  const fault::FaultVectorFile before = fault::FaultVectorFile::load(in_path);
  const fault::FaultVectorFile after = fault::FaultVectorFile::load(out_path);
  ASSERT_EQ(after.size(), 1u);
  const auto faulty_bits = [](const fault::FaultVectorEntry& e) {
    const fault::FaultMask mask = e.combined_mask();
    return mask.count_flip() + mask.count_sa0() + mask.count_sa1();
  };
  EXPECT_LT(faulty_bits(*after.find("conv1")),
            faulty_bits(*before.find("conv1")));
  // Metadata survives the scrub.
  EXPECT_EQ(after.find("conv1")->describe(), before.find("conv1")->describe());
  EXPECT_EQ(after.find("conv1")->granularity,
            before.find("conv1")->granularity);
  std::filesystem::remove(in_path);
  std::filesystem::remove(out_path);
}

TEST(Cli, ScrubValidatesInput) {
  EXPECT_THROW(cmd_scrub(parse({"scrub"})), std::invalid_argument);
  EXPECT_THROW(cmd_scrub(parse({"scrub", "--in", "/nonexistent/f.bin",
                                "--out", "/tmp/out.bin"})),
               std::exception);
}

TEST(Cli, EccListAndDescribe) {
  EXPECT_EQ(cmd_ecc(parse({"ecc"})), 0);
  EXPECT_EQ(cmd_ecc(parse({"ecc", "list"})), 0);
  EXPECT_EQ(cmd_ecc(parse({"ecc", "--describe", "bch"})), 0);
  EXPECT_THROW(cmd_ecc(parse({"ecc", "--describe", "bogus"})),
               std::invalid_argument);
  EXPECT_THROW(cmd_ecc(parse({"ecc", "bogus"})), std::invalid_argument);
}

TEST(Cli, EccExhaustShardMergeMatchesSingleProcess) {
  const std::string dir = ::testing::TempDir();
  const std::string single_csv = dir + "/cli_ecc_single.csv";
  const std::string merged_csv = dir + "/cli_ecc_merged.csv";
  const std::string s0 = dir + "/cli_ecc_s0.jsonl";
  const std::string s1 = dir + "/cli_ecc_s1.jsonl";
  std::filesystem::remove(s0);
  std::filesystem::remove(s1);
  ASSERT_EQ(cmd_ecc(parse({"ecc", "exhaust", "--codec", "hamming(d=8,k=5)",
                           "--weights", "1,2", "--chunk", "7", "--csv",
                           single_csv.c_str()})),
            0);
  ASSERT_EQ(cmd_ecc(parse({"ecc", "exhaust", "--codec", "hamming(d=8,k=5)",
                           "--weights", "1,2", "--chunk", "7", "--shard",
                           "0/2", "--store", s0.c_str()})),
            0);
  ASSERT_EQ(cmd_ecc(parse({"ecc", "exhaust", "--codec", "hamming(d=8,k=5)",
                           "--weights", "1,2", "--chunk", "7", "--shard",
                           "1/2", "--store", s1.c_str()})),
            0);
  const std::string inputs = s0 + "," + s1;
  ASSERT_EQ(cmd_ecc(parse({"ecc", "merge", "--inputs", inputs.c_str(),
                           "--csv", merged_csv.c_str()})),
            0);
  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  };
  const std::string single = slurp(single_csv);
  EXPECT_FALSE(single.empty());
  EXPECT_EQ(single, slurp(merged_csv));
  // A sharded run without a durable store cannot be merged later.
  EXPECT_THROW(cmd_ecc(parse({"ecc", "exhaust", "--codec", "secded",
                              "--shard", "0/2"})),
               std::invalid_argument);
  for (const std::string& p : {single_csv, merged_csv, s0, s1}) {
    std::filesystem::remove(p);
  }
}

TEST(Cli, MonitorDetectsVectorFileFaults) {
  const std::string path = ::testing::TempDir() + "/cli_monitor.bin";
  ASSERT_EQ(cmd_generate(parse({"generate", "--out", path.c_str(),
                                "--layers", "conv1", "--kind", "stuckat",
                                "--rate", "0.01", "--grid", "32x32",
                                "--seed", "4"})),
            0);
  EXPECT_EQ(cmd_monitor(parse({"monitor", "--vectors", path.c_str(),
                               "--layer", "conv1", "--policy", "roundrobin",
                               "--reps", "3"})),
            0);
  std::filesystem::remove(path);
}

TEST(Cli, MonitorValidatesInput) {
  EXPECT_THROW(cmd_monitor(parse({"monitor"})), std::invalid_argument);
  const std::string path = ::testing::TempDir() + "/cli_monitor2.bin";
  ASSERT_EQ(cmd_generate(parse({"generate", "--out", path.c_str(),
                                "--layers", "a", "--kind", "bitflip",
                                "--rate", "0.1", "--grid", "8x8"})),
            0);
  // Unknown layer and unknown policy both fail loudly.
  EXPECT_THROW(cmd_monitor(parse({"monitor", "--vectors", path.c_str(),
                                  "--layer", "nope"})),
               std::invalid_argument);
  EXPECT_THROW(cmd_monitor(parse({"monitor", "--vectors", path.c_str(),
                                  "--layer", "a", "--policy", "psychic"})),
               std::invalid_argument);
  std::filesystem::remove(path);
}

TEST(Cli, LifetimeValidatesMitigation) {
  // Invalid mitigation fails before any (expensive) model loading.
  EXPECT_THROW(cmd_lifetime(parse({"lifetime", "--mitigation", "prayers"})),
               std::exception);
}

}  // namespace
}  // namespace flim::cli
