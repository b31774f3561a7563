// Tests for the durable campaign store: spec fingerprints, run-file
// round-trips, kill-and-resume determinism (byte-identical CSV after a torn
// write), deterministic sharding, and shard-file merging.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "exp/store.hpp"

namespace flim::exp {
namespace {

/// ctest runs every test in its own concurrent process, so all scratch
/// paths (run files, weight cache) are process-unique to keep the suite
/// parallel-safe.
std::string process_tag() {
#if defined(__unix__) || defined(__APPLE__)
  static const std::string tag = std::to_string(::getpid());
#else
  static const std::string tag = "solo";
#endif
  return tag;
}

ScenarioSpec tiny_scenario() {
  ScenarioSpec s;
  s.name = "store-test";
  s.workload.model = "lenet";
  s.workload.eval_images = 16;
  s.workload.epochs = 1;
  s.workload.train_samples = 32;
  s.workload.weights_dir =
      ::testing::TempDir() + "flim_store_weights_" + process_tag();
  s.workload.measure_clean_accuracy = true;
  s.axes = {rate_axis({0.0, 0.15, 0.3}), layers_axis({"conv1", "combined"})};
  s.repetitions = 2;
  s.master_seed = 11;
  return s;
}

const Workload& tiny_workload() {
  static const Workload* w =
      new Workload(load_workload(tiny_scenario().workload));
  return *w;
}

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "flim_store_" + process_tag() + "_" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// The uninterrupted reference run of the tiny scenario, with its CSV and
/// run-file bytes (computed once; every durability test compares against
/// these).
struct Reference {
  ScenarioResult result;
  std::string csv;
  std::string run_bytes;
  std::string path;
};

const Reference& reference_run() {
  static const Reference* ref = [] {
    auto* r = new Reference;
    r->path = tmp_path("reference.run.jsonl");
    std::filesystem::remove(r->path);
    StoreOptions store;
    store.store_path = r->path;
    r->result = ScenarioRunner(tiny_scenario()).run(tiny_workload(), store);
    r->csv = r->result.to_table().to_csv();
    r->run_bytes = read_file(r->path);
    return r;
  }();
  return *ref;
}

// ---------------------------------------------------------------------------
// Fingerprints

TEST(SpecFingerprint, IgnoresExecutionOnlyKnobs) {
  const ScenarioSpec base = tiny_scenario();
  ScenarioSpec same = base;
  same.jobs = 8;
  same.name = "renamed";
  same.workload.verbose = true;
  same.workload.weights_dir = "/elsewhere";
  same.workload.force_retrain = true;
  EXPECT_EQ(spec_fingerprint(base), spec_fingerprint(same));
  EXPECT_EQ(spec_fingerprint(base).size(), 16u);
}

TEST(SpecFingerprint, SeesEveryNumberChangingField) {
  const ScenarioSpec base = tiny_scenario();
  auto differs = [&](const ScenarioSpec& other) {
    return spec_fingerprint(other) != spec_fingerprint(base);
  };
  ScenarioSpec s = base;
  s.axes[0] = rate_axis({0.0, 0.15, 0.31});
  EXPECT_TRUE(differs(s));
  s = base;
  s.engine.backend = Backend::kDevice;
  EXPECT_TRUE(differs(s));
  s = base;
  s.repetitions += 1;
  EXPECT_TRUE(differs(s));
  s = base;
  s.master_seed += 1;
  EXPECT_TRUE(differs(s));
  s = base;
  s.fault.kind = fault::FaultKind::kStuckAt;
  EXPECT_TRUE(differs(s));
  s = base;
  s.workload.eval_images += 1;
  EXPECT_TRUE(differs(s));
  s = base;
  s.grid = {32, 32};
  EXPECT_TRUE(differs(s));
}

TEST(SpecFingerprint, CanonicalizesFaultExpressions) {
  const ScenarioSpec base = tiny_scenario();
  // A legacy spec's canonical form carries no expression field, which is
  // what keeps pre-expression fingerprints (and old run files) valid.
  EXPECT_EQ(canonical_spec(base).find("fault.expr"), std::string::npos);

  ScenarioSpec expr = base;
  expr.fault_expr = "stuckat(sa1=0.70,rate=5.0e-4)+drift(tau=2000)";
  EXPECT_NE(spec_fingerprint(expr), spec_fingerprint(base));
  EXPECT_NE(canonical_spec(expr).find(
                "fault.expr=stuckat(rate=5e-04,sa1=0.7)+drift(tau=2000)"),
            std::string::npos);

  // Two spellings of the same stack (whitespace, param order, number
  // format) fingerprint identically -- either one resumes the other's run
  // files.
  ScenarioSpec respelled = base;
  respelled.fault_expr = " stuckat( rate = 0.0005 , sa1 = 0.7 ) + drift( "
                         "tau = 2000.0 ) ";
  EXPECT_EQ(spec_fingerprint(expr), spec_fingerprint(respelled));

  // Expression axes are fingerprinted through their canonical text.
  ScenarioSpec with_axis = base;
  with_axis.axes = {fault_expr_axis({"drift(tau=100,rate=0.1)"})};
  ScenarioSpec with_axis2 = base;
  with_axis2.axes = {fault_expr_axis({"drift(rate=0.10,tau=1e2)"})};
  EXPECT_EQ(spec_fingerprint(with_axis), spec_fingerprint(with_axis2));
  EXPECT_NE(spec_fingerprint(with_axis), spec_fingerprint(base));
}

// ---------------------------------------------------------------------------
// Run-file round-trip

TEST(RunFile, HeaderRoundTripsThroughDisk) {
  const ScenarioSpec spec = tiny_scenario();
  const RunHeader header = make_run_header(spec, 0.75, 1, 4);
  const std::string path = tmp_path("header.run.jsonl");
  { RunStoreWriter writer(path, header); }
  const RunFile run = RunFile::load(path);
  EXPECT_EQ(run.header.format, kRunFormatVersion);
  EXPECT_EQ(run.header.name, spec.name);
  EXPECT_EQ(run.header.backend, "flim");
  EXPECT_EQ(run.header.fingerprint, spec_fingerprint(spec));
  EXPECT_EQ(run.header.master_seed, spec.master_seed);
  EXPECT_EQ(run.header.repetitions, spec.repetitions);
  EXPECT_EQ(run.header.total_points, 6u);
  EXPECT_EQ(run.header.shard_index, 1);
  EXPECT_EQ(run.header.shard_count, 4);
  EXPECT_DOUBLE_EQ(run.header.clean_accuracy, 0.75);
  EXPECT_EQ(run.header.axis_names,
            (std::vector<std::string>{"rate", "layer"}));
  EXPECT_EQ(run.header.axis_sizes, (std::vector<std::size_t>{3, 2}));
  EXPECT_TRUE(run.points.empty());
  EXPECT_FALSE(run.truncated_tail);
  std::filesystem::remove(path);
}

TEST(RunFile, WriterBytesMatchPinnedLines) {
  // The run-file format is pinned byte for byte: resumed and merged runs
  // compare files written by different builds, so a formatting drift must
  // fail here, not only in a cmp of two files from one build.
  RunHeader header;
  header.name = "pinned \"run\"\\";
  header.backend = "flim";
  header.fingerprint = "0123456789abcdef";
  header.library_version = "flim-test";
  header.master_seed = 18446744073709551615u;  // 2^64 - 1
  header.repetitions = 3;
  header.total_points = 4;
  header.shard_index = 1;
  header.shard_count = 2;
  header.clean_accuracy = 0.1;
  header.axis_names = {"rate", "layer"};
  header.axis_sizes = {2, 2};

  ScenarioPoint first;
  first.values = {0.1, 0.0};
  first.labels = {"0.100", "say \"hi\"\\\t"};
  first.metric = {0.75, 0.125, 0.5, 1.0, 3};
  ScenarioPoint second;
  second.values = {0.25, 1.0};
  second.labels = {"0.250", "combined"};
  second.metric = {1.0 / 3.0, 0.0, 0.25, 0.5, 3};

  const std::string path = tmp_path("pinned.run.jsonl");
  {
    RunStoreWriter writer(path, header);
    writer.append(1, first);
    writer.append(3, second);
  }
  const std::string expected =
      R"({"flim_run_format": 1, "name": "pinned \"run\"\\", )"
      R"("backend": "flim", "fingerprint": "0123456789abcdef", )"
      R"("library_version": "flim-test", )"
      R"("master_seed": "18446744073709551615", "repetitions": 3, )"
      R"("total_points": 4, "shard_index": 1, "shard_count": 2, )"
      R"("clean_accuracy": 0.10000000000000001, )"
      R"("axis_names": ["rate", "layer"], "axis_sizes": [2, 2]})"
      "\n"
      R"({"point": 1, "values": [0.10000000000000001, 0], )"
      R"("labels": ["0.100", "say \"hi\"\\\t"], "mean": 0.75, )"
      R"("stddev": 0.125, "min": 0.5, "max": 1, "count": 3})"
      "\n"
      R"({"point": 3, "values": [0.25, 1], "labels": ["0.250", "combined"], )"
      R"("mean": 0.33333333333333331, "stddev": 0, "min": 0.25, )"
      R"("max": 0.5, "count": 3})"
      "\n";
  EXPECT_EQ(read_file(path), expected);

  const RunFile run = RunFile::load(path);
  EXPECT_EQ(run.header.format, kRunFormatVersion);
  EXPECT_EQ(run.header.name, header.name);
  EXPECT_EQ(run.header.backend, header.backend);
  EXPECT_EQ(run.header.fingerprint, header.fingerprint);
  EXPECT_EQ(run.header.library_version, header.library_version);
  EXPECT_EQ(run.header.master_seed, header.master_seed);
  EXPECT_EQ(run.header.repetitions, header.repetitions);
  EXPECT_EQ(run.header.total_points, header.total_points);
  EXPECT_EQ(run.header.shard_index, header.shard_index);
  EXPECT_EQ(run.header.shard_count, header.shard_count);
  EXPECT_EQ(run.header.clean_accuracy, header.clean_accuracy);
  EXPECT_EQ(run.header.axis_names, header.axis_names);
  EXPECT_EQ(run.header.axis_sizes, header.axis_sizes);
  ASSERT_EQ(run.points.size(), 2u);
  const ScenarioPoint* written[] = {&first, &second};
  const std::size_t flats[] = {1, 3};
  for (std::size_t i = 0; i < 2; ++i) {
    const StoredPoint& stored = run.points[i];
    const ScenarioPoint& expect = *written[i];
    EXPECT_EQ(stored.flat_index, flats[i]);
    EXPECT_EQ(stored.point.values, expect.values);
    EXPECT_EQ(stored.point.labels, expect.labels);
    EXPECT_EQ(stored.point.metric.mean, expect.metric.mean);
    EXPECT_EQ(stored.point.metric.stddev, expect.metric.stddev);
    EXPECT_EQ(stored.point.metric.min, expect.metric.min);
    EXPECT_EQ(stored.point.metric.max, expect.metric.max);
    EXPECT_EQ(stored.point.metric.count, expect.metric.count);
  }
  EXPECT_EQ(run.valid_prefix_bytes, expected.size());
  EXPECT_FALSE(run.truncated_tail);
  EXPECT_EQ(run.owned_points(), 2u);
  EXPECT_TRUE(run.complete());
  std::filesystem::remove(path);
}

TEST(RunFile, PointsRoundTripBitExactly) {
  const Reference& ref = reference_run();
  const RunFile run = RunFile::load(ref.path);
  ASSERT_EQ(run.points.size(), ref.result.points.size());
  for (std::size_t i = 0; i < run.points.size(); ++i) {
    const StoredPoint& stored = run.points[i];
    EXPECT_EQ(stored.flat_index, ref.result.flat_indices[i]);
    const ScenarioPoint& expect = ref.result.points[i];
    EXPECT_EQ(stored.point.values, expect.values);
    EXPECT_EQ(stored.point.labels, expect.labels);
    // Bit-exact doubles, not just approximately equal: resume and merge
    // re-emit these into CSV.
    EXPECT_EQ(stored.point.metric.mean, expect.metric.mean);
    EXPECT_EQ(stored.point.metric.stddev, expect.metric.stddev);
    EXPECT_EQ(stored.point.metric.min, expect.metric.min);
    EXPECT_EQ(stored.point.metric.max, expect.metric.max);
    EXPECT_EQ(stored.point.metric.count, expect.metric.count);
  }
  std::vector<std::size_t> flat_indices;
  for (const StoredPoint& stored : run.points) {
    flat_indices.push_back(stored.flat_index);
  }
  EXPECT_EQ(std::count(flat_indices.begin(), flat_indices.end(), 0u), 1);
  EXPECT_EQ(std::count(flat_indices.begin(), flat_indices.end(), 99u), 0);
}

TEST(RunFile, LoadRejectsGarbage) {
  const std::string path = tmp_path("garbage.run.jsonl");
  write_file(path, "not a run file\n");
  EXPECT_THROW(RunFile::load(path), std::invalid_argument);
  EXPECT_THROW(RunFile::load(tmp_path("does_not_exist.run.jsonl")),
               std::invalid_argument);
  std::filesystem::remove(path);
}

TEST(RunFile, MergeRejectsMalformedNumbers) {
  // A complete two-point run file; each copy edits one header field or the
  // first point line by hand.
  RunHeader header;
  header.name = "numbers";
  header.backend = "flim";
  header.fingerprint = "0123456789abcdef";
  header.library_version = "flim-test";
  header.master_seed = 2023;
  header.repetitions = 2;
  header.total_points = 2;
  header.axis_names = {"rate"};
  header.axis_sizes = {2};
  const std::string clean = tmp_path("numbers_clean.run.jsonl");
  {
    RunStoreWriter writer(clean, header);
    for (std::size_t flat = 0; flat < 2; ++flat) {
      ScenarioPoint point;
      point.values = {0.1 * static_cast<double>(flat)};
      point.labels = {std::to_string(flat)};
      point.metric = {0.5, 0.0, 0.5, 0.5, 2};
      writer.append(flat, point);
    }
  }
  std::istringstream lines(read_file(clean));
  std::string head;
  std::string first;
  std::string second;
  std::getline(lines, head);
  std::getline(lines, first);
  std::getline(lines, second);
  std::filesystem::remove(clean);

  const std::string path = tmp_path("numbers.run.jsonl");
  const auto write = [&](const std::string& h, const std::string& p) {
    write_file(path, h + "\n" + p + "\n" + second + "\n");
    return path;
  };
  const auto edit = [](std::string line, const std::string& from,
                       const std::string& to) {
    const std::size_t at = line.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos) line.replace(at, from.size(), to);
    return line;
  };
  EXPECT_TRUE(RunFile::load(write(head, first)).complete());
  EXPECT_EQ(merge_run_files({path}).points.size(), 2u);

  for (const std::string& bad : {
           edit(head, R"("master_seed": "2023")", R"("master_seed": "2023abc")"),
           edit(head, R"("master_seed": "2023")", R"("master_seed": "-1")"),
           edit(head, R"("repetitions": 2)", R"("repetitions": 2.5)"),
           edit(head, R"("axis_sizes": [2])", R"("axis_sizes": [1e300])"),
           edit(head, R"("total_points": 2)", R"("total_points": 1e300)"),
           edit(head, R"("flim_run_format": 1)", R"("flim_run_format": 1.5)"),
           // a shard identity outside [0, shard_count)
           edit(head, R"("shard_count": 1)", R"("shard_count": 0)"),
           edit(head, R"("shard_index": 0)", R"("shard_index": 7)"),
       }) {
    EXPECT_THROW(RunFile::load(write(bad, first)), std::invalid_argument)
        << bad;
    EXPECT_THROW(merge_run_files({write(bad, first)}), std::invalid_argument)
        << bad;
  }
  // A malformed point line ends the valid prefix like a torn tail, so the
  // file reads as incomplete and merge reports the gap.
  for (const std::string& bad : {
           edit(first, R"("point": 0)", R"("point": 1e30)"),
           edit(first, R"("point": 0)", R"("point": 0.5)"),
           edit(first, R"("count": 2)", R"("count": -5)"),
       }) {
    const RunFile run = RunFile::load(write(head, bad));
    EXPECT_TRUE(run.truncated_tail) << bad;
    EXPECT_TRUE(run.points.empty()) << bad;
    EXPECT_FALSE(run.complete()) << bad;
    EXPECT_THROW(merge_run_files({path}), std::invalid_argument) << bad;
  }
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Corrupt-tail recovery

/// The reference run file cut after the header and two point lines, with a
/// torn third point line appended (a crash mid-write).
std::string torn_copy(const std::string& name) {
  const Reference& ref = reference_run();
  std::size_t pos = 0;
  for (int lines = 0; lines < 3; ++lines) {
    pos = ref.run_bytes.find('\n', pos) + 1;
  }
  const std::string path = tmp_path(name);
  write_file(path, ref.run_bytes.substr(0, pos) + "{\"point\": 2, \"val");
  return path;
}

TEST(RunFile, CorruptTailIsDroppedNotFatal) {
  const std::string path = torn_copy("torn.run.jsonl");
  const RunFile run = RunFile::load(path);
  EXPECT_TRUE(run.truncated_tail);
  EXPECT_EQ(run.points.size(), 2u);
  EXPECT_LT(run.valid_prefix_bytes, std::filesystem::file_size(path));
  // The valid prefix ends exactly on the last complete line.
  EXPECT_EQ(read_file(path).compare(0, run.valid_prefix_bytes,
                                    reference_run().run_bytes, 0,
                                    run.valid_prefix_bytes),
            0);
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Kill-and-resume determinism

TEST(RunStore, KillAndResumeIsByteIdentical) {
  const Reference& ref = reference_run();
  const std::string path = torn_copy("resume.run.jsonl");

  StoreOptions store;
  store.store_path = path;
  store.resume_from = path;
  int fresh = 0;
  const ScenarioResult resumed = ScenarioRunner(tiny_scenario())
                                     .run(tiny_workload(), store,
                                          [&](const ScenarioPoint&) {
                                            ++fresh;
                                          });
  // Two of six points were restored; only the rest were re-evaluated.
  EXPECT_EQ(fresh, 4);
  EXPECT_TRUE(resumed.complete());
  // The resumed CSV and the repaired run file match the uninterrupted run
  // byte for byte.
  EXPECT_EQ(resumed.to_table().to_csv(), ref.csv);
  EXPECT_EQ(read_file(path), ref.run_bytes);
  std::filesystem::remove(path);
}

TEST(RunStore, ResumeIntoFreshStoreCopiesRestoredPoints) {
  const std::string src = torn_copy("resume_src.run.jsonl");
  const std::string dst = tmp_path("resume_dst.run.jsonl");
  std::filesystem::remove(dst);
  StoreOptions store;
  store.resume_from = src;
  store.store_path = dst;
  ScenarioRunner(tiny_scenario()).run(tiny_workload(), store);
  // The new store is self-contained: restored + fresh points.
  EXPECT_EQ(read_file(dst), reference_run().run_bytes);
  std::filesystem::remove(src);
  std::filesystem::remove(dst);
}

TEST(RunStore, ResumeFromMissingFileIsAFreshRun) {
  const std::string path = tmp_path("fresh.run.jsonl");
  std::filesystem::remove(path);
  StoreOptions store;
  store.store_path = path;
  store.resume_from = path;
  const ScenarioResult result =
      ScenarioRunner(tiny_scenario()).run(tiny_workload(), store);
  EXPECT_TRUE(result.complete());
  EXPECT_EQ(read_file(path), reference_run().run_bytes);
  std::filesystem::remove(path);
}

TEST(RunStore, ResumeFromTornHeaderIsAFreshRun) {
  // A crash between creating the run file and durably writing its header
  // leaves an empty file or a partial, newline-less header line; resuming
  // must recover (fresh start), not abort until someone deletes the file.
  for (const std::string& residue : {std::string(), std::string("{\"flim_")}) {
    const std::string path = tmp_path("torn_header.run.jsonl");
    write_file(path, residue);
    StoreOptions store;
    store.store_path = path;
    store.resume_from = path;
    const ScenarioResult result =
        ScenarioRunner(tiny_scenario()).run(tiny_workload(), store);
    EXPECT_TRUE(result.complete());
    EXPECT_EQ(read_file(path), reference_run().run_bytes);
    std::filesystem::remove(path);
  }
  // Anything that is not unambiguously our own torn header stays a loud
  // error: it is some other file, and "recovering" would truncate it --
  // whether or not it happens to contain a newline.
  for (const std::string& content :
       {std::string("column_a,column_b\n1,2\n"),
        std::string("single line, no newline")}) {
    const std::string path = tmp_path("not_a_run_file.jsonl");
    write_file(path, content);
    StoreOptions store;
    store.store_path = path;
    store.resume_from = path;
    EXPECT_THROW(ScenarioRunner(tiny_scenario()).run(tiny_workload(), store),
                 std::invalid_argument);
    EXPECT_EQ(read_file(path), content);  // untouched
    std::filesystem::remove(path);
  }
}

TEST(RunStore, ResumeRejectsMismatchedSpec) {
  const std::string path = torn_copy("mismatch.run.jsonl");
  ScenarioSpec other = tiny_scenario();
  other.fault.kind = fault::FaultKind::kStuckAt;
  StoreOptions store;
  store.resume_from = path;
  EXPECT_THROW(ScenarioRunner(other).run(tiny_workload(), store),
               std::invalid_argument);
  std::filesystem::remove(path);
}

TEST(RunStore, ResumeRejectsShardMismatch) {
  const std::string path = torn_copy("shardmismatch.run.jsonl");
  StoreOptions store;
  store.resume_from = path;
  store.store_path = path;
  store.shard_index = 0;
  store.shard_count = 2;  // file was written unsharded
  EXPECT_THROW(ScenarioRunner(tiny_scenario()).run(tiny_workload(), store),
               std::invalid_argument);
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Sharding and merge

/// Runs shard `index` of `count`, storing to a run file; returns its path.
std::string run_shard(int index, int count, const std::string& tag) {
  StoreOptions store;
  store.shard_index = index;
  store.shard_count = count;
  store.store_path =
      tmp_path("shard_" + tag + "_" + std::to_string(index) + ".run.jsonl");
  std::filesystem::remove(store.store_path);
  ScenarioRunner(tiny_scenario()).run(tiny_workload(), store);
  return store.store_path;
}

TEST(RunStore, ShardsPartitionTheGridDeterministically) {
  StoreOptions store;
  store.shard_index = 1;
  store.shard_count = 2;
  store.store_path = tmp_path("slice.run.jsonl");
  std::filesystem::remove(store.store_path);
  const ScenarioResult slice =
      ScenarioRunner(tiny_scenario()).run(tiny_workload(), store);
  EXPECT_FALSE(slice.complete());
  EXPECT_EQ(slice.total_points, 6u);
  EXPECT_EQ(slice.flat_indices, (std::vector<std::size_t>{1, 3, 5}));
  EXPECT_THROW(slice.at({0, 0}), std::invalid_argument);
  // The slice's summaries equal the corresponding full-run points.
  const Reference& ref = reference_run();
  for (std::size_t i = 0; i < slice.points.size(); ++i) {
    EXPECT_EQ(slice.points[i].metric.mean,
              ref.result.points[slice.flat_indices[i]].metric.mean);
  }
  std::filesystem::remove(store.store_path);
}

TEST(Merge, ShardMergeMatchesSingleRunByteForByte) {
  const Reference& ref = reference_run();
  for (const int count : {2, 3}) {
    std::vector<std::string> paths;
    for (int i = 0; i < count; ++i) {
      paths.push_back(run_shard(i, count, std::to_string(count)));
    }
    const ScenarioResult merged = merge_run_files(paths);
    EXPECT_TRUE(merged.complete());
    EXPECT_EQ(merged.to_table().to_csv(), ref.csv);
    EXPECT_DOUBLE_EQ(merged.clean_accuracy, ref.result.clean_accuracy);
    for (const std::string& path : paths) std::filesystem::remove(path);
  }
}

TEST(Merge, SingleCompleteRunFileMaterializes) {
  const Reference& ref = reference_run();
  const ScenarioResult merged = merge_run_files({ref.path});
  EXPECT_EQ(merged.to_table().to_csv(), ref.csv);
}

TEST(Merge, DetectsOverlapGapAndMismatch) {
  EXPECT_THROW(merge_run_files({}), std::invalid_argument);

  const std::string s0 = run_shard(0, 2, "dup");
  // Overlap: the same shard twice.
  EXPECT_THROW(merge_run_files({s0, s0}), std::invalid_argument);
  // Gap: shard 1 of 2 is missing.
  EXPECT_THROW(merge_run_files({s0}), std::invalid_argument);

  // Fingerprint mismatch: a shard of a different spec.
  ScenarioSpec other = tiny_scenario();
  other.master_seed += 1;
  StoreOptions store;
  store.shard_index = 1;
  store.shard_count = 2;
  store.store_path = tmp_path("othershard.run.jsonl");
  std::filesystem::remove(store.store_path);
  ScenarioRunner(other).run(tiny_workload(), store);
  EXPECT_THROW(merge_run_files({s0, store.store_path}),
               std::invalid_argument);
  std::filesystem::remove(s0);
  std::filesystem::remove(store.store_path);
}

TEST(Merge, NamesTheRunFileThatStopsEarly) {
  // Shard 1's first point line is edited to a point index no grid has: the
  // file stops there, and merge names it instead of only counting the gap.
  const std::string s0 = run_shard(0, 2, "early");
  const std::string s1 = run_shard(1, 2, "early");
  std::string bytes = read_file(s1);
  const std::string from = R"("point": 1,)";
  const std::size_t at = bytes.find(from);
  ASSERT_NE(at, std::string::npos);
  bytes.replace(at, from.size(), R"("point": 1e30,)");
  write_file(s1, bytes);
  try {
    merge_run_files({s0, s1});
    ADD_FAILURE() << "merge accepted a run file that stops early";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cover 3 of 6 grid points"), std::string::npos)
        << what;
    EXPECT_NE(what.find(s1 + " stops at a torn or malformed line"),
              std::string::npos)
        << what;
    EXPECT_EQ(what.find(s0 + " stops"), std::string::npos) << what;
  }
  std::filesystem::remove(s0);
  std::filesystem::remove(s1);
}

}  // namespace
}  // namespace flim::exp
