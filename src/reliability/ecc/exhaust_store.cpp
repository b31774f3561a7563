#include "reliability/ecc/exhaust_store.hpp"

#include <map>
#include <set>
#include <sstream>

#include "core/check.hpp"
#include "core/minijson.hpp"
#include "core/report.hpp"
#include "core/sysinfo.hpp"

namespace flim::reliability::ecc {

namespace {

using core::JsonError;
using core::JsonValue;
using core::json_array;
using core::json_int;
using core::json_quote;
using core::json_string;
using core::json_u64_string;

constexpr const char* kKind = "exhaust store";

std::string header_line(const ExhaustHeader& h) {
  std::ostringstream os;
  os << kExhaustHeaderTag << ": " << h.format
     << ", \"codec\": " << json_quote(h.codec)
     << ", \"fingerprint\": " << json_quote(h.fingerprint)
     << ", \"library_version\": " << json_quote(h.library_version)
     // 64-bit values go as strings: JSON numbers decay to binary64 on
     // parse, which cannot hold every value exactly.
     << ", \"data_seed\": \"" << h.data_seed << '"'
     << ", \"mode\": " << json_quote(h.burst ? "burst" : "combination")
     << ", \"chunk\": \"" << h.chunk << '"' << ", \"weights\": [";
  for (std::size_t i = 0; i < h.weights.size(); ++i) {
    if (i) os << ", ";
    os << h.weights[i];
  }
  os << "], \"code_bits\": " << h.code_bits << ", \"total_chunks\": \""
     << h.total_chunks << "\", \"total_placements\": \""
     << h.total_placements << "\", \"shard_index\": " << h.shard_index
     << ", \"shard_count\": " << h.shard_count << "}";
  return os.str();
}

/// One chunk per line. Per-weight tallies are flattened into one numeric
/// array in groups of five (weight, placements, corrected, detected,
/// aliased): minijson only speaks flat arrays of numbers/strings. Tallies
/// are bounded by the chunk size, so binary64 holds them exactly.
std::string chunk_line(const ChunkCounts& c) {
  std::ostringstream os;
  os << "{\"chunk\": \"" << c.chunk_index << "\", \"counts\": [";
  for (std::size_t i = 0; i < c.counts.size(); ++i) {
    const WeightCounts& wc = c.counts[i];
    if (i) os << ", ";
    os << wc.weight << ", " << wc.placements << ", " << wc.corrected << ", "
       << wc.detected << ", " << wc.aliased;
  }
  os << "]}";
  return os.str();
}

ExhaustHeader parse_header(const std::string& line) {
  const auto obj = core::parse_json_object_line(line);
  ExhaustHeader h;
  h.format = json_int<int>(obj, "flim_exhaust_format");
  h.codec = json_string(obj, "codec");
  h.fingerprint = json_string(obj, "fingerprint");
  h.library_version = json_string(obj, "library_version");
  h.data_seed = json_u64_string(obj, "data_seed");
  const std::string mode = json_string(obj, "mode");
  if (mode != "burst" && mode != "combination") {
    throw JsonError{"unknown exhaust mode: " + mode};
  }
  h.burst = (mode == "burst");
  h.chunk = json_u64_string(obj, "chunk");
  for (const JsonValue& v : json_array(obj, "weights")) {
    h.weights.push_back(json_int<int>(v, "weights entry"));
  }
  h.code_bits = json_int<int>(obj, "code_bits");
  h.total_chunks = json_u64_string(obj, "total_chunks");
  h.total_placements = json_u64_string(obj, "total_placements");
  h.shard_index = json_int<int>(obj, "shard_index");
  h.shard_count = json_int<int>(obj, "shard_count");
  return h;
}

ChunkCounts parse_chunk(const std::string& line) {
  const auto obj = core::parse_json_object_line(line);
  ChunkCounts c;
  c.chunk_index = json_u64_string(obj, "chunk");
  const std::vector<JsonValue>& flat = json_array(obj, "counts");
  if (flat.size() % 5 != 0) {
    throw JsonError{"counts array is not a multiple of five"};
  }
  const auto tally = [&](std::size_t i) {
    return json_int<std::uint64_t>(flat[i], "counts entry");
  };
  for (std::size_t i = 0; i < flat.size(); i += 5) {
    WeightCounts wc;
    wc.weight = json_int<int>(flat[i], "counts entry");
    wc.placements = tally(i + 1);
    wc.corrected = tally(i + 2);
    wc.detected = tally(i + 3);
    wc.aliased = tally(i + 4);
    c.counts.push_back(wc);
  }
  return c;
}

}  // namespace

ExhaustHeader make_exhaust_header(const ExhaustSpec& spec,
                                  const ExhaustPlan& plan, int shard_index,
                                  int shard_count) {
  core::check_shard(shard_index, shard_count);
  ExhaustHeader h;
  h.codec = spec.codec_expr;
  h.fingerprint = exhaust_fingerprint(spec);
  h.library_version = core::code_fingerprint();
  h.data_seed = spec.data_seed;
  h.burst = spec.burst;
  h.chunk = spec.chunk;
  h.weights = spec.weights;
  h.code_bits = plan.code_bits;
  h.total_chunks = plan.total_chunks;
  h.total_placements = plan.total_placements;
  h.shard_index = shard_index;
  h.shard_count = shard_count;
  return h;
}

ExhaustFile ExhaustFile::load(const std::string& path) {
  ExhaustFile file;
  std::set<std::uint64_t> seen;
  const core::JournalScan scan = core::scan_journal(
      path, kKind,
      [&](const std::string& line) {
        file.header = parse_header(line);
        FLIM_REQUIRE(file.header.format == kExhaustFormatVersion,
                     "unsupported exhaust store format version " +
                         std::to_string(file.header.format) + " in " + path);
        core::check_shard(file.header.shard_index, file.header.shard_count,
                          path);
      },
      [&](const std::string& line) {
        ChunkCounts c = parse_chunk(line);
        FLIM_REQUIRE(c.chunk_index < file.header.total_chunks,
                     "exhaust store " + path + " has an out-of-range chunk");
        if (seen.insert(c.chunk_index).second) {
          file.chunks.push_back(std::move(c));
        }
      });
  file.valid_prefix_bytes = scan.valid_prefix_bytes;
  file.truncated_tail = scan.truncated_tail;
  return file;
}

std::uint64_t ExhaustFile::owned_chunks() const {
  return core::shard_owned_count(header.total_chunks, header.shard_index,
                                 header.shard_count);
}

bool ExhaustFile::complete() const { return chunks.size() == owned_chunks(); }

ExhaustStoreWriter::ExhaustStoreWriter(core::JournalWriter journal)
    : journal_(std::move(journal)) {}

// Exhaust stores always fsync: a chunk is worth far more than the sync.
ExhaustStoreWriter::ExhaustStoreWriter(const std::string& path,
                                       const ExhaustHeader& header)
    : journal_(path, kKind, header_line(header), /*fsync_each_line=*/true) {}

ExhaustStoreWriter ExhaustStoreWriter::resume(const std::string& path,
                                              std::size_t valid_prefix_bytes) {
  return ExhaustStoreWriter(core::JournalWriter::resume(
      path, kKind, valid_prefix_bytes, /*fsync_each_line=*/true));
}

void ExhaustStoreWriter::append(const ChunkCounts& chunk) {
  journal_.append(chunk_line(chunk));
}

ExhaustResult merge_exhaust_files(const std::vector<std::string>& paths) {
  FLIM_REQUIRE(!paths.empty(), "merge needs at least one exhaust store");
  std::vector<ExhaustFile> files;
  files.reserve(paths.size());
  for (const std::string& path : paths) {
    files.push_back(ExhaustFile::load(path));
  }

  const ExhaustHeader& first = files.front().header;
  for (std::size_t i = 1; i < files.size(); ++i) {
    const ExhaustHeader& h = files[i].header;
    FLIM_REQUIRE(h.fingerprint == first.fingerprint,
                 "exhaust fingerprint mismatch between " + paths[0] + " and " +
                     paths[i]);
  }

  // Rebuild the spec/plan from the (fingerprint-validated) header so the
  // fold checks chunk ranges and weights against the original layout. The
  // header is outside input: normalizing rejects a zero chunk size or a
  // weight the codec cannot hold before planning divides or counts by them.
  ExhaustSpec raw;
  raw.codec_expr = first.codec;
  raw.weights = first.weights;
  raw.burst = first.burst;
  raw.data_seed = first.data_seed;
  raw.chunk = first.chunk;
  const ExhaustSpec spec = normalize_exhaust_spec(raw);
  const ExhaustPlan plan = plan_exhaust(spec);

  std::map<std::uint64_t, const ChunkCounts*> merged;
  for (std::size_t i = 0; i < files.size(); ++i) {
    for (const ChunkCounts& c : files[i].chunks) {
      const auto inserted = merged.emplace(c.chunk_index, &c);
      FLIM_REQUIRE(inserted.second,
                   "overlapping chunk " + std::to_string(c.chunk_index) +
                       " in " + paths[i] +
                       " (shard stores must be disjoint)");
    }
  }
  std::string torn;
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (files[i].truncated_tail) {
      torn += "; " + paths[i] + " stops at a torn or malformed line";
    }
  }
  FLIM_REQUIRE(merged.size() == plan.total_chunks,
               "merged exhaust stores cover " + std::to_string(merged.size()) +
                   " of " + std::to_string(plan.total_chunks) +
                   " chunks (missing shards?)" + torn);

  std::vector<ChunkCounts> chunks;
  chunks.reserve(merged.size());
  for (const auto& [index, chunk] : merged) chunks.push_back(*chunk);
  return fold_exhaust_counts(spec, plan, chunks);
}

}  // namespace flim::reliability::ecc
