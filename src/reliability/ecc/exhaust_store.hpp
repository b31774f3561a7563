// Durable store for exhaustive ECC enumerations: a core/journal, like the
// campaign run store (exp/store.hpp), whose header line carries the spec
// fingerprint and shard identity and whose every later line is one
// completed chunk's tallies. A killed run resumes from the last complete
// line, and merge validates fingerprints, disjointness, and completeness
// before folding shard files into one result -- byte-identical CSV to a
// single-process run, because tallies are integers.
#pragma once

/// \file
/// Durable store for exhaustive ECC enumerations: append-only JSONL chunk
/// files with fingerprinted headers, fsync'd chunk tallies, torn-tail
/// tolerant resume, and shard-file merging byte-identical to a
/// single-process run. See docs/ecc.md.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/journal.hpp"
#include "reliability/ecc/exhaust.hpp"

namespace flim::reliability::ecc {

/// Revision of the exhaust-file layout; bumped on incompatible changes.
inline constexpr int kExhaustFormatVersion = 1;

/// How every exhaust-store header line begins; a newline-less prefix of it
/// is the residue of a kill before the header was durable (a fresh start).
inline constexpr std::string_view kExhaustHeaderTag =
    "{\"flim_exhaust_format\"";

/// First line of an exhaust store file.
struct ExhaustHeader {
  /// Exhaust-file layout revision (kExhaustFormatVersion at write time).
  int format = kExhaustFormatVersion;
  /// Canonical codec expression.
  std::string codec;
  /// exhaust_fingerprint() of the producing spec.
  std::string fingerprint;
  /// core::code_fingerprint() of the producing build (informational; the
  /// fingerprint already mixes it in).
  std::string library_version;
  /// ExhaustSpec::data_seed of the producing spec.
  std::uint64_t data_seed = 0;
  /// True when the spec enumerates burst windows, not combinations.
  bool burst = false;
  /// Placements per chunk (the checkpoint/shard granule).
  std::uint64_t chunk = 0;
  /// Normalized (sorted, deduplicated) weights of the producing spec.
  std::vector<int> weights;
  /// Codeword length of the configured codec.
  int code_bits = 0;
  /// Chunk count of the producing plan.
  std::uint64_t total_chunks = 0;
  /// Placement count of the producing plan.
  std::uint64_t total_placements = 0;
  /// This file's shard identity under the interleaved partition.
  int shard_index = 0;
  /// Shard count of the producing run (1 = unsharded).
  int shard_count = 1;
};

/// Builds the header a run of `spec` writes.
ExhaustHeader make_exhaust_header(const ExhaustSpec& spec,
                                  const ExhaustPlan& plan, int shard_index,
                                  int shard_count);

/// A loaded exhaust store file: header plus every cleanly parsed chunk
/// line (duplicates keep the first occurrence).
struct ExhaustFile {
  /// Parsed header line.
  ExhaustHeader header;
  /// Cleanly parsed chunk lines, file order.
  std::vector<ChunkCounts> chunks;
  /// Byte length of the valid prefix; a resumed writer truncates here.
  std::size_t valid_prefix_bytes = 0;
  /// True when a torn/corrupt tail was ignored.
  bool truncated_tail = false;

  /// Loads `path`. Throws std::invalid_argument on a missing file or bad
  /// header (a malformed number or shard identity included); a malformed
  /// chunk line ends the scan gracefully.
  static ExhaustFile load(const std::string& path);

  /// Chunks this file's shard owns (its progress denominator).
  std::uint64_t owned_chunks() const;

  /// True when every owned chunk is present.
  bool complete() const;
};

/// Append-only exhaust store writer over a core::JournalWriter; append() is
/// thread-safe and fsyncs each line, so parallel chunk workers checkpoint
/// without interleaving.
class ExhaustStoreWriter {
 public:
  /// Creates (or truncates) `path`, writes the header line, and syncs it.
  ExhaustStoreWriter(const std::string& path, const ExhaustHeader& header);

  /// Reopens an existing store for appending, truncating the torn tail
  /// first (pass ExhaustFile::valid_prefix_bytes).
  static ExhaustStoreWriter resume(const std::string& path,
                                   std::size_t valid_prefix_bytes);

  /// Appends one completed chunk and syncs it. Thread-safe.
  void append(const ChunkCounts& chunk);

  /// Path this writer appends to.
  const std::string& path() const { return journal_.path(); }

 private:
  explicit ExhaustStoreWriter(core::JournalWriter journal);

  core::JournalWriter journal_;
};

/// Loads shard files of one enumeration (or a single complete file),
/// validates equal fingerprints, disjoint chunk ownership, and full
/// coverage, and folds them into the complete result. Throws
/// std::invalid_argument on any incompatibility or gap.
ExhaustResult merge_exhaust_files(const std::vector<std::string>& paths);

}  // namespace flim::reliability::ecc
