// Durable campaign result store: append-only run files.
//
// The paper's figures come from fault-injection sweeps with thousands of
// (rate x layer x repetition) grid points; at paper scale a campaign runs
// for hours. A *run file* keeps its progress: a core/journal whose header
// line records the spec fingerprint, seed, code version and shard, and
// whose every later line is one completed grid-point summary. A campaign
// killed mid-write resumes from the last complete line and (because
// per-point repetition seeds depend only on the master seed) finishes
// bit-identically to an uninterrupted run. Shard files of one spec carry
// identical headers and disjoint point sets; merge_run_files folds them
// into one ScenarioResult whose CSV matches a single-process run byte for
// byte.
//
// Summaries are persisted with 17-significant-digit doubles
// (core::format_double_roundtrip), which decimal round-trips IEEE-754
// binary64 exactly -- the whole byte-identity story rests on that.
#pragma once

/// \file
/// Durable campaign result store: append-only JSONL run files with
/// fingerprinted headers, fsync'd per-point progress markers, corrupt-tail
/// tolerant loading, and shard-file merging. See docs/campaigns.md.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/journal.hpp"
#include "exp/scenario.hpp"

namespace flim::exp {

/// Revision of the run-file layout; bumped on incompatible changes.
inline constexpr int kRunFormatVersion = 1;

/// How every run-file header line begins; a newline-less prefix of it is
/// the residue of a kill before the header was durable (a fresh start).
inline constexpr std::string_view kRunHeaderTag = "{\"flim_run_format\"";

/// First line of a run file: everything needed to validate that a resume or
/// merge is looking at results of the same experiment.
struct RunHeader {
  /// Run-file layout revision (kRunFormatVersion at write time).
  int format = kRunFormatVersion;
  /// ScenarioSpec::name of the producing spec.
  std::string name;
  /// Report name of the execution backend.
  std::string backend;
  /// spec_fingerprint() of the producing spec.
  std::string fingerprint;
  /// core::code_fingerprint() of the producing build.
  std::string library_version;
  /// Campaign master seed (informational; covered by the fingerprint).
  std::uint64_t master_seed = 0;
  /// Repetitions per grid point (informational; covered by the fingerprint).
  int repetitions = 0;
  /// Number of cells in the *full* axis grid (a shard file still records
  /// the full grid size, so merge can detect gaps).
  std::size_t total_points = 0;
  /// 0-based shard id of the producing process.
  int shard_index = 0;
  /// Total shard count of the producing campaign (1 = unsharded).
  int shard_count = 1;
  /// Clean accuracy of the workload when it was measured, else 0.
  double clean_accuracy = 0.0;
  /// Axis names, outermost first.
  std::vector<std::string> axis_names;
  /// Axis sizes, outermost first.
  std::vector<std::size_t> axis_sizes;
};

/// Canonical, deterministic serialization of everything in a ScenarioSpec
/// that can change campaign *numbers*: workload scale, engine/backend
/// configuration, base fault spec, the fault expression (in canonical form
/// -- sorted params, round-trip numbers -- and only when set, so legacy
/// single-kind specs keep their pre-expression fingerprints), grid, layer
/// filters, axes, repetitions, and master seed. Execution-only knobs that are guaranteed not to change
/// results -- `jobs` (pooled runs are bit-identical to serial), `verbose`,
/// `weights_dir`, `force_retrain` (training is seed-deterministic) -- and
/// the cosmetic `name` are deliberately excluded, so a resumed campaign may
/// change them freely.
std::string canonical_spec(const ScenarioSpec& spec);

/// 16-hex-digit fingerprint of canonical_spec() mixed with the code
/// fingerprint (library version). Two specs with equal fingerprints produce
/// bit-identical grids; resume and merge refuse mismatched fingerprints.
std::string spec_fingerprint(const ScenarioSpec& spec);

/// Builds the header a run of `spec` writes.
RunHeader make_run_header(const ScenarioSpec& spec, double clean_accuracy,
                          int shard_index = 0, int shard_count = 1);

/// One persisted grid point.
struct StoredPoint {
  /// Row-major flat index of the cell within the full grid.
  std::size_t flat_index = 0;
  /// The restored per-point values/labels/summary.
  ScenarioPoint point;
};

/// A loaded run file: header plus every cleanly parsed point line.
struct RunFile {
  /// The validated header line.
  RunHeader header;
  /// Points in file order (ascending flat index for files the runner
  /// wrote). Duplicate flat indices keep the first occurrence.
  std::vector<StoredPoint> points;
  /// Byte length of the valid prefix (header + parsed point lines). A
  /// resumed writer truncates the file here before appending.
  std::size_t valid_prefix_bytes = 0;
  /// True when a torn/corrupt tail was ignored after the valid prefix.
  bool truncated_tail = false;

  /// Loads `path`. Throws std::invalid_argument on a missing file or a bad
  /// header (a malformed number or shard identity included); a malformed
  /// *point* line (torn write, corrupt tail) ends the scan gracefully
  /// instead.
  static RunFile load(const std::string& path);

  /// Number of grid cells this file's shard owns under the deterministic
  /// interleaved partition (the denominator of its progress fraction).
  std::size_t owned_points() const;

  /// True when every owned cell has a stored point: the shard is finished
  /// and the file is ready to merge.
  bool complete() const;
};

/// Append-only run-file writer. Every append() writes one complete JSONL
/// line and (by default) fsyncs, making the line a durable progress marker.
/// append() is thread-safe: the core::JournalWriter underneath serializes
/// whole lines, so concurrent producers can never interleave partial writes.
class RunStoreWriter {
 public:
  /// Creates (or truncates) `path`, writes the header line, and syncs it
  /// (flushes it when `fsync_each_point` is off). Parent directories are
  /// created as needed.
  RunStoreWriter(const std::string& path, const RunHeader& header,
                 bool fsync_each_point = true);

  /// Reopens an existing run file for appending, first truncating it to
  /// `valid_prefix_bytes` (from RunFile::load) so a torn tail from a
  /// previous crash can never corrupt lines appended after it.
  static RunStoreWriter resume(const std::string& path,
                               std::size_t valid_prefix_bytes,
                               bool fsync_each_point = true);

  /// Appends one completed grid point and syncs it. Thread-safe.
  void append(std::size_t flat_index, const ScenarioPoint& point);

  /// The run file being written.
  const std::string& path() const { return journal_.path(); }

 private:
  explicit RunStoreWriter(core::JournalWriter journal);

  core::JournalWriter journal_;
};

/// Loads `paths` (shard files of one campaign, or a single complete run
/// file), validates that every header carries the same spec fingerprint and
/// grid, rejects overlapping points and gaps, and folds everything into one
/// complete ScenarioResult -- with CSV/JSON output byte-identical to the
/// single-process run of the same spec. Throws std::invalid_argument on any
/// incompatibility.
ScenarioResult merge_run_files(const std::vector<std::string>& paths);

}  // namespace flim::exp
