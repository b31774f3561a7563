// Durable append-only JSONL journal: the file mechanics that campaign run
// files (exp/store) and exhaustive ECC stores (reliability/ecc/exhaust_store)
// share. A journal is a header line, then one record line per finished unit
// of work, each appended and fsync'd the moment it completes; a complete,
// newline-terminated line is the durable progress marker. The journal deals
// only in whole lines and never looks inside them: each store keeps its own
// field formats, header checks and merge.
#pragma once

/// \file
/// Durable append-only JSONL journal: a line scan that stops at a torn
/// tail, the fresh-start rule of a resume, a thread-safe fsync'd line
/// writer, and the interleaved shard partition. See docs/campaigns.md.

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "core/annotations.hpp"
#include "core/sync.hpp"

namespace flim::core {

/// Where the valid prefix of a scanned journal ends.
struct JournalScan {
  /// Bytes of the header and every accepted record line; a resumed writer
  /// truncates the file here before appending.
  std::size_t valid_prefix_bytes = 0;
  /// True when a torn or malformed tail was ignored after the valid prefix.
  bool truncated_tail = false;
};

/// Reads the journal at `path`: the first line goes to `on_header`, every
/// later newline-terminated line (without its newline) to `on_record`. A
/// JsonError from `on_record`, or a last line without a newline, ends the
/// valid prefix. Throws std::invalid_argument naming `kind` ("run file") and
/// `path` when the file cannot be opened, has no complete header line, or
/// `on_header` throws JsonError; other exceptions propagate unchanged.
JournalScan scan_journal(
    const std::string& path, const std::string& kind,
    const std::function<void(const std::string&)>& on_header,
    const std::function<void(const std::string&)>& on_record);

/// The fresh-start rule of a resume: false (start fresh) when `path` is
/// missing, empty, or a newline-less prefix of a header line beginning with
/// `header_tag` (a kill landed before the header was durable); true (load
/// it) when its first line is complete. Anything else throws
/// std::invalid_argument and leaves the file untouched, so a mistyped path
/// naming some other file fails loudly instead of being truncated.
bool journal_to_resume(const std::string& path, std::string_view header_tag,
                       const std::string& kind);

/// Append-only journal writer. append() writes one complete line with a
/// single fwrite under the mutex -- concurrent producers never interleave
/// partial lines -- then fsyncs it, or only flushes it when fsync is off.
class JournalWriter {
 public:
  /// Creates (or truncates) `path` and its parent directories, then writes
  /// `header_line` as append() would. `kind` names the file in errors.
  JournalWriter(const std::string& path, const std::string& kind,
                const std::string& header_line, bool fsync_each_line);

  /// Reopens an existing journal for appending after truncating it to
  /// `valid_prefix_bytes` (from a scan), so a torn tail left by a kill can
  /// never run into the lines appended after it.
  static JournalWriter resume(const std::string& path, const std::string& kind,
                              std::size_t valid_prefix_bytes,
                              bool fsync_each_line);

  /// Appends `line` and a newline, then syncs. Thread-safe.
  void append(const std::string& line);

  /// The journal being written.
  const std::string& path() const { return path_; }

 private:
  JournalWriter(std::string path, std::string kind, bool fsync_each_line);

  struct FileCloser {
    void operator()(std::FILE* f) const { std::fclose(f); }
  };

  std::string path_;
  std::string kind_;
  /// Heap-allocated (never null) so the writer stays movable; a moved-from
  /// writer is only good for destruction.
  std::unique_ptr<Mutex> mutex_;
  std::unique_ptr<std::FILE, FileCloser> file_ FLIM_PT_GUARDED_BY(*mutex_);
  bool fsync_each_line_ = true;
};

/// The one shard-identity check: throws std::invalid_argument unless
/// 0 <= shard_index < shard_count. `where`, when set, names the source.
void check_shard(int shard_index, int shard_count,
                 const std::string& where = "");

/// True when `index` belongs to shard `shard_index` of `shard_count` under
/// the interleaved partition (index % count == shard_index). Like
/// shard_owned_count, it runs check_shard first.
bool shard_owns(std::uint64_t index, int shard_index, int shard_count);

/// How many of the indices [0, total) the shard owns: total / count, plus
/// one when shard_index < total % count.
std::uint64_t shard_owned_count(std::uint64_t total, int shard_index,
                                int shard_count);

}  // namespace flim::core
