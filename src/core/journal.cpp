#include "core/journal.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/check.hpp"
#include "core/minijson.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace flim::core {

JournalScan scan_journal(
    const std::string& path, const std::string& kind,
    const std::function<void(const std::string&)>& on_header,
    const std::function<void(const std::string&)>& on_record) {
  std::ifstream in(path, std::ios::binary);
  FLIM_REQUIRE(in.good(), "cannot open " + kind + ": " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string data = buf.str();

  JournalScan scan;
  while (scan.valid_prefix_bytes < data.size()) {
    const std::size_t pos = scan.valid_prefix_bytes;
    const std::size_t nl = data.find('\n', pos);
    if (nl == std::string::npos) {
      // No terminating newline: a torn final write; the fragment is dropped.
      scan.truncated_tail = true;
      break;
    }
    try {
      (pos == 0 ? on_header : on_record)(data.substr(pos, nl - pos));
    } catch (const JsonError& e) {
      FLIM_REQUIRE(pos != 0,
                   "bad " + kind + " header in " + path + ": " + e.what);
      // Corrupt tail: accept the valid prefix, ignore the rest.
      scan.truncated_tail = true;
      break;
    }
    scan.valid_prefix_bytes = nl + 1;
  }
  FLIM_REQUIRE(scan.valid_prefix_bytes > 0,
               kind + " has no header line: " + path);
  return scan;
}

bool journal_to_resume(const std::string& path, std::string_view header_tag,
                       const std::string& kind) {
  if (!std::filesystem::exists(path)) return false;
  std::ifstream in(path, std::ios::binary);
  FLIM_REQUIRE(in.good(), "cannot open " + kind + ": " + path);
  std::string first;
  if (std::getline(in, first) && !in.eof()) return true;
  // No newline anywhere, so `first` is the whole file (maybe empty).
  const std::size_t n = std::min(first.size(), header_tag.size());
  FLIM_REQUIRE(std::string_view(first).substr(0, n) == header_tag.substr(0, n),
               "refusing to overwrite " + path +
                   ": it holds neither a complete line nor a torn " + kind +
                   " header");
  return false;
}

JournalWriter::JournalWriter(std::string path, std::string kind,
                             bool fsync_each_line)
    : path_(std::move(path)), kind_(std::move(kind)),
      mutex_(std::make_unique<Mutex>()), fsync_each_line_(fsync_each_line) {}

JournalWriter::JournalWriter(const std::string& path, const std::string& kind,
                             const std::string& header_line,
                             bool fsync_each_line)
    : JournalWriter(path, kind, fsync_each_line) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path());
  }
  file_.reset(std::fopen(path.c_str(), "wb"));
  FLIM_REQUIRE(file_ != nullptr, "cannot create " + kind + ": " + path);
  append(header_line);
}

JournalWriter JournalWriter::resume(const std::string& path,
                                    const std::string& kind,
                                    std::size_t valid_prefix_bytes,
                                    bool fsync_each_line) {
  FLIM_REQUIRE(std::filesystem::exists(path),
               "cannot resume missing " + kind + ": " + path);
  // Drop any torn tail before appending: once truncated, the file is a
  // clean prefix again and every future line lands on a line boundary.
  std::error_code ec;
  std::filesystem::resize_file(path, valid_prefix_bytes, ec);
  FLIM_REQUIRE(!ec, "cannot truncate " + kind + " tail: " + path);
  JournalWriter w(path, kind, fsync_each_line);
  w.file_.reset(std::fopen(path.c_str(), "ab"));
  FLIM_REQUIRE(w.file_ != nullptr,
               "cannot open " + kind + " for append: " + path);
  return w;
}

void JournalWriter::append(const std::string& line) {
  FLIM_REQUIRE(mutex_ != nullptr, "journal writer was moved from");
  const std::string with_newline = line + '\n';
  const MutexLock lock(*mutex_);
  const std::size_t written = std::fwrite(with_newline.data(), 1,
                                          with_newline.size(), file_.get());
  FLIM_REQUIRE(written == with_newline.size(),
               "short write to " + kind_ + ": " + path_);
  std::fflush(file_.get());
#if defined(__unix__) || defined(__APPLE__)
  if (fsync_each_line_) ::fsync(fileno(file_.get()));
#endif
}

void check_shard(int shard_index, int shard_count, const std::string& where) {
  FLIM_REQUIRE(shard_count >= 1 && shard_index >= 0 &&
                   shard_index < shard_count,
               "shard index must be in [0, shard_count), got " +
                   std::to_string(shard_index) + "/" +
                   std::to_string(shard_count) +
                   (where.empty() ? "" : " in " + where));
}

bool shard_owns(std::uint64_t index, int shard_index, int shard_count) {
  check_shard(shard_index, shard_count);
  return index % static_cast<std::uint64_t>(shard_count) ==
         static_cast<std::uint64_t>(shard_index);
}

std::uint64_t shard_owned_count(std::uint64_t total, int shard_index,
                                int shard_count) {
  check_shard(shard_index, shard_count);
  const auto count = static_cast<std::uint64_t>(shard_count);
  const auto index = static_cast<std::uint64_t>(shard_index);
  return total / count + (index < total % count ? 1 : 0);
}

}  // namespace flim::core
