#include "core/report.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "core/check.hpp"

namespace flim::core {

Table::Table(std::vector<std::string> columns) : columns_(std::move(columns)) {
  FLIM_REQUIRE(!columns_.empty(), "a table needs at least one column");
}

void Table::add_row(std::vector<std::string> cells) {
  FLIM_REQUIRE(cells.size() == columns_.size(),
               "row width must match column count");
  rows_.push_back(std::move(cells));
}

std::string Table::format_cell(double v) { return format_double(v, 4); }

std::string Table::to_ascii() const {
  std::vector<std::size_t> widths(columns_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    widths[c] = columns_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    os << "|";
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << ' ' << std::left << std::setw(static_cast<int>(widths[c]))
         << row[c] << " |";
    }
    os << '\n';
  };
  auto emit_rule = [&] {
    os << "+";
    for (std::size_t c = 0; c < widths.size(); ++c) {
      os << std::string(widths[c] + 2, '-') << "+";
    }
    os << '\n';
  };
  emit_rule();
  emit_row(columns_);
  emit_rule();
  for (const auto& row : rows_) emit_row(row);
  emit_rule();
  return os.str();
}

namespace {

std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"') out += "\"\"";
    else out += ch;
  }
  out += '"';
  return out;
}

}  // namespace

std::string Table::to_csv() const {
  std::ostringstream os;
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    if (c) os << ',';
    os << csv_escape(columns_[c]);
  }
  os << '\n';
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) os << ',';
      os << csv_escape(row[c]);
    }
    os << '\n';
  }
  return os.str();
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

std::string json_quote(const std::string& s) {
  return '"' + json_escape(s) + '"';
}

namespace {

void write_text_file(const std::string& path, const std::string& text,
                     const char* what) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path());
  }
  std::ofstream out(path, std::ios::trunc);
  FLIM_REQUIRE(out.good(),
               "cannot open " + std::string(what) + " output file: " + path);
  out << text;
}

}  // namespace

std::string Table::to_json() const {
  std::ostringstream os;
  os << "[\n";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    os << "  {";
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      if (c) os << ", ";
      os << '"' << json_escape(columns_[c]) << "\": \""
         << json_escape(rows_[r][c]) << '"';
    }
    os << (r + 1 < rows_.size() ? "},\n" : "}\n");
  }
  os << "]\n";
  return os.str();
}

void Table::write_csv(const std::string& path) const {
  write_text_file(path, to_csv(), "CSV");
}

void Table::write_json(const std::string& path) const {
  write_text_file(path, to_json(), "JSON");
}

std::string format_double(double v, int precision) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os << std::setprecision(precision) << v;
  return os.str();
}

std::string format_double_roundtrip(double v) {
  // 17 significant digits are sufficient (and necessary) for binary64 ->
  // decimal -> binary64 to be the identity under correct rounding. Prefer
  // std::to_chars: it is locale-independent, where %.17g would render a
  // decimal comma under e.g. LC_NUMERIC=de_DE and corrupt run files and
  // spec fingerprints of an embedding application that calls setlocale.
#if defined(__cpp_lib_to_chars) && __cpp_lib_to_chars >= 201611L
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), v,
                                    std::chars_format::general, 17);
  FLIM_REQUIRE(result.ec == std::errc(), "to_chars failed on a double");
  return std::string(buf, result.ptr);
#else
  // Pre-C++17-FP-charconv toolchains (GCC 10): printf-compatible output;
  // only locale-correct when LC_NUMERIC stays "C".
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
#endif
}

std::string format_double_shortest(double v) {
#if defined(__cpp_lib_to_chars) && __cpp_lib_to_chars >= 201611L
  // Plain to_chars is the shortest representation that parses back to the
  // exact same binary64 value (and is locale-independent).
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), v);
  FLIM_REQUIRE(result.ec == std::errc(), "to_chars failed on a double");
  return std::string(buf, result.ptr);
#else
  return format_double_roundtrip(v);
#endif
}

void print_table(std::ostream& os, const std::string& title, const Table& t) {
  os << "== " << title << " ==\n" << t.to_ascii();
}

std::string results_dir() {
  if (const char* env = std::getenv("FLIM_RESULTS_DIR")) {
    return env;
  }
  return "results";
}

}  // namespace flim::core
