// Tabular result reporting: pretty-printed tables for the terminal and CSV
// files for downstream plotting. Every bench binary emits its figure/table
// through this facility so the output format is uniform.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace flim::core {

/// A rectangular table of string cells with named columns.
class Table {
 public:
  explicit Table(std::vector<std::string> columns);

  /// Appends a row; must have exactly one cell per column.
  void add_row(std::vector<std::string> cells);

  /// Convenience: formats arbitrary streamable values into a row.
  template <typename... Ts>
  void add(const Ts&... values) {
    std::vector<std::string> cells;
    cells.reserve(sizeof...(values));
    (cells.push_back(format_cell(values)), ...);
    add_row(std::move(cells));
  }

  std::size_t num_rows() const { return rows_.size(); }
  std::size_t num_columns() const { return columns_.size(); }
  const std::vector<std::string>& columns() const { return columns_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

  /// Renders an aligned ASCII table.
  std::string to_ascii() const;

  /// Renders RFC-4180-ish CSV (quotes cells containing commas/quotes).
  std::string to_csv() const;

  /// Renders a JSON array of row objects keyed by column name; every cell
  /// value is emitted as a JSON string (cells are untyped text).
  std::string to_json() const;

  /// Writes CSV to `path`, creating parent directories if needed.
  void write_csv(const std::string& path) const;

  /// Writes to_json() to `path`, creating parent directories if needed.
  void write_json(const std::string& path) const;

 private:
  static std::string format_cell(const std::string& s) { return s; }
  static std::string format_cell(const char* s) { return s; }
  static std::string format_cell(double v);
  static std::string format_cell(float v) { return format_cell(double{v}); }
  static std::string format_cell(int v) { return std::to_string(v); }
  static std::string format_cell(long v) { return std::to_string(v); }
  static std::string format_cell(long long v) { return std::to_string(v); }
  static std::string format_cell(unsigned v) { return std::to_string(v); }
  static std::string format_cell(unsigned long v) { return std::to_string(v); }
  static std::string format_cell(unsigned long long v) {
    return std::to_string(v);
  }

  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision.
std::string format_double(double v, int precision = 2);

/// Formats a double with enough significant digits (17) that a
/// correctly-rounded strtod reproduces the exact IEEE-754 bits. Campaign run
/// files persist summaries through this so a resumed or merged campaign
/// emits byte-identical CSV to an uninterrupted run.
std::string format_double_roundtrip(double v);

/// Shortest decimal that round-trips to the exact IEEE-754 bits ("0.05",
/// not "0.050000000000000003"). Used where exact values must stay
/// human-readable: canonical fault expressions and their fingerprints.
std::string format_double_shortest(double v);

/// Escapes `s` for embedding inside a JSON string literal (the surrounding
/// quotes are not added).
std::string json_escape(const std::string& s);

/// json_escape(s) inside double quotes: a complete JSON string literal.
std::string json_quote(const std::string& s);

/// Prints a banner line ("== title ==") followed by the table.
void print_table(std::ostream& os, const std::string& title, const Table& t);

/// Resolves the directory benches write CSV results into.
/// Honors $FLIM_RESULTS_DIR, defaulting to "results".
std::string results_dir();

}  // namespace flim::core
