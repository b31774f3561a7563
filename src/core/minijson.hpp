// Minimal JSON parsing for line-delimited protocols and run files.
//
// The durable store (exp/store) and the fleet wire protocol (fleet/wire)
// both speak one-object-per-line JSON restricted to numbers, strings, and
// arrays of either -- small enough that a dependency-free recursive parser
// is simpler and more auditable than any third-party library. Parse
// failures throw JsonError, a plain struct (not a std::exception), so
// callers are forced to decide explicitly what a malformed line means in
// their domain: the store maps it to "corrupt tail", the wire layer to a
// protocol violation.
#pragma once

/// \file
/// Minimal JSON values and the one-line object parser shared by the durable
/// campaign store and the fleet wire protocol.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace flim::core {

/// Thrown (by value) on malformed JSON. Deliberately not a std::exception:
/// a catch(...) or catch(const std::exception&) handler must not silently
/// swallow protocol/format violations.
struct JsonError {
  std::string what;
};

/// One parsed JSON value: a number, a string, or an array of values.
/// Objects only appear at the top level (one per line) and are returned as
/// maps by parse_json_object_line.
struct JsonValue {
  enum class Kind { kNumber, kString, kArray };
  Kind kind = Kind::kNumber;
  double number = 0.0;
  std::string text;
  std::vector<JsonValue> items;
};

/// Parses one line holding exactly one JSON object of string keys to
/// number/string/array values. Trailing non-whitespace content after the
/// object is an error. Throws JsonError on malformed input.
std::map<std::string, JsonValue> parse_json_object_line(
    const std::string& line);

/// Field accessors for parsed objects; each throws JsonError when the key
/// is missing or holds the wrong kind.
const JsonValue& json_field(const std::map<std::string, JsonValue>& obj,
                            const char* key);
double json_number(const std::map<std::string, JsonValue>& obj,
                   const char* key);
std::string json_string(const std::map<std::string, JsonValue>& obj,
                        const char* key);
const std::vector<JsonValue>& json_array(
    const std::map<std::string, JsonValue>& obj, const char* key);

/// Reads a 64-bit unsigned value stored as a string (JSON numbers decay to
/// binary64, which cannot hold every such value). Throws JsonError unless
/// the string is all decimal digits and fits in 64 bits.
std::uint64_t json_u64_string(const std::map<std::string, JsonValue>& obj,
                              const char* key);

/// Checked conversion of a parsed number to integer type T (int or
/// std::uint64_t): throws JsonError unless `v` is a number that is finite,
/// integral and inside T's range. Works on array elements; `what` names
/// the value in the error.
template <typename T>
T json_int(const JsonValue& v, const std::string& what);

extern template int json_int<int>(const JsonValue&, const std::string&);
extern template std::uint64_t json_int<std::uint64_t>(const JsonValue&,
                                                      const std::string&);

/// json_int over field `key` of a parsed object.
template <typename T>
T json_int(const std::map<std::string, JsonValue>& obj, const char* key) {
  return json_int<T>(json_field(obj, key), std::string("field ") + key);
}

}  // namespace flim::core
