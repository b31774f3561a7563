#include "core/minijson.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <type_traits>

namespace flim::core {

namespace {

class Parser {
 public:
  explicit Parser(const std::string& line)
      : p_(line.c_str()), end_(line.c_str() + line.size()) {}

  std::map<std::string, JsonValue> parse_object_line() {
    expect('{');
    std::map<std::string, JsonValue> out;
    skip_ws();
    if (!eat('}')) {
      while (true) {
        std::string key = parse_string();
        expect(':');
        out.emplace(std::move(key), parse_value());
        if (eat('}')) break;
        expect(',');
      }
    }
    skip_ws();
    if (p_ != end_) fail("trailing content after object");
    return out;
  }

 private:
  [[noreturn]] void fail(const std::string& what) { throw JsonError{what}; }

  void skip_ws() {
    while (p_ < end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\r')) ++p_;
  }

  bool eat(char c) {
    skip_ws();
    if (p_ < end_ && *p_ == c) {
      ++p_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!eat(c)) fail(std::string("expected '") + c + "'");
  }

  std::string parse_string() {
    skip_ws();
    if (p_ >= end_ || *p_ != '"') fail("expected string");
    ++p_;
    std::string out;
    while (p_ < end_ && *p_ != '"') {
      char c = *p_++;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (p_ >= end_) fail("unterminated escape");
      const char e = *p_++;
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (end_ - p_ < 4) fail("truncated \\u escape");
          unsigned v = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = *p_++;
            v <<= 4;
            if (h >= '0' && h <= '9') v |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') v |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') v |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // The writers only emit \u00xx for control bytes; decode the BMP
          // anyway so hand-edited files stay loadable.
          if (v < 0x80) {
            out += static_cast<char>(v);
          } else if (v < 0x800) {
            out += static_cast<char>(0xC0 | (v >> 6));
            out += static_cast<char>(0x80 | (v & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (v >> 12));
            out += static_cast<char>(0x80 | ((v >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (v & 0x3F));
          }
          break;
        }
        default: fail("bad escape");
      }
    }
    if (p_ >= end_) fail("unterminated string");
    ++p_;
    return out;
  }

  double parse_number() {
    skip_ws();
#if defined(__cpp_lib_to_chars) && __cpp_lib_to_chars >= 201611L
    // Locale-independent (strtod honors LC_NUMERIC, which would make an
    // embedding app's setlocale() call silently reject every stored point
    // as a corrupt tail) and bounded by the line end.
    double v = 0.0;
    const auto result = std::from_chars(p_, end_, v);
    if (result.ec != std::errc() || result.ptr == p_) fail("expected number");
    p_ = result.ptr;
    return v;
#else
    char* num_end = nullptr;
    const double v = std::strtod(p_, &num_end);
    if (num_end == p_) fail("expected number");
    p_ = num_end;
    return v;
#endif
  }

  JsonValue parse_value() {
    skip_ws();
    if (p_ >= end_) fail("unexpected end of line");
    JsonValue v;
    if (*p_ == '"') {
      v.kind = JsonValue::Kind::kString;
      v.text = parse_string();
      return v;
    }
    if (*p_ == '[') {
      ++p_;
      v.kind = JsonValue::Kind::kArray;
      skip_ws();
      if (eat(']')) return v;
      while (true) {
        v.items.push_back(parse_value());
        if (eat(']')) break;
        expect(',');
      }
      return v;
    }
    v.kind = JsonValue::Kind::kNumber;
    v.number = parse_number();
    return v;
  }

  const char* p_;
  const char* end_;
};

}  // namespace

std::map<std::string, JsonValue> parse_json_object_line(
    const std::string& line) {
  return Parser(line).parse_object_line();
}

const JsonValue& json_field(const std::map<std::string, JsonValue>& obj,
                            const char* key) {
  const auto it = obj.find(key);
  if (it == obj.end()) throw JsonError{std::string("missing field ") + key};
  return it->second;
}

double json_number(const std::map<std::string, JsonValue>& obj,
                   const char* key) {
  const JsonValue& v = json_field(obj, key);
  if (v.kind != JsonValue::Kind::kNumber) {
    throw JsonError{std::string("field ") + key + " is not a number"};
  }
  return v.number;
}

std::string json_string(const std::map<std::string, JsonValue>& obj,
                        const char* key) {
  const JsonValue& v = json_field(obj, key);
  if (v.kind != JsonValue::Kind::kString) {
    throw JsonError{std::string("field ") + key + " is not a string"};
  }
  return v.text;
}

const std::vector<JsonValue>& json_array(
    const std::map<std::string, JsonValue>& obj, const char* key) {
  const JsonValue& v = json_field(obj, key);
  if (v.kind != JsonValue::Kind::kArray) {
    throw JsonError{std::string("field ") + key + " is not an array"};
  }
  return v.items;
}

std::uint64_t json_u64_string(const std::map<std::string, JsonValue>& obj,
                              const char* key) {
  const std::string text = json_string(obj, key);
  const char* end = text.data() + text.size();
  std::uint64_t value = 0;
  // Unsigned from_chars takes decimal digits only: no sign, no blanks.
  const auto result = std::from_chars(text.data(), end, value);
  if (text.empty() || result.ec != std::errc() || result.ptr != end) {
    throw JsonError{std::string("field ") + key +
                    " is not a 64-bit unsigned integer: \"" + text + "\""};
  }
  return value;
}

template <typename T>
T json_int(const JsonValue& v, const std::string& what) {
  if (v.kind != JsonValue::Kind::kNumber) {
    throw JsonError{what + " is not a number"};
  }
  // T holds [-2^digits, 2^digits) when signed and [0, 2^digits) otherwise.
  // Both bounds are exact in binary64; NaN fails every comparison and the
  // infinities fail one, so the cast below is always defined.
  const double limit = std::ldexp(1.0, std::numeric_limits<T>::digits);
  const double d = v.number;
  if (!(d >= (std::is_signed_v<T> ? -limit : 0.0) && d < limit) ||
      d != std::trunc(d)) {
    char text[32] = {};
    std::snprintf(text, sizeof text, "%.15g", d);
    throw JsonError{what + " is not an integer in range: " + text};
  }
  return static_cast<T>(d);
}

template int json_int<int>(const JsonValue&, const std::string&);
template std::uint64_t json_int<std::uint64_t>(const JsonValue&,
                                               const std::string&);

}  // namespace flim::core
