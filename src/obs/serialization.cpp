#include "obs/serialization.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>

namespace mwr::obs {

namespace {

[[noreturn]] void kind_error(const char* want) {
  throw std::runtime_error(std::string("JsonValue: not a ") + want);
}

void append_escaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void append_number(std::string& out, double d) {
  // JSON has no inf/nan; clamp to the largest finite double so a snapshot
  // with an empty histogram min/max still parses everywhere.
  if (std::isnan(d)) {
    out += "null";
    return;
  }
  if (std::isinf(d)) {
    d = d > 0 ? std::numeric_limits<double>::max()
              : std::numeric_limits<double>::lowest();
  }
  char buf[40];
  if (d == std::floor(d) && std::fabs(d) < 9.007199254740992e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", d);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", d);
  }
  out += buf;
}

struct Parser {
  const std::string& text;
  std::size_t pos = 0;

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("JSON parse error at byte " +
                             std::to_string(pos) + ": " + what);
  }

  void skip_whitespace() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }

  char peek() {
    if (pos >= text.size()) fail("unexpected end of input");
    return text[pos];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos;
  }

  bool consume_literal(const char* literal) {
    std::size_t n = 0;
    while (literal[n] != '\0') ++n;
    if (text.compare(pos, n, literal) != 0) return false;
    pos += n;
    return true;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos >= text.size()) fail("unterminated string");
      const char c = text[pos++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos >= text.size()) fail("unterminated escape");
      const char e = text[pos++];
      switch (e) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          if (pos + 4 > text.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text[pos++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad hex digit in \\u escape");
            }
          }
          // UTF-8 encode (BMP only — enough for metric names).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          fail("bad escape character");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos;
    if (peek() == '-') ++pos;
    while (pos < text.size() &&
           ((text[pos] >= '0' && text[pos] <= '9') || text[pos] == '.' ||
            text[pos] == 'e' || text[pos] == 'E' || text[pos] == '+' ||
            text[pos] == '-')) {
      ++pos;
    }
    const std::string token = text.substr(start, pos - start);
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("malformed number");
    return JsonValue(d);
  }

  JsonValue parse_value() {
    skip_whitespace();
    const char c = peek();
    if (c == '{') {
      ++pos;
      JsonValue::Object obj;
      skip_whitespace();
      if (peek() == '}') {
        ++pos;
        return JsonValue(std::move(obj));
      }
      for (;;) {
        skip_whitespace();
        std::string key = parse_string();
        skip_whitespace();
        expect(':');
        obj.emplace_back(std::move(key), parse_value());
        skip_whitespace();
        if (peek() == ',') {
          ++pos;
          continue;
        }
        expect('}');
        return JsonValue(std::move(obj));
      }
    }
    if (c == '[') {
      ++pos;
      JsonValue::Array arr;
      skip_whitespace();
      if (peek() == ']') {
        ++pos;
        return JsonValue(std::move(arr));
      }
      for (;;) {
        arr.push_back(parse_value());
        skip_whitespace();
        if (peek() == ',') {
          ++pos;
          continue;
        }
        expect(']');
        return JsonValue(std::move(arr));
      }
    }
    if (c == '"') return JsonValue(parse_string());
    if (c == 't') {
      if (!consume_literal("true")) fail("bad literal");
      return JsonValue(true);
    }
    if (c == 'f') {
      if (!consume_literal("false")) fail("bad literal");
      return JsonValue(false);
    }
    if (c == 'n') {
      if (!consume_literal("null")) fail("bad literal");
      return JsonValue(nullptr);
    }
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
    fail("unexpected character");
  }
};

void dump_to(const JsonValue& value, std::string& out, int indent, int depth);

void append_newline_indent(std::string& out, int indent, int depth) {
  if (indent < 0) return;
  out.push_back('\n');
  out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth),
             ' ');
}

void dump_to(const JsonValue& value, std::string& out, int indent, int depth) {
  if (value.is_null()) {
    out += "null";
  } else if (value.is_bool()) {
    out += value.as_bool() ? "true" : "false";
  } else if (value.is_number()) {
    append_number(out, value.as_double());
  } else if (value.is_string()) {
    append_escaped(out, value.as_string());
  } else if (value.is_array()) {
    const auto& arr = value.as_array();
    if (arr.empty()) {
      out += "[]";
      return;
    }
    out.push_back('[');
    for (std::size_t i = 0; i < arr.size(); ++i) {
      if (i) out.push_back(',');
      append_newline_indent(out, indent, depth + 1);
      dump_to(arr[i], out, indent, depth + 1);
    }
    append_newline_indent(out, indent, depth);
    out.push_back(']');
  } else {
    const auto& obj = value.as_object();
    if (obj.empty()) {
      out += "{}";
      return;
    }
    out.push_back('{');
    for (std::size_t i = 0; i < obj.size(); ++i) {
      if (i) out.push_back(',');
      append_newline_indent(out, indent, depth + 1);
      append_escaped(out, obj[i].first);
      out.push_back(':');
      if (indent >= 0) out.push_back(' ');
      dump_to(obj[i].second, out, indent, depth + 1);
    }
    append_newline_indent(out, indent, depth);
    out.push_back('}');
  }
}

}  // namespace

bool JsonValue::is_null() const noexcept {
  return std::holds_alternative<std::nullptr_t>(value_);
}
bool JsonValue::is_bool() const noexcept {
  return std::holds_alternative<bool>(value_);
}
bool JsonValue::is_number() const noexcept {
  return std::holds_alternative<double>(value_);
}
bool JsonValue::is_string() const noexcept {
  return std::holds_alternative<std::string>(value_);
}
bool JsonValue::is_array() const noexcept {
  return std::holds_alternative<Array>(value_);
}
bool JsonValue::is_object() const noexcept {
  return std::holds_alternative<Object>(value_);
}

bool JsonValue::as_bool() const {
  if (!is_bool()) kind_error("bool");
  return std::get<bool>(value_);
}
double JsonValue::as_double() const {
  if (!is_number()) kind_error("number");
  return std::get<double>(value_);
}
const std::string& JsonValue::as_string() const {
  if (!is_string()) kind_error("string");
  return std::get<std::string>(value_);
}
const JsonValue::Array& JsonValue::as_array() const {
  if (!is_array()) kind_error("array");
  return std::get<Array>(value_);
}
const JsonValue::Object& JsonValue::as_object() const {
  if (!is_object()) kind_error("object");
  return std::get<Object>(value_);
}

bool JsonValue::contains(const std::string& key) const {
  for (const auto& [k, v] : as_object()) {
    if (k == key) return true;
  }
  return false;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  for (const auto& [k, v] : as_object()) {
    if (k == key) return v;
  }
  throw std::out_of_range("JsonValue::at: no key \"" + key + "\"");
}

void JsonValue::set(std::string key, JsonValue value) {
  if (is_null()) value_ = Object{};
  if (!is_object()) kind_error("object");
  auto& obj = std::get<Object>(value_);
  for (auto& [k, v] : obj) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  obj.emplace_back(std::move(key), std::move(value));
}

void JsonValue::push_back(JsonValue value) {
  if (is_null()) value_ = Array{};
  if (!is_array()) kind_error("array");
  std::get<Array>(value_).push_back(std::move(value));
}

std::size_t JsonValue::size() const {
  if (is_array()) return std::get<Array>(value_).size();
  if (is_object()) return std::get<Object>(value_).size();
  kind_error("container");
}

std::string JsonValue::dump(int indent) const {
  std::string out;
  dump_to(*this, out, indent, 0);
  return out;
}

JsonValue JsonValue::parse(const std::string& text) {
  Parser parser{text};
  JsonValue value = parser.parse_value();
  parser.skip_whitespace();
  if (parser.pos != text.size()) parser.fail("trailing garbage");
  return value;
}

void write_json_file(const JsonValue& doc, const std::string& path) {
  std::ofstream file(path);
  if (!file) throw std::runtime_error("cannot open " + path);
  file << doc.dump(/*indent=*/2) << "\n";
  // close() flushes; a full disk often shows only here.
  file.close();
  if (!file) throw std::runtime_error("write failed: " + path);
}

}  // namespace mwr::obs
