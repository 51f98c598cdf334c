// Minimal JSON document model for the observability layer.
//
// Metrics snapshots leave the process as JSON (the CI pipeline gates on
// them), and the test suite round-trips snapshots back in, so both a
// writer and a reader live here, with the one checked file writer.  The
// model is deliberately small: the six JSON kinds, insertion-ordered
// objects (stable, diffable output), and full-precision doubles that
// survive dump -> parse -> dump.  It is not a general-purpose JSON
// library — no comments, no trailing commas, no \u surrogate pairs beyond
// the BMP — just the subset metrics need.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace mwr::obs {

/// One JSON value: null, bool, number, string, array, or object.
/// Objects preserve insertion order so snapshots diff cleanly run-to-run.
class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() noexcept : value_(nullptr) {}
  JsonValue(std::nullptr_t) noexcept : value_(nullptr) {}
  JsonValue(bool b) noexcept : value_(b) {}
  JsonValue(double d) noexcept : value_(d) {}
  JsonValue(std::int64_t i) : value_(static_cast<double>(i)) {}
  JsonValue(std::uint64_t u) : value_(static_cast<double>(u)) {}
  JsonValue(const char* s) : value_(std::string(s)) {}
  JsonValue(std::string s) : value_(std::move(s)) {}
  JsonValue(Array a) : value_(std::move(a)) {}
  JsonValue(Object o) : value_(std::move(o)) {}

  [[nodiscard]] static JsonValue object() { return JsonValue(Object{}); }
  [[nodiscard]] static JsonValue array() { return JsonValue(Array{}); }

  [[nodiscard]] bool is_null() const noexcept;
  [[nodiscard]] bool is_bool() const noexcept;
  [[nodiscard]] bool is_number() const noexcept;
  [[nodiscard]] bool is_string() const noexcept;
  [[nodiscard]] bool is_array() const noexcept;
  [[nodiscard]] bool is_object() const noexcept;

  /// Typed accessors; throw std::runtime_error on kind mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Object access.  at() throws std::out_of_range for a missing key.
  [[nodiscard]] bool contains(const std::string& key) const;
  [[nodiscard]] const JsonValue& at(const std::string& key) const;
  /// Inserts or overwrites `key` (object only; converts a null in place).
  void set(std::string key, JsonValue value);

  /// Array append (array only; converts a null in place).
  void push_back(JsonValue value);

  [[nodiscard]] std::size_t size() const;

  /// Serializes the value.  indent < 0 emits compact one-line JSON;
  /// indent >= 0 pretty-prints with that many spaces per level.  Doubles
  /// are written with enough digits to round-trip; integral doubles are
  /// written without a fractional part (counter values stay integers).
  [[nodiscard]] std::string dump(int indent = -1) const;

  /// Parses a complete JSON document; throws std::runtime_error with a
  /// byte offset on malformed input or trailing garbage.
  [[nodiscard]] static JsonValue parse(const std::string& text);

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object>
      value_;
};

/// Writes `doc` pretty-printed (2-space indent, trailing newline) to
/// `path`, then closes the file so the buffered bytes are flushed before
/// the check: a failed open, write, flush or close throws
/// std::runtime_error naming `path`.  Metrics snapshots and outcome
/// documents are written through here.
void write_json_file(const JsonValue& doc, const std::string& path);

}  // namespace mwr::obs
