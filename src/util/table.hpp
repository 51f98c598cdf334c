// Table rendering for the benchmark harness.
//
// Every bench binary reproduces one of the paper's tables or figures and
// prints it in the same row/column layout the paper uses; Table supports
// aligned ASCII output for the terminal and CSV output for downstream
// plotting.  Cells are strings — formatting helpers cover the paper's
// "mean (sd)" and ">= 10000" cell styles.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace mwr::util {

/// A simple column-aligned table with a title and a header row.
class Table {
 public:
  explicit Table(std::string title) : title_(std::move(title)) {}

  /// Sets the header row; must be called before adding rows.
  void set_header(std::vector<std::string> header);

  /// Appends a row; its width must match the header.
  void add_row(std::vector<std::string> row);

  /// Inserts a visual separator (rendered as a rule in ASCII output and
  /// skipped in CSV output).  Used between dataset families, matching the
  /// paper's grouped tables.
  void add_separator();

  [[nodiscard]] std::size_t rows() const noexcept;
  [[nodiscard]] const std::string& title() const noexcept { return title_; }

  /// Renders an aligned ASCII table.
  [[nodiscard]] std::string to_ascii() const;

  /// Renders RFC-4180-ish CSV (quotes cells containing commas/quotes).
  [[nodiscard]] std::string to_csv() const;

  /// Prints ASCII to the stream and, when csv_path is non-empty, writes the
  /// CSV rendering to that file (throws std::runtime_error on I/O failure).
  void emit(std::ostream& os, const std::string& csv_path = "") const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  // Separator rows are encoded as empty vectors.
  std::vector<std::vector<std::string>> rows_;
};

/// Formats the paper's "mean (sd)" cell, e.g. "94.5 (5.6)".
[[nodiscard]] std::string fmt_mean_sd(double mean, double sd, int precision = 1);

/// Formats a double with fixed precision.
[[nodiscard]] std::string fmt_fixed(double x, int precision = 1);

}  // namespace mwr::util
