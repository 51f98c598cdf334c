#include "util/table.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace mwr::util {

void Table::set_header(std::vector<std::string> header) {
  if (!rows_.empty())
    throw std::logic_error("Table::set_header after rows were added");
  header_ = std::move(header);
}

void Table::add_row(std::vector<std::string> row) {
  if (row.size() != header_.size())
    throw std::invalid_argument("Table row width != header width");
  rows_.push_back(std::move(row));
}

void Table::add_separator() { rows_.emplace_back(); }

std::size_t Table::rows() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(rows_.begin(), rows_.end(),
                    [](const auto& r) { return !r.empty(); }));
}

std::string Table::to_ascii() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());
  }

  const auto rule = [&] {
    std::string s = "+";
    for (auto w : widths) s += std::string(w + 2, '-') + "+";
    return s + "\n";
  }();

  const auto render_row = [&](const std::vector<std::string>& row) {
    std::string s = "|";
    for (std::size_t c = 0; c < row.size(); ++c) {
      s += " " + row[c] + std::string(widths[c] - row[c].size(), ' ') + " |";
    }
    return s + "\n";
  };

  std::ostringstream out;
  out << "=== " << title_ << " ===\n" << rule << render_row(header_) << rule;
  for (const auto& row : rows_) {
    if (row.empty()) {
      out << rule;
    } else {
      out << render_row(row);
    }
  }
  out << rule;
  return out.str();
}

namespace {
std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (char ch : cell) {
    if (ch == '"') out += '"';
    out += ch;
  }
  return out + "\"";
}
}  // namespace

std::string Table::to_csv() const {
  std::ostringstream out;
  for (std::size_t c = 0; c < header_.size(); ++c) {
    if (c) out << ",";
    out << csv_escape(header_[c]);
  }
  out << "\n";
  for (const auto& row : rows_) {
    if (row.empty()) continue;
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) out << ",";
      out << csv_escape(row[c]);
    }
    out << "\n";
  }
  return out.str();
}

void Table::emit(std::ostream& os, const std::string& csv_path) const {
  os << to_ascii() << "\n";
  if (!csv_path.empty()) {
    std::ofstream f(csv_path);
    if (!f) throw std::runtime_error("cannot open CSV output: " + csv_path);
    f << to_csv();
    // close() flushes; a full disk often shows only here.
    f.close();
    if (!f) throw std::runtime_error("CSV write failed: " + csv_path);
  }
}

std::string fmt_mean_sd(double mean, double sd, int precision) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(precision) << mean << " (" << sd << ")";
  return out.str();
}

std::string fmt_fixed(double x, int precision) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(precision) << x;
  return out.str();
}

}  // namespace mwr::util
