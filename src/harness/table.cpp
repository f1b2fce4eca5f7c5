#include "fastcast/harness/table.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "fastcast/common/assert.hpp"

namespace fastcast::harness {

Table::Table(std::string title, std::vector<std::string> columns)
    : title_(std::move(title)), columns_(std::move(columns)) {}

void Table::add_row(std::vector<std::string> cells) {
  FC_ASSERT(cells.size() == columns_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::to_string(const std::string& note) const {
  std::vector<std::size_t> widths(columns_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c) widths[c] = columns_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  std::ostringstream os;
  os << "== " << title_ << "\n";
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << (c == 0 ? "" : "  ");
      os << cells[c];
      os << std::string(widths[c] - cells[c].size(), ' ');
    }
    os << "\n";
  };
  emit_row(columns_);
  std::size_t total = columns_.size() > 0 ? 2 * (columns_.size() - 1) : 0;
  for (std::size_t w : widths) total += w;
  os << std::string(total, '-') << "\n";
  for (const auto& row : rows_) emit_row(row);
  if (!note.empty()) os << "note: " << note << "\n";
  return os.str();
}

void Table::print(const std::string& note) const {
  const std::string s = to_string(note);
  std::fwrite(s.data(), 1, s.size(), stdout);
  std::fflush(stdout);
}

std::string fmt_double(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

std::string fmt_count(double v) {
  char buf[64];
  const int n = std::min(std::snprintf(buf, sizeof buf, "%.0f", v),
                         static_cast<int>(sizeof buf) - 1);
  // Copy the digits with a thousands separator before every third from
  // the right (never right after the sign).
  const int sign = buf[0] == '-' ? 1 : 0;
  std::string s;
  for (int i = 0; i < n; ++i) {
    if (i > sign && (n - i) % 3 == 0) s.push_back(',');
    s.push_back(buf[i]);
  }
  return s;
}

}  // namespace fastcast::harness
