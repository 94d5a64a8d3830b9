#include "util/table.h"

#include <cstdio>
#include <sstream>

#include "util/check.h"

namespace bitpush {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  BITPUSH_CHECK(!headers_.empty());
}

Table& Table::NewRow() {
  if (!rows_.empty()) {
    BITPUSH_CHECK_EQ(rows_.back().size(), headers_.size())
        << "previous row incomplete";
  }
  rows_.emplace_back();
  return *this;
}

Table& Table::AddCell(const std::string& value) {
  BITPUSH_CHECK(!rows_.empty()) << "call NewRow() first";
  BITPUSH_CHECK_LT(rows_.back().size(), headers_.size()) << "row overflow";
  rows_.back().push_back(value);
  return *this;
}

Table& Table::AddInt(int64_t value) { return AddCell(std::to_string(value)); }

Table& Table::AddDouble(double value, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*g", precision, value);
  return AddCell(buffer);
}

std::string Table::ToString() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (row[c].size() > widths[c]) widths[c] = row[c].size();
    }
  }
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (size_t c = 0; c < cells.size(); ++c) {
      if (c > 0) out << "  ";
      out << cells[c];
      for (size_t pad = cells[c].size(); pad < widths[c]; ++pad) out << ' ';
    }
    out << '\n';
  };
  emit_row(headers_);
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

void Table::Print() const { std::fputs(ToString().c_str(), stdout); }

std::string Table::ToCsv() const {
  std::ostringstream out;
  auto emit_cell = [&](const std::string& cell) {
    if (cell.find_first_of(",\"\n") == std::string::npos) {
      out << cell;
      return;
    }
    out << '"';
    for (const char c : cell) {
      if (c == '"') out << '"';
      out << c;
    }
    out << '"';
  };
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (size_t c = 0; c < cells.size(); ++c) {
      if (c > 0) out << ',';
      emit_cell(cells[c]);
    }
    out << '\n';
  };
  emit_row(headers_);
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

}  // namespace bitpush
