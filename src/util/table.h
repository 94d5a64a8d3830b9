// Console table printing for experiment output.
//
// The figure-reproduction binaries in bench/ print the series the paper
// plots; Table keeps the columns aligned so the output is readable both by
// humans and by simple downstream plotting scripts (the format is also valid
// tab-less CSV when printed with Separator(",")).

#ifndef BITPUSH_UTIL_TABLE_H_
#define BITPUSH_UTIL_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace bitpush {

class Table {
 public:
  // Creates a table with the given column headers.
  explicit Table(std::vector<std::string> headers);

  // Starts a new row. Subsequent Add* calls fill it left to right.
  Table& NewRow();
  Table& AddCell(const std::string& value);
  Table& AddInt(int64_t value);
  // `precision` is the number of significant digits (printf %.*g).
  Table& AddDouble(double value, int precision = 5);

  // Renders the table with space-padded, aligned columns.
  std::string ToString() const;
  // Renders as RFC-4180-style CSV (cells containing commas, quotes or
  // newlines are quoted; embedded quotes doubled).
  std::string ToCsv() const;
  // Writes ToString() to stdout.
  void Print() const;

  // Raw cells, for exporters that re-serialize the table (see
  // bench/bench_common.h).
  const std::vector<std::string>& headers() const { return headers_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace bitpush

#endif  // BITPUSH_UTIL_TABLE_H_
