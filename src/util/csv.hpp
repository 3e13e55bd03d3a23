// CSV writer used by the bench harness to dump figure series.
#pragma once

#include <fstream>
#include <initializer_list>
#include <string>
#include <vector>

namespace ebrc::util {

/// Writes rows of doubles/strings to a CSV file. Values are written with
/// enough precision to round-trip (max_digits10).
class CsvWriter {
 public:
  /// Opens `path` for writing and emits the header row.
  /// Throws std::runtime_error when the file cannot be created.
  CsvWriter(const std::string& path, const std::vector<std::string>& header);

  /// Appends one row; must have the same arity as the header.
  void row(const std::vector<double>& values);

  /// Number of data rows written so far.
  [[nodiscard]] std::size_t rows_written() const noexcept { return rows_; }

 private:
  std::ofstream out_;
  std::size_t arity_;
  std::size_t rows_ = 0;
};

}  // namespace ebrc::util
