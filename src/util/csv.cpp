#include "util/csv.hpp"

#include <iomanip>
#include <limits>
#include <stdexcept>

namespace ebrc::util {

CsvWriter::CsvWriter(const std::string& path, const std::vector<std::string>& header)
    : out_(path), arity_(header.size()) {
  if (!out_) throw std::runtime_error("CsvWriter: cannot open " + path);
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (i) out_ << ',';
    out_ << header[i];
  }
  out_ << '\n';
}

void CsvWriter::row(const std::vector<double>& values) {
  if (values.size() != arity_) throw std::invalid_argument("CsvWriter: row arity mismatch");
  out_ << std::setprecision(std::numeric_limits<double>::max_digits10);
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out_ << ',';
    out_ << values[i];
  }
  out_ << '\n';
  ++rows_;
}

}  // namespace ebrc::util
