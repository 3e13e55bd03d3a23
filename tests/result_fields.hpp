// Field-by-field bitwise comparison of two ExperimentResults, driven by
// testbed::visit_result: every encoded field is compared and named in the
// failure message, and a field added to the schema is compared without an
// edit here.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "testbed/experiment.hpp"

namespace ebrc::testing {

/// Every encoded field of a result as (path, exact value text), in wire
/// order: doubles as their bit pattern, list items and obs entries by index.
class ResultFields {
 public:
  using Entries = std::vector<std::pair<std::string, std::string>>;

  static Entries of(const testbed::ExperimentResult& r) {
    ResultFields f;
    testbed::visit_result(f, r);
    return std::move(f.entries_);
  }

  void field(workload::FieldName n, const std::string& v) { put(n, "\"" + v + "\""); }
  void field(workload::FieldName n, double v) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.17g (0x%016llx)", v,
                  static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
    put(n, buf);
  }
  void field(workload::FieldName n, std::uint64_t v) { put(n, std::to_string(v)); }
  void field(workload::FieldName n, int v) { put(n, std::to_string(v)); }
  void field(workload::FieldName n, bool v) { put(n, v ? "true" : "false"); }
  template <class T, class Fn>
  void list(workload::FieldName n, const std::vector<T>& items, Fn elem) {
    put(n, std::to_string(items.size()) + " items");
    const std::string outer = prefix_;
    for (std::size_t i = 0; i < items.size(); ++i) {
      prefix_ = outer + n.str() + "[" + std::to_string(i) + "].";
      elem(*this, items[i]);
    }
    prefix_ = outer;
  }

 private:
  void put(workload::FieldName n, std::string value) {
    entries_.emplace_back(prefix_ + n.str(), std::move(value));
  }

  std::string prefix_;
  Entries entries_;
};

/// Bitwise equality over every encoded ExperimentResult field.
inline void expect_same_fields(const testbed::ExperimentResult& a,
                               const testbed::ExperimentResult& b) {
  const auto fa = ResultFields::of(a);
  const auto fb = ResultFields::of(b);
  ASSERT_EQ(fa.size(), fb.size()) << "results differ in their list lengths";
  for (std::size_t i = 0; i < fa.size(); ++i) {
    ASSERT_EQ(fa[i].first, fb[i].first);
    EXPECT_EQ(fa[i].second, fb[i].second) << fa[i].first;
  }
}

}  // namespace ebrc::testing
