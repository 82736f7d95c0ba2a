#pragma once
// Report writer for the validation harness: the Section-IV results as a
// human-readable markdown document.

#include <ostream>
#include <string>
#include <vector>

#include "validate/validate.hpp"

namespace trinity::validate {

/// One named run-comparison series (e.g. "parallel vs original").
struct CategorySeries {
  std::string label;
  CategoryCounts counts;
};

/// One named reference-comparison series.
struct ReferenceSeries {
  std::string label;
  ReferenceComparison comparison;
};

/// Writes a complete markdown validation report: dataset line, category
/// table, reference table (either may be empty), and the t-test verdict.
void write_markdown_report(std::ostream& out, const std::string& dataset_description,
                           const std::vector<CategorySeries>& categories,
                           const std::vector<ReferenceSeries>& references,
                           const util::TTestResult& t_test);

}  // namespace trinity::validate
