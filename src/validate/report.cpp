#include "validate/report.hpp"

#include <iomanip>

#include "util/stats.hpp"

namespace trinity::validate {

void write_markdown_report(std::ostream& out, const std::string& dataset_description,
                           const std::vector<CategorySeries>& categories,
                           const std::vector<ReferenceSeries>& references,
                           const util::TTestResult& t_test) {
  out << "# Validation report\n\n";
  out << "dataset: " << dataset_description << "\n\n";

  if (!categories.empty()) {
    out << "## All-to-all Smith-Waterman categories (paper Figure 4)\n\n";
    out << "| series | (a) full 100% | (b) full <100% | (c) partial | unmatched |\n";
    out << "|---|---|---|---|---|\n";
    for (const auto& s : categories) {
      out << "| " << s.label << " | " << s.counts.full_identical << " | "
          << s.counts.full_diverged << " | " << s.counts.partial << " | "
          << s.counts.unmatched << " |\n";
    }
    out << '\n';
  }

  if (!references.empty()) {
    out << "## Reference comparison (paper Figures 5 and 6)\n\n";
    out << "| series | full-length genes | full-length isoforms | fused genes | fused "
           "isoforms |\n";
    out << "|---|---|---|---|---|\n";
    for (const auto& s : references) {
      out << "| " << s.label << " | " << s.comparison.full_length_genes << " | "
          << s.comparison.full_length_isoforms << " | " << s.comparison.fused_genes << " | "
          << s.comparison.fused_isoforms << " |\n";
    }
    out << '\n';
  }

  out << "## Two-sample t-test\n\n";
  out << "t = " << std::fixed << std::setprecision(3) << t_test.t
      << ", p = " << t_test.p_two_sided << " → "
      << (t_test.significant_at_5pct
              ? "SIGNIFICANT difference (deviates from the paper's finding)"
              : "no significant difference (matches the paper's finding)")
      << '\n';
}

}  // namespace trinity::validate
