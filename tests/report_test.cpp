// Tests for the validation report writer.

#include <gtest/gtest.h>

#include <sstream>

#include "validate/report.hpp"

namespace trinity::validate {
namespace {

CategoryCounts sample_counts() {
  CategoryCounts c;
  c.full_identical = 90;
  c.full_diverged = 5;
  c.partial = 4;
  c.unmatched = 1;
  c.partial_identities = {0.9, 0.95};
  return c;
}

TEST(ReportTest, MarkdownContainsAllSections) {
  ReferenceComparison cmp;
  cmp.full_length_genes = 7;
  util::TTestResult t;
  t.t = 0.5;
  t.p_two_sided = 0.62;
  std::ostringstream out;
  write_markdown_report(out, "test dataset", {{"parallel vs original", sample_counts()}},
                        {{"parallel", cmp}}, t);
  const std::string md = out.str();
  EXPECT_NE(md.find("# Validation report"), std::string::npos);
  EXPECT_NE(md.find("test dataset"), std::string::npos);
  EXPECT_NE(md.find("Figure 4"), std::string::npos);
  EXPECT_NE(md.find("Figures 5 and 6"), std::string::npos);
  EXPECT_NE(md.find("no significant difference"), std::string::npos);
  EXPECT_NE(md.find("| parallel vs original | 90 | 5 | 4 | 1 |"), std::string::npos);
}

TEST(ReportTest, SignificantVerdictReported) {
  util::TTestResult t;
  t.significant_at_5pct = true;
  t.p_two_sided = 0.01;
  std::ostringstream out;
  write_markdown_report(out, "d", {}, {}, t);
  EXPECT_NE(out.str().find("SIGNIFICANT difference"), std::string::npos);
}

TEST(ReportTest, EmptySectionsOmitted) {
  std::ostringstream out;
  write_markdown_report(out, "d", {}, {}, util::TTestResult{});
  EXPECT_EQ(out.str().find("Figure 4"), std::string::npos);
  EXPECT_EQ(out.str().find("Figures 5 and 6"), std::string::npos);
}

}  // namespace
}  // namespace trinity::validate
