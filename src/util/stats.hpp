#pragma once
// Small statistics helpers used by the validation harness (Section IV of
// the paper runs a two-sample t-test over repeated-run metrics) and by the
// bench reporters (min/max/mean over per-rank times).

#include <cstddef>
#include <vector>

namespace trinity::util {

/// Summary of a sample: count, mean, variance (unbiased), min, max.
struct SampleStats {
  std::size_t n = 0;
  double mean = 0.0;
  double variance = 0.0;  ///< unbiased (n-1 denominator); 0 when n < 2
  double min = 0.0;
  double max = 0.0;
};

/// Computes summary statistics of `xs`. Empty input yields a zero struct.
SampleStats summarize(const std::vector<double>& xs);

/// Result of Welch's two-sample t-test.
struct TTestResult {
  double t = 0.0;             ///< t statistic
  double dof = 0.0;           ///< Welch–Satterthwaite degrees of freedom
  double p_two_sided = 1.0;   ///< two-sided p-value
  bool significant_at_5pct = false;
};

/// Welch's unequal-variance t-test between samples `a` and `b`.
/// Requires both samples to have at least two elements; otherwise returns
/// the default (non-significant) result.
TTestResult welch_t_test(const std::vector<double>& a, const std::vector<double>& b);

/// N50 of a set of lengths: the largest L such that contigs of length >= L
/// cover at least half of the total bases. Standard assembly quality metric.
std::size_t n50(std::vector<std::size_t> lengths);

}  // namespace trinity::util
