#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace trinity::util {

SampleStats summarize(const std::vector<double>& xs) {
  SampleStats s;
  s.n = xs.size();
  if (xs.empty()) return s;
  s.min = *std::min_element(xs.begin(), xs.end());
  s.max = *std::max_element(xs.begin(), xs.end());
  s.mean = std::accumulate(xs.begin(), xs.end(), 0.0) / static_cast<double>(xs.size());
  if (xs.size() >= 2) {
    double ss = 0.0;
    for (double x : xs) ss += (x - s.mean) * (x - s.mean);
    s.variance = ss / static_cast<double>(xs.size() - 1);
  }
  return s;
}

namespace {

// Regularized incomplete beta function via continued fraction (Lentz), used
// to get the Student-t CDF without linking a stats library.
double betacf(double a, double b, double x) {
  constexpr int kMaxIter = 200;
  constexpr double kEps = 3e-12;
  constexpr double kFpMin = 1e-300;
  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kFpMin) d = kFpMin;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIter; ++m) {
    const int m2 = 2 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) break;
  }
  return h;
}

double ibeta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double ln_beta = std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b);
  const double front = std::exp(ln_beta + a * std::log(x) + b * std::log(1.0 - x));
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * betacf(a, b, x) / a;
  }
  return 1.0 - front * betacf(b, a, 1.0 - x) / b;
}

// Two-sided p-value of |t| with `dof` degrees of freedom.
double t_p_two_sided(double t, double dof) {
  const double x = dof / (dof + t * t);
  return ibeta(dof / 2.0, 0.5, x);
}

}  // namespace

TTestResult welch_t_test(const std::vector<double>& a, const std::vector<double>& b) {
  TTestResult r;
  if (a.size() < 2 || b.size() < 2) return r;
  const SampleStats sa = summarize(a);
  const SampleStats sb = summarize(b);
  const double va_n = sa.variance / static_cast<double>(sa.n);
  const double vb_n = sb.variance / static_cast<double>(sb.n);
  const double denom = std::sqrt(va_n + vb_n);
  if (denom == 0.0) {
    // Identical constant samples: no evidence of difference.
    r.t = 0.0;
    r.dof = static_cast<double>(sa.n + sb.n - 2);
    r.p_two_sided = 1.0;
    return r;
  }
  r.t = (sa.mean - sb.mean) / denom;
  const double num = (va_n + vb_n) * (va_n + vb_n);
  const double den = va_n * va_n / static_cast<double>(sa.n - 1) +
                     vb_n * vb_n / static_cast<double>(sb.n - 1);
  r.dof = num / den;
  r.p_two_sided = t_p_two_sided(r.t, r.dof);
  r.significant_at_5pct = r.p_two_sided < 0.05;
  return r;
}

std::size_t n50(std::vector<std::size_t> lengths) {
  if (lengths.empty()) return 0;
  std::sort(lengths.begin(), lengths.end(), std::greater<>());
  std::size_t total = 0;
  for (auto len : lengths) total += len;
  std::size_t cum = 0;
  for (auto len : lengths) {
    cum += len;
    if (2 * cum >= total) return len;
  }
  return lengths.back();
}

}  // namespace trinity::util
