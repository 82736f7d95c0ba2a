#include "sw/smith_waterman.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sw/kernels.hpp"

namespace trinity::sw {

namespace kernels {

namespace {

constexpr int kNegInf = std::numeric_limits<int>::min() / 4;

/// Row-major Gotoh sweep in linear memory: H and F per column, E carried
/// along the row. With kTrace, also writes each cell's trace byte into the
/// (n+1) x (m+1) row-major `trace`, whose row and column 0 stay kStop.
template <bool kTrace>
ScoreEnd sweep(std::string_view query, std::string_view target, const Scoring& s,
               std::uint8_t* trace) {
  const std::size_t n = query.size();
  const std::size_t m = target.size();
  ScoreEnd best;
  std::vector<int> h(m + 1, 0);
  std::vector<int> f(m + 1, kNegInf);
  for (std::size_t i = 1; i <= n; ++i) {
    int diag = 0;  // H(i-1, j-1)
    int left = 0;  // H(i, j-1)
    int e = kNegInf;
    for (std::size_t j = 1; j <= m; ++j) {
      const int up = h[j];
      const int e_open = left + s.gap_open;
      const int e_extend = e + s.gap_extend;
      e = std::max(e_open, e_extend);
      const int f_open = up + s.gap_open;
      const int f_extend = f[j] + s.gap_extend;
      f[j] = std::max(f_open, f_extend);
      const int d = diag + (query[i - 1] == target[j - 1] ? s.match : s.mismatch);

      int cell = 0;
      std::uint8_t code = kStop;
      if (d > cell) {
        cell = d;
        code = kDiag;
      }
      if (e > cell) {
        cell = e;
        code = kFromE;
      }
      if (f[j] > cell) {
        cell = f[j];
        code = kFromF;
      }
      if constexpr (kTrace) {
        if (e_extend >= e_open) code |= kEExtended;
        if (f_extend >= f_open) code |= kFExtended;
        trace[i * (m + 1) + j] = code;
      }
      diag = up;
      left = cell;
      h[j] = cell;
      if (cell > best.score) best = {cell, i, j};
    }
  }
  return best;
}

}  // namespace

bool fits_int16(std::size_t query_length, std::size_t target_length, const Scoring& scoring) {
  // Parameters small enough that minus infinity (-2^14) plus a gap
  // extension cannot saturate, gaps that only cost, and a best score --
  // at most the best column score times the shorter length -- below 2^15.
  constexpr int kMaxParameter = 4096;
  for (const int v : {scoring.match, scoring.mismatch, scoring.gap_open, scoring.gap_extend}) {
    if (v < -kMaxParameter || v > kMaxParameter) return false;
  }
  if (scoring.gap_open > 0 || scoring.gap_extend > 0) return false;
  const auto per_base = static_cast<std::uint64_t>(std::max({scoring.match, scoring.mismatch, 0}));
  return per_base * std::min(query_length, target_length) <=
         static_cast<std::uint64_t>(std::numeric_limits<std::int16_t>::max());
}

ScoreEnd score_scalar(std::string_view query, std::string_view target, const Scoring& scoring) {
  if (query.empty() || target.empty()) return {};
  return sweep<false>(query, target, scoring, nullptr);
}

Alignment align_scalar(std::string_view query, std::string_view target, const Scoring& scoring) {
  if (query.empty() || target.empty()) return {};
  const std::size_t cols = target.size() + 1;
  std::vector<std::uint8_t> trace((query.size() + 1) * cols, kStop);
  const ScoreEnd best = sweep<true>(query, target, scoring, trace.data());
  return walk(query, target, best,
              [&](std::size_t i, std::size_t j) { return trace[i * cols + j]; });
}

}  // namespace kernels

namespace {

bool use_avx2(std::size_t query_length, std::size_t target_length, const Scoring& scoring) {
  return kernels::avx2_available() && kernels::fits_int16(query_length, target_length, scoring);
}

}  // namespace

ScoreEnd score(std::string_view query, std::string_view target, const Scoring& scoring) {
  return use_avx2(query.size(), target.size(), scoring)
             ? kernels::score_avx2(query, target, scoring)
             : kernels::score_scalar(query, target, scoring);
}

Alignment traceback(std::string_view query, std::string_view target, const ScoreEnd& end,
                    const Scoring& scoring) {
  if (end.score <= 0) return {};
  // The end cell is the first maximum of the prefix rectangle as well, so
  // aligning the prefixes finds it again and walks the same path.
  const auto q = query.substr(0, end.query_end);
  const auto t = target.substr(0, end.target_end);
  return use_avx2(q.size(), t.size(), scoring) ? kernels::align_avx2(q, t, scoring)
                                               : kernels::align_scalar(q, t, scoring);
}

Alignment align(std::string_view query, std::string_view target, const Scoring& scoring) {
  return traceback(query, target, score(query, target, scoring), scoring);
}

StrandScore score_best_strand(std::string_view query, std::string_view query_rc,
                              std::string_view target, const Scoring& scoring) {
  const ScoreEnd fwd = score(query, target, scoring);
  const ScoreEnd rev = score(query_rc, target, scoring);
  return fwd.score >= rev.score ? StrandScore{fwd, false} : StrandScore{rev, true};
}

int min_qualifying_score(std::size_t query_length, double min_coverage, double min_identity,
                         const Scoring& scoring) {
  // Such an alignment spans at least min_coverage * query_length query
  // bases, so it has at least that many columns C. At least
  // min_identity * C of them match and score `match`; every other column
  // (mismatch, gap open or gap extension) scores at least `worst`.
  const double p = std::clamp(min_identity, 0.0, 1.0);
  const double worst = std::min({scoring.mismatch, scoring.gap_open, scoring.gap_extend});
  const double per_column =
      std::min<double>(scoring.match, p * scoring.match + (1.0 - p) * worst);
  const double bound = per_column * min_coverage * static_cast<double>(query_length);
  if (!(bound > 0.0)) return 0;
  // Shaved so rounding in the coverage and identity ratios cannot make the
  // bound exceed a qualifying score.
  return static_cast<int>(std::floor(bound * (1.0 - 1e-9)));
}

}  // namespace trinity::sw
