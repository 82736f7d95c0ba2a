// Tests for the Smith–Waterman validator: known alignments, affine gap
// behaviour (checked against a brute-force three-matrix Gotoh), coverage/
// identity statistics, and strand selection.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "seq/dna.hpp"
#include "sw/kernels.hpp"
#include "sw/smith_waterman.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace trinity::sw {
namespace {

using trinity::testing::mutate;
using trinity::testing::random_dna;

/// Textbook three-matrix Gotoh, local: full H, E and F matrices. Returns
/// the best score and its first end cell in row-major order.
ScoreEnd brute_force_gotoh(const std::string& q, const std::string& t, const Scoring& s = {}) {
  constexpr int kNeg = -1000000;
  const std::size_t n = q.size();
  const std::size_t m = t.size();
  std::vector<std::vector<int>> h(n + 1, std::vector<int>(m + 1, 0));
  std::vector<std::vector<int>> e(n + 1, std::vector<int>(m + 1, kNeg));
  std::vector<std::vector<int>> f(n + 1, std::vector<int>(m + 1, kNeg));
  ScoreEnd best;
  for (std::size_t i = 1; i <= n; ++i) {
    for (std::size_t j = 1; j <= m; ++j) {
      e[i][j] = std::max(h[i][j - 1] + s.gap_open, e[i][j - 1] + s.gap_extend);
      f[i][j] = std::max(h[i - 1][j] + s.gap_open, f[i - 1][j] + s.gap_extend);
      const int sub = q[i - 1] == t[j - 1] ? s.match : s.mismatch;
      h[i][j] = std::max({0, h[i - 1][j - 1] + sub, e[i][j], f[i][j]});
      if (h[i][j] > best.score) best = {h[i][j], i, j};
    }
  }
  return best;
}

TEST(SwTest, IdenticalSequencesScorePerfect) {
  const std::string s = random_dna(120, 1);
  const auto aln = align(s, s);
  EXPECT_EQ(aln.score, static_cast<int>(s.size()) * Scoring{}.match);
  EXPECT_EQ(aln.matches, s.size());
  EXPECT_EQ(aln.alignment_columns, s.size());
  EXPECT_DOUBLE_EQ(aln.identity(), 1.0);
  EXPECT_DOUBLE_EQ(aln.query_coverage(s.size()), 1.0);
  EXPECT_EQ(aln.query_begin, 0u);
  EXPECT_EQ(aln.query_end, s.size());
}

TEST(SwTest, EmptyInputsYieldEmptyAlignment) {
  EXPECT_EQ(align("", "ACGT").score, 0);
  EXPECT_EQ(align("ACGT", "").score, 0);
  EXPECT_EQ(align("", "").score, 0);
}

TEST(SwTest, DisjointAlphabetsDoNotAlign) {
  const auto aln = align("AAAAAAAA", "TTTTTTTT");
  // Local alignment of all-mismatch pairs is empty (score clamped at 0).
  EXPECT_EQ(aln.score, 0);
  EXPECT_EQ(aln.alignment_columns, 0u);
}

TEST(SwTest, SubstringIsFoundExactly) {
  const std::string target = random_dna(200, 2);
  const std::string query = target.substr(50, 40);
  const auto aln = align(query, target);
  EXPECT_EQ(aln.matches, 40u);
  EXPECT_EQ(aln.target_begin, 50u);
  EXPECT_EQ(aln.target_end, 90u);
  EXPECT_DOUBLE_EQ(aln.query_coverage(query.size()), 1.0);
}

TEST(SwTest, SingleMismatchCounted) {
  std::string a = random_dna(60, 3);
  std::string b = a;
  b[30] = b[30] == 'A' ? 'C' : 'A';
  const auto aln = align(a, b);
  EXPECT_EQ(aln.alignment_columns, 60u);
  EXPECT_EQ(aln.matches, 59u);
  EXPECT_NEAR(aln.identity(), 59.0 / 60.0, 1e-12);
}

TEST(SwTest, GapAlignmentBeatsTruncationForLongFlanks) {
  // Query = target with a 3-base deletion in the middle; the affine model
  // should bridge the gap rather than truncate the alignment.
  const std::string target = random_dna(100, 4);
  std::string query = target;
  query.erase(50, 3);
  const auto aln = align(query, target);
  EXPECT_EQ(aln.matches, query.size());
  EXPECT_EQ(aln.alignment_columns, query.size() + 3);  // 3 gap columns
  EXPECT_DOUBLE_EQ(aln.query_coverage(query.size()), 1.0);
}

TEST(SwTest, AffineGapPrefersOneLongGapOverManyShort) {
  // One 4-gap scores open + 3*extend = -24, better than four 1-gaps at
  // 4*open = -48.
  const Scoring s;
  EXPECT_GT(s.gap_open + 3 * s.gap_extend, 4 * s.gap_open);
  const std::string target = random_dna(80, 5);
  std::string query = target;
  query.erase(40, 4);
  const auto aln = align(query, target);
  // Full-length match with exactly 4 gap columns proves a single gap run.
  EXPECT_EQ(aln.matches, query.size());
  EXPECT_EQ(aln.alignment_columns, query.size() + 4);
}

TEST(SwTest, ScoreSymmetricUnderSwap) {
  const std::string a = random_dna(70, 6);
  const std::string b = random_dna(90, 7);
  EXPECT_EQ(align(a, b).score, align(b, a).score);
}

TEST(SwTest, ScoreNeverExceedsPerfect) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const std::string a = random_dna(50, seed);
    const std::string b = random_dna(60, seed + 100);
    const auto aln = align(a, b);
    EXPECT_LE(aln.score, static_cast<int>(std::min(a.size(), b.size())) * Scoring{}.match);
    EXPECT_GE(aln.score, 0);
    EXPECT_LE(aln.matches, aln.alignment_columns);
  }
}

TEST(SwTest, TracebackBoundsAreConsistent) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    std::string a = random_dna(80, seed);
    std::string b = a;
    // sprinkle mutations
    b[10] = 'A';
    b[55] = 'T';
    b.erase(30, 2);
    const auto aln = align(a, b);
    EXPECT_LE(aln.query_begin, aln.query_end);
    EXPECT_LE(aln.target_begin, aln.target_end);
    EXPECT_LE(aln.query_end, a.size());
    EXPECT_LE(aln.target_end, b.size());
    // Columns cover at least the longer of the two spans.
    EXPECT_GE(aln.alignment_columns,
              std::max(aln.query_end - aln.query_begin, aln.target_end - aln.target_begin));
  }
}

TEST(SwTest, BestStrandPicksReverseComplement) {
  const std::string target = random_dna(100, 10);
  const std::string query = seq::reverse_complement(target);
  const auto fwd_only = align(query, target);
  const auto hit = score_best_strand(query, target, target);
  ASSERT_TRUE(hit.reverse);
  const auto best = traceback(target, target, hit.end);
  EXPECT_GT(best.score, fwd_only.score);
  EXPECT_EQ(best.matches, target.size());
}

TEST(SwTest, BestStrandPrefersForwardOnTies) {
  // A strand-symmetric palindrome scores equally both ways; forward wins.
  const std::string target = random_dna(60, 11);
  const std::string rc = seq::reverse_complement(target);
  EXPECT_FALSE(score_best_strand(target, target, target).reverse);  // an exact tie
  const auto hit = score_best_strand(target, rc, target);
  ASSERT_FALSE(hit.reverse);
  EXPECT_EQ(traceback(target, target, hit.end).matches, target.size());
}

TEST(SwTest, EmptyAlignmentStatisticsAreZero) {
  const Alignment empty;
  EXPECT_DOUBLE_EQ(empty.identity(), 0.0);
  EXPECT_DOUBLE_EQ(empty.query_coverage(100), 0.0);
  EXPECT_DOUBLE_EQ(empty.query_coverage(0), 0.0);
}

TEST(SwTest, CustomScoringRespected) {
  Scoring s;
  s.match = 1;
  s.mismatch = -10;
  s.gap_open = -10;
  s.gap_extend = -10;
  const std::string a = "ACGTACGT";
  const auto aln = align(a, a, s);
  EXPECT_EQ(aln.score, 8);
}

TEST(SwTest, InsertionInQueryExtendsOneGap) {
  // 32 matches (160) less one 3-base gap (open + 2 extensions = 20). A
  // gap in the target that paid gap_open per base would score 124.
  const std::string target = random_dna(32, 12);
  const std::string query = target.substr(0, 16) + "TTT" + target.substr(16);
  EXPECT_EQ(brute_force_gotoh(query, target).score, 140);
  for (const auto& aln : {align(query, target), kernels::align_scalar(query, target, {})}) {
    EXPECT_EQ(aln.score, 140);
    EXPECT_EQ(aln.matches, 32u);
    EXPECT_EQ(aln.alignment_columns, 35u);
  }
  EXPECT_EQ(align(target, query).score, 140);
  EXPECT_EQ(kernels::score_scalar(query, target, {}).score, 140);
}

TEST(SwTest, ScoreSymmetricUnderSwapWithIndels) {
  util::Rng rng(13);
  for (int trial = 0; trial < 300; ++trial) {
    const std::string a = random_dna(10 + rng.uniform_below(60), rng());
    const std::string b = mutate(a, rng.uniform_below(4), rng);
    EXPECT_EQ(align(a, b).score, align(b, a).score) << a << " " << b;
    EXPECT_EQ(kernels::score_scalar(a, b, {}).score, kernels::score_scalar(b, a, {}).score)
        << a << " " << b;
  }
}

TEST(SwTest, AgreesWithThreeMatrixGotoh) {
  util::Rng rng(14);
  for (int trial = 0; trial < 3000; ++trial) {
    const std::string target = random_dna(5 + rng.uniform_below(26), rng());
    const std::string query = mutate(target, rng.uniform_below(4), rng);
    const ScoreEnd want = brute_force_gotoh(query, target);
    for (const ScoreEnd& got : {score(query, target), kernels::score_scalar(query, target, {})}) {
      ASSERT_EQ(got.score, want.score) << query << " " << target;
      ASSERT_EQ(got.query_end, want.query_end) << query << " " << target;
      ASSERT_EQ(got.target_end, want.target_end) << query << " " << target;
    }
    for (const auto& aln : {align(query, target), kernels::align_scalar(query, target, {})}) {
      ASSERT_EQ(aln.score, want.score) << query << " " << target;
      ASSERT_EQ(aln.query_end, want.query_end) << query << " " << target;
      ASSERT_EQ(aln.target_end, want.target_end) << query << " " << target;
    }
  }
}

}  // namespace
}  // namespace trinity::sw
