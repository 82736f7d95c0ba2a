// Tests for the Smith–Waterman kernels behind sw::score and sw::traceback:
// the AVX2 kernels equal the scalar ones on every Alignment field, the
// score-only pass finds the traceback's score and end cell, the prefix-
// rectangle traceback equals the full-matrix one, the int16 fallback is
// exact on both sides of its threshold, and the traceback-pruning floor
// never rejects a qualifying alignment.

#include <gtest/gtest.h>

#include <string>
#include <utility>
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
using Pair = std::pair<std::string, std::string>;

std::string random_over(const std::string& alphabet, std::size_t length, util::Rng& rng) {
  std::string out(length, alphabet[0]);
  for (auto& c : out) c = alphabet[rng.uniform_below(alphabet.size())];
  return out;
}

/// Pairs that stress the kernels' edges: empty and one-base sequences,
/// lengths around the 16-lane vector width, two-letter and N-rich
/// alphabets (many equal scores, so tie-breaks decide), reverse-complement
/// palindromes and related pairs with indels.
std::vector<Pair> corpus() {
  util::Rng rng(21);
  std::vector<Pair> pairs{{"", ""},   {"", "A"},  {"A", ""},  {"A", "A"},
                          {"A", "C"}, {"N", "N"}, {"AC", "CA"}, {"ACGT", "A"}};
  for (const std::size_t n : {1, 2, 15, 16, 17, 31, 32, 33, 47, 64}) {
    for (const std::size_t m : {1, 3, 16, 17, 40}) {
      pairs.emplace_back(random_over("ACGT", n, rng), random_over("ACGT", m, rng));
    }
  }
  for (int k = 0; k < 40; ++k) {
    const std::string a = random_over("AC", 1 + rng.uniform_below(90), rng);
    pairs.emplace_back(a, mutate(a, rng.uniform_below(6), rng));
    pairs.emplace_back(random_over("AC", 1 + rng.uniform_below(60), rng),
                       random_over("AC", 1 + rng.uniform_below(60), rng));
    const std::string n_rich = random_over("ACGTNNNN", 1 + rng.uniform_below(120), rng);
    pairs.emplace_back(n_rich, mutate(n_rich, rng.uniform_below(6), rng));
  }
  for (int k = 0; k < 20; ++k) {
    const std::string half = random_over("ACGT", 1 + rng.uniform_below(50), rng);
    const std::string palindrome = half + seq::reverse_complement(half);
    pairs.emplace_back(palindrome, mutate(palindrome, rng.uniform_below(3), rng));
    pairs.emplace_back(palindrome, random_dna(40, rng()) + palindrome + random_dna(30, rng()));
  }
  for (int k = 0; k < 40; ++k) {
    const std::string a = random_dna(50 + rng.uniform_below(400), rng());
    const std::string flank = random_dna(rng.uniform_below(60), rng());
    pairs.emplace_back(a, flank + mutate(a, rng.uniform_below(12), rng) + flank);
  }
  return pairs;
}

void expect_same(const Alignment& got, const Alignment& want, const Pair& pair) {
  EXPECT_EQ(got.score, want.score) << pair.first << " / " << pair.second;
  EXPECT_EQ(got.query_begin, want.query_begin) << pair.first << " / " << pair.second;
  EXPECT_EQ(got.query_end, want.query_end) << pair.first << " / " << pair.second;
  EXPECT_EQ(got.target_begin, want.target_begin) << pair.first << " / " << pair.second;
  EXPECT_EQ(got.target_end, want.target_end) << pair.first << " / " << pair.second;
  EXPECT_EQ(got.matches, want.matches) << pair.first << " / " << pair.second;
  EXPECT_EQ(got.alignment_columns, want.alignment_columns) << pair.first << " / " << pair.second;
}

void expect_same_end(const ScoreEnd& got, const Alignment& want, const Pair& pair) {
  EXPECT_EQ(got.score, want.score) << pair.first << " / " << pair.second;
  EXPECT_EQ(got.query_end, want.query_end) << pair.first << " / " << pair.second;
  EXPECT_EQ(got.target_end, want.target_end) << pair.first << " / " << pair.second;
}

TEST(SwKernelTest, Avx2MatchesScalar) {
  if (!kernels::avx2_available()) GTEST_SKIP() << "no AVX2 on this CPU";
  const Scoring s;
  for (const auto& pair : corpus()) {
    const auto& [q, t] = pair;
    ASSERT_TRUE(kernels::fits_int16(q.size(), t.size(), s));
    const auto want = kernels::align_scalar(q, t, s);
    expect_same(kernels::align_avx2(q, t, s), want, pair);
    expect_same_end(kernels::score_avx2(q, t, s), want, pair);
  }
}

TEST(SwKernelTest, ScoreOnlyMatchesTraceback) {
  const Scoring s;
  for (const auto& pair : corpus()) {
    const auto& [q, t] = pair;
    const auto traced = kernels::align_scalar(q, t, s);
    expect_same_end(kernels::score_scalar(q, t, s), traced, pair);
    expect_same_end(score(q, t, s), traced, pair);
  }
}

TEST(SwKernelTest, PrefixRectangleTracebackEqualsFull) {
  const Scoring s;
  for (const auto& pair : corpus()) {
    const auto& [q, t] = pair;
    const auto full = kernels::align_scalar(q, t, s);
    const ScoreEnd end = score(q, t, s);
    expect_same(traceback(q, t, end, s), full, pair);
    expect_same(align(q, t, s), full, pair);
    const auto qp = std::string_view(q).substr(0, end.query_end);
    const auto tp = std::string_view(t).substr(0, end.target_end);
    expect_same(kernels::align_scalar(qp, tp, s), full, pair);
    if (kernels::avx2_available()) expect_same(kernels::align_avx2(qp, tp, s), full, pair);
  }
}

TEST(SwKernelTest, CustomScoringMatchesScalar) {
  Scoring s;
  s.match = 2;
  s.mismatch = -3;
  s.gap_open = -5;
  s.gap_extend = -2;
  for (const auto& pair : corpus()) {
    const auto& [q, t] = pair;
    const auto want = kernels::align_scalar(q, t, s);
    expect_same(align(q, t, s), want, pair);
    if (kernels::avx2_available()) expect_same(kernels::align_avx2(q, t, s), want, pair);
  }
}

TEST(SwKernelTest, BestStrandPrefersForwardOnTies) {
  util::Rng rng(22);
  for (int k = 0; k < 20; ++k) {
    // A reverse-complement palindrome is its own reverse complement.
    const std::string half = random_dna(5 + rng.uniform_below(40), rng());
    const std::string palindrome = half + seq::reverse_complement(half);
    const std::string target = random_dna(30, rng()) + palindrome + random_dna(30, rng());
    const auto hit = score_best_strand(palindrome, palindrome, target);
    EXPECT_FALSE(hit.reverse);
    expect_same(traceback(palindrome, target, hit.end),
                kernels::align_scalar(palindrome, target, {}), {palindrome, target});
  }
  // Equal scores on different target copies: the forward copy is reported.
  const std::string x = random_dna(40, 23);
  const std::string target =
      random_dna(20, 24) + seq::reverse_complement(x) + random_dna(20, 25) + x + random_dna(20, 26);
  const auto hit = score_best_strand(x, seq::reverse_complement(x), target);
  EXPECT_FALSE(hit.reverse);
  EXPECT_EQ(hit.end.target_end, target.size() - 20);
  EXPECT_EQ(traceback(x, target, hit.end).target_end, target.size() - 20);
}

TEST(SwKernelTest, Int16FallbackIsExactOnBothSides) {
  // match 100: a perfect 327-base pair scores 32700 and fits int16 lanes;
  // at 328 bases the scalar kernel must take over.
  Scoring s;
  s.match = 100;
  util::Rng rng(27);
  for (const std::size_t n : {320, 327, 328, 400}) {
    const std::string a = random_dna(n, rng());
    for (const std::string& b : {a, mutate(a, 3, rng), random_dna(20, rng()) + a}) {
      const Pair pair{a, b};
      EXPECT_EQ(kernels::fits_int16(a.size(), b.size(), s), n <= 327);
      const auto want = kernels::align_scalar(a, b, s);
      expect_same(align(a, b, s), want, pair);
      expect_same_end(score(a, b, s), want, pair);
      if (kernels::avx2_available() && kernels::fits_int16(a.size(), b.size(), s)) {
        expect_same(kernels::align_avx2(a, b, s), want, pair);
      }
    }
    EXPECT_EQ(align(a, a, s).score, static_cast<int>(n) * 100);
  }
}

TEST(SwKernelTest, DefaultScoringCrossesInt16AtFullLength) {
  // 5 x 6553 = 32765 still fits; 5 x 6554 does not.
  const Scoring s;
  EXPECT_TRUE(kernels::fits_int16(6553, 7000, s));
  EXPECT_FALSE(kernels::fits_int16(6554, 7000, s));
  const std::string a = random_dna(6553, 28);
  const Pair pair{a, a};
  const auto want = kernels::score_scalar(a, a, s);
  EXPECT_EQ(want.score, 32765);
  if (kernels::avx2_available()) {
    const auto got = kernels::score_avx2(a, a, s);
    EXPECT_EQ(got.score, want.score);
    EXPECT_EQ(got.query_end, want.query_end);
    EXPECT_EQ(got.target_end, want.target_end);
  }
  const std::string b = a + "C";
  const auto over = score(b, b, s);
  EXPECT_EQ(over.score, 32770);
  EXPECT_EQ(over.query_end, b.size());
}

TEST(SwKernelTest, PruneFloorNeverRejectsQualifyingAlignment) {
  util::Rng rng(29);
  std::size_t qualifying = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const std::string ref = random_dna(30 + rng.uniform_below(300), rng());
    // Edits up to a few percent of the length keep many alignments near
    // the identity and coverage thresholds.
    const std::size_t edits = rng.uniform_below(2 + ref.size() / 15);
    std::string rec = mutate(ref, edits, rng);
    if (rng.bernoulli(0.5)) rec = random_dna(rng.uniform_below(40), rng()) + rec;
    if (rng.bernoulli(0.3)) rec = rec.substr(0, rec.size() - std::min(rec.size(), ref.size() / 30));
    const auto aln = kernels::align_scalar(ref, rec, {});
    for (const double coverage : {0.8, 0.9, 0.95}) {
      for (const double identity : {0.8, 0.9, 0.95, 0.99}) {
        if (aln.score <= 0 || aln.query_coverage(ref.size()) < coverage ||
            aln.identity() < identity) {
          continue;
        }
        ++qualifying;
        EXPECT_GE(aln.score, min_qualifying_score(ref.size(), coverage, identity))
            << ref << " / " << rec << " coverage " << coverage << " identity " << identity;
      }
    }
  }
  EXPECT_GT(qualifying, 200u);
}

TEST(SwKernelTest, PruneFloorHoldsAtTheThresholds) {
  // 95 of 100 reference bases aligned with 4 mismatches: 95% coverage and
  // 95.8% identity, scoring 91 x 5 - 4 x 4 = 439 against a floor of 394.
  const std::string ref = random_dna(100, 30);
  std::string rec = ref.substr(0, 95);
  for (std::size_t pos = 10; pos < 80; pos += 19) rec[pos] = rec[pos] == 'A' ? 'C' : 'A';
  const auto aln = kernels::align_scalar(ref, rec, {});
  ASSERT_GE(aln.query_coverage(ref.size()), 0.95);
  ASSERT_GE(aln.identity(), 0.95);
  EXPECT_EQ(aln.score, 439);
  EXPECT_EQ(min_qualifying_score(ref.size(), 0.95, 0.95), 394);
  // Scoring that rewards nothing has no positive floor.
  Scoring flat;
  flat.match = 0;
  EXPECT_EQ(min_qualifying_score(100, 0.95, 0.95, flat), 0);
}

}  // namespace
}  // namespace trinity::sw
