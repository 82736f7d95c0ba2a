// Tests for the Section-IV validation harness: category bucketing against
// known perturbations and reference full-length / fused counting.

#include <gtest/gtest.h>

#include <set>

#include "seq/dna.hpp"
#include "sw/kernels.hpp"
#include "validate/validate.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace trinity::validate {
namespace {

using trinity::testing::random_dna;

std::vector<seq::Sequence> make_set(std::size_t n, std::size_t len, std::uint64_t seed) {
  std::vector<seq::Sequence> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back({"t" + std::to_string(i), random_dna(len, seed + i)});
  }
  return out;
}

TEST(AllToAllTest, IdenticalSetsAreAllFullIdentical) {
  const auto set = make_set(10, 300, 1);
  const auto counts = all_to_all_categories(set, set);
  EXPECT_EQ(counts.full_identical, 10u);
  EXPECT_EQ(counts.full_diverged, 0u);
  EXPECT_EQ(counts.partial, 0u);
  EXPECT_EQ(counts.unmatched, 0u);
}

TEST(AllToAllTest, ReverseComplementStillFullIdentical) {
  const auto set = make_set(5, 300, 2);
  auto flipped = set;
  for (auto& s : flipped) s.bases = seq::reverse_complement(s.bases);
  const auto counts = all_to_all_categories(flipped, set);
  EXPECT_EQ(counts.full_identical, 5u);
}

TEST(AllToAllTest, PointMutationsMakeFullDiverged) {
  const auto set = make_set(6, 300, 3);
  auto mutated = set;
  for (auto& s : mutated) {
    s.bases[100] = s.bases[100] == 'A' ? 'C' : 'A';
    s.bases[200] = s.bases[200] == 'G' ? 'T' : 'G';
  }
  const auto counts = all_to_all_categories(mutated, set);
  EXPECT_EQ(counts.full_identical, 0u);
  EXPECT_EQ(counts.full_diverged, 6u);
}

TEST(AllToAllTest, TruncatedQueriesWithExtensionArePartial) {
  const auto set = make_set(4, 400, 4);
  std::vector<seq::Sequence> chimeras;
  for (const auto& s : set) {
    // Half of a real transcript glued to random sequence: only the real
    // half aligns -> partial-length category.
    chimeras.push_back({s.name + "_chimera", s.bases.substr(0, 200) + random_dna(200, 777)});
  }
  const auto counts = all_to_all_categories(chimeras, set);
  EXPECT_EQ(counts.partial, 4u);
  ASSERT_EQ(counts.partial_identities.size(), 4u);
  for (const double ident : counts.partial_identities) {
    // The aligned core is exact, but the local alignment may pick up noisy
    // net-positive extensions into the random half, diluting identity.
    EXPECT_GT(ident, 0.7);
  }
}

TEST(AllToAllTest, ForeignQueriesAreUnmatched) {
  const auto set = make_set(5, 300, 5);
  const auto foreign = make_set(3, 300, 500);
  const auto counts = all_to_all_categories(foreign, set);
  EXPECT_EQ(counts.unmatched, 3u);
  EXPECT_EQ(counts.total(), 3u);
}

TEST(AllToAllTest, EmptyQuerySet) {
  const auto set = make_set(3, 300, 6);
  const auto counts = all_to_all_categories({}, set);
  EXPECT_EQ(counts.total(), 0u);
}

// --- reference comparison -------------------------------------------------------------

TEST(ReferenceTest, ExactReconstructionCountsFullLength) {
  const auto reference = make_set(8, 350, 7);
  // Two isoforms per gene: gene g has refs 2g, 2g+1.
  std::vector<std::int32_t> gene_of;
  for (std::int32_t i = 0; i < 8; ++i) gene_of.push_back(i / 2);

  // Reconstruct isoform 0 of genes 0 and 1 exactly.
  const std::vector<seq::Sequence> reconstructed{reference[0], reference[2]};
  const auto cmp = compare_to_reference(reconstructed, reference, gene_of);
  EXPECT_EQ(cmp.full_length_isoforms, 2u);
  EXPECT_EQ(cmp.full_length_genes, 2u);
  EXPECT_EQ(cmp.fused_isoforms, 0u);
  EXPECT_EQ(cmp.fused_genes, 0u);
}

TEST(ReferenceTest, PartialReconstructionDoesNotCount) {
  const auto reference = make_set(4, 400, 8);
  const std::vector<std::int32_t> gene_of{0, 1, 2, 3};
  // Only half of reference 0.
  const std::vector<seq::Sequence> reconstructed{{"half", reference[0].bases.substr(0, 200)}};
  const auto cmp = compare_to_reference(reconstructed, reference, gene_of);
  EXPECT_EQ(cmp.full_length_isoforms, 0u);
  EXPECT_EQ(cmp.full_length_genes, 0u);
}

TEST(ReferenceTest, FusedTranscriptDetected) {
  const auto reference = make_set(4, 300, 9);
  const std::vector<std::int32_t> gene_of{0, 1, 2, 3};
  // An end-to-end fusion of references 1 and 2 (different genes).
  const std::vector<seq::Sequence> reconstructed{
      {"fusion", reference[1].bases + reference[2].bases}};
  const auto cmp = compare_to_reference(reconstructed, reference, gene_of);
  EXPECT_EQ(cmp.fused_isoforms, 1u);
  EXPECT_EQ(cmp.fused_genes, 2u);
  // Both constituents were recovered at full reference length.
  EXPECT_EQ(cmp.full_length_isoforms, 2u);
}

TEST(ReferenceTest, TwoIsoformsOfSameGeneAreNotAFusion) {
  const auto reference = make_set(2, 300, 10);
  const std::vector<std::int32_t> gene_of{0, 0};  // same gene
  const std::vector<seq::Sequence> reconstructed{
      {"join", reference[0].bases + reference[1].bases}};
  const auto cmp = compare_to_reference(reconstructed, reference, gene_of);
  EXPECT_EQ(cmp.fused_isoforms, 0u);
  EXPECT_EQ(cmp.fused_genes, 0u);
}

TEST(ReferenceTest, NearIdenticalReconstructionStillFullLength) {
  const auto reference = make_set(1, 400, 11);
  auto copy = reference[0];
  copy.bases[200] = copy.bases[200] == 'A' ? 'C' : 'A';  // one mismatch
  const auto cmp =
      compare_to_reference({copy}, reference, std::vector<std::int32_t>{0});
  EXPECT_EQ(cmp.full_length_isoforms, 1u);
}

TEST(AllToAllTest, EmptyTargetSetLeavesQueriesUnmatched) {
  const auto queries = make_set(3, 200, 42);
  const auto counts = all_to_all_categories(queries, {});
  EXPECT_EQ(counts.unmatched, 3u);
}

TEST(ReferenceTest, EmptyInputsYieldZeroCounts) {
  const auto cmp = compare_to_reference({}, {}, {});
  EXPECT_EQ(cmp.full_length_genes, 0u);
  EXPECT_EQ(cmp.fused_isoforms, 0u);
}

// --- oracle: naive scalar loops ------------------------------------------------------

/// Scalar full-matrix alignment of both strands; forward wins ties.
sw::Alignment naive_best_strand(const std::string& query, const std::string& target) {
  const auto fwd = sw::kernels::align_scalar(query, target, {});
  const auto rev = sw::kernels::align_scalar(seq::reverse_complement(query), target, {});
  return fwd.score >= rev.score ? fwd : rev;
}

CategoryCounts naive_categories(const std::vector<seq::Sequence>& queries,
                                const std::vector<seq::Sequence>& targets) {
  const ValidationOptions options;
  const CandidateFinder finder(targets, options);
  CategoryCounts counts;
  for (const auto& query : queries) {
    sw::Alignment best;
    for (const auto t : finder.candidates(query)) {
      const auto aln = naive_best_strand(query.bases, targets[static_cast<std::size_t>(t)].bases);
      if (aln.score > best.score) best = aln;
    }
    if (best.score <= 0) {
      ++counts.unmatched;
    } else if (best.query_coverage(query.bases.size()) < options.full_length_coverage) {
      ++counts.partial;
      counts.partial_identities.push_back(best.identity());
    } else if (best.identity() >= options.identical_threshold) {
      ++counts.full_identical;
    } else {
      ++counts.full_diverged;
    }
  }
  return counts;
}

ReferenceComparison naive_reference(const std::vector<seq::Sequence>& reconstructed,
                                    const std::vector<seq::Sequence>& reference,
                                    const std::vector<std::int32_t>& gene_of) {
  const ValidationOptions options;
  const CandidateFinder finder(reference, options);
  std::set<std::int32_t> refs, genes, fused_genes;
  ReferenceComparison out;
  for (const auto& rec : reconstructed) {
    std::set<std::int32_t> hit_genes;
    for (const auto t : finder.candidates(rec)) {
      const auto& ref = reference[static_cast<std::size_t>(t)].bases;
      const auto aln = naive_best_strand(ref, rec.bases);
      if (aln.score > 0 && aln.query_coverage(ref.size()) >= options.full_length_coverage &&
          aln.identity() >= options.min_fused_identity) {
        refs.insert(t);
        genes.insert(gene_of[static_cast<std::size_t>(t)]);
        hit_genes.insert(gene_of[static_cast<std::size_t>(t)]);
      }
    }
    if (hit_genes.size() >= 2) {
      ++out.fused_isoforms;
      fused_genes.insert(hit_genes.begin(), hit_genes.end());
    }
  }
  out.full_length_isoforms = refs.size();
  out.full_length_genes = genes.size();
  out.fused_genes = fused_genes.size();
  return out;
}

/// A small simulated study: genes of 1-3 isoforms built from shared exons,
/// an "original" run that recovers most isoforms with a few errors, and a
/// "parallel" run mixing exact, reverse-complemented, mutated, truncated,
/// fused, chimeric and foreign transcripts.
struct Study {
  std::vector<seq::Sequence> reference;
  std::vector<std::int32_t> gene_of;
  std::vector<seq::Sequence> original;
  std::vector<seq::Sequence> parallel;
};

std::string point_mutations(std::string s, std::size_t count, util::Rng& rng) {
  for (std::size_t k = 0; k < count && !s.empty(); ++k) {
    const auto pos = rng.uniform_below(s.size());
    s[pos] = s[pos] == 'A' ? 'G' : 'A';
  }
  return s;
}

Study simulate_study(std::uint64_t seed) {
  util::Rng rng(seed);
  Study study;
  for (std::int32_t gene = 0; gene < 12; ++gene) {
    std::vector<std::string> exons;
    for (int e = 0; e < 3; ++e) exons.push_back(random_dna(60 + rng.uniform_below(100), rng()));
    const std::vector<std::string> isoforms{exons[0] + exons[1] + exons[2], exons[0] + exons[2],
                                            exons[1] + exons[2]};
    const auto count = 1 + rng.uniform_below(3);
    for (std::size_t k = 0; k < count; ++k) {
      study.reference.push_back({"g" + std::to_string(gene) + "i" + std::to_string(k), isoforms[k]});
      study.gene_of.push_back(gene);
    }
  }
  for (std::size_t r = 0; r < study.reference.size(); ++r) {
    const std::string& ref = study.reference[r].bases;
    const std::string name = "t" + std::to_string(r);
    if (rng.bernoulli(0.85)) {
      study.original.push_back({name, point_mutations(ref, rng.uniform_below(3), rng)});
    }
    std::string rec;
    switch (rng.uniform_below(8)) {
      case 0: rec = ref; break;
      case 1: rec = seq::reverse_complement(ref); break;
      case 2: rec = point_mutations(ref, 1 + rng.uniform_below(8), rng); break;
      case 3: rec = ref.substr(0, ref.size() * (5 + rng.uniform_below(4)) / 10); break;
      case 4: {
        // A fusion with the next reference, often from another gene.
        const auto& next = study.reference[(r + 1) % study.reference.size()].bases;
        rec = ref + random_dna(rng.uniform_below(20), rng()) + seq::reverse_complement(next);
        break;
      }
      case 5: rec = ref.substr(0, ref.size() / 2) + random_dna(150, rng()); break;
      case 6: rec = random_dna(300, rng()); break;
      default: rec = ref.substr(10) + ref.substr(0, 10); break;
    }
    study.parallel.push_back({name, rec});
  }
  return study;
}

void expect_same_counts(const CategoryCounts& got, const CategoryCounts& want) {
  EXPECT_EQ(got.full_identical, want.full_identical);
  EXPECT_EQ(got.full_diverged, want.full_diverged);
  EXPECT_EQ(got.partial, want.partial);
  EXPECT_EQ(got.unmatched, want.unmatched);
  EXPECT_EQ(got.partial_identities, want.partial_identities);
}

TEST(ValidateOracleTest, MatchesNaiveScalarLoops) {
  std::size_t fused = 0;
  std::size_t partial = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto study = simulate_study(seed);
    const auto counts = all_to_all_categories(study.parallel, study.original);
    expect_same_counts(counts, naive_categories(study.parallel, study.original));
    expect_same_counts(all_to_all_categories(study.original, study.parallel),
                       naive_categories(study.original, study.parallel));

    const auto cmp = compare_to_reference(study.parallel, study.reference, study.gene_of);
    const auto want = naive_reference(study.parallel, study.reference, study.gene_of);
    EXPECT_EQ(cmp.full_length_genes, want.full_length_genes);
    EXPECT_EQ(cmp.full_length_isoforms, want.full_length_isoforms);
    EXPECT_EQ(cmp.fused_genes, want.fused_genes);
    EXPECT_EQ(cmp.fused_isoforms, want.fused_isoforms);
    fused += cmp.fused_isoforms;
    partial += counts.partial;
  }
  // The studies exercise the categories the pruning and the single
  // traceback could get wrong.
  EXPECT_GT(fused, 0u);
  EXPECT_GT(partial, 0u);
}

TEST(TTestBridge, ForwardsToWelch) {
  const std::vector<double> a{10, 11, 9, 10.5, 9.5};
  const std::vector<double> b{10.2, 10.8, 9.1, 10.4, 9.6};
  EXPECT_FALSE(compare_run_metric(a, b).significant_at_5pct);
}

}  // namespace
}  // namespace trinity::validate
