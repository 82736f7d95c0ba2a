#pragma once
// The Section-IV validation harness.
//
// Test 1 (Figure 4): all-to-all Smith–Waterman comparison of the transcript
// sets from two runs, categorized as (a) 100% identical over the full
// query length, (b) <100% identity over the full length, (c) partial-length
// alignment, with (d) the identity distribution inside category (c).
//
// Test 2 (Figures 5 and 6): alignment of reconstructed transcripts against
// a reference transcript set, counting fully reconstructed genes/isoforms
// and "fused" transcripts — single reconstructions spanning multiple
// full-length references from different genes.
//
// Full SW against every pair would be quadratic in transcripts; a shared-
// k-mer prefilter picks a handful of candidates per query first, exactly
// the role the FASTA program's heuristic stages play around its SW kernel.
// Each candidate is then scored on both strands in linear memory, and the
// traceback runs only where a category reads it: once per query for
// Figure 4, and for Figures 5/6 only on candidates whose score clears the
// lowest score a full-length hit can have.

#include <cstdint>
#include <string>
#include <vector>

#include "kmer/postings.hpp"
#include "seq/kmer.hpp"
#include "seq/sequence.hpp"
#include "sw/smith_waterman.hpp"
#include "util/stats.hpp"

namespace trinity::validate {

/// Thresholds for "full length" and "identical".
struct ValidationOptions {
  int prefilter_k = 25;             ///< k-mer size of the candidate filter
  std::size_t min_shared_kmers = 5; ///< shared k-mers to become a candidate
  std::size_t max_candidates = 5;   ///< SW alignments per query
  /// Alignment span / sequence length for a "full length" call. 0.95 is
  /// the conventional RNA-seq criterion; assembled ends lose a few bases
  /// to the error-k-mer prune, exactly as in real Trinity output.
  double full_length_coverage = 0.95;
  double identical_threshold = 0.999;  ///< identity counted as "100%"
  double min_fused_identity = 0.95;    ///< identity for a fused hit
};

/// Shared-k-mer candidate filter: maps each query to the target indices
/// sharing the most distinct canonical k-mers.
class CandidateFinder {
 public:
  CandidateFinder(const std::vector<seq::Sequence>& targets, const ValidationOptions& options);

  /// Target indices ordered by decreasing shared-k-mer count (then by
  /// index), truncated to max_candidates; targets below min_shared_kmers
  /// are dropped.
  [[nodiscard]] std::vector<std::int32_t> candidates(const seq::Sequence& query) const;

 private:
  ValidationOptions options_;
  seq::KmerCodec codec_;
  kmer::KmerPostings<std::int32_t> index_;  ///< code -> targets carrying it
};

/// Figure 4 result: query counts per category plus the (c) identities.
struct CategoryCounts {
  std::size_t full_identical = 0;    ///< (a)
  std::size_t full_diverged = 0;     ///< (b)
  std::size_t partial = 0;           ///< (c)
  std::size_t unmatched = 0;         ///< no candidate aligned at all
  std::vector<double> partial_identities;  ///< (d)

  [[nodiscard]] std::size_t total() const {
    return full_identical + full_diverged + partial + unmatched;
  }
};

/// Categorizes every transcript of `query_set` against its best match in
/// `target_set` (Figure 4's "Parallel" bar aligns the parallel run against
/// the original run; the "Original" bar aligns two original runs).
CategoryCounts all_to_all_categories(const std::vector<seq::Sequence>& query_set,
                                     const std::vector<seq::Sequence>& target_set,
                                     const ValidationOptions& options = {});

/// Figures 5 and 6 result for one run against a reference set.
struct ReferenceComparison {
  std::size_t full_length_genes = 0;     ///< genes with >= 1 full-length isoform
  std::size_t full_length_isoforms = 0;  ///< reference isoforms recovered full length
  std::size_t fused_genes = 0;           ///< genes involved in a fusion
  std::size_t fused_isoforms = 0;        ///< reconstructed transcripts that fuse
};

/// Compares reconstructed transcripts to a reference transcriptome.
/// `gene_of_reference[i]` is the gene id of reference transcript i.
ReferenceComparison compare_to_reference(const std::vector<seq::Sequence>& reconstructed,
                                         const std::vector<seq::Sequence>& reference,
                                         const std::vector<std::int32_t>& gene_of_reference,
                                         const ValidationOptions& options = {});

/// The paper's statistical check: a two-sample t-test over a per-run metric
/// from repeated runs of each version. Returns the Welch test result.
util::TTestResult compare_run_metric(const std::vector<double>& original_runs,
                                     const std::vector<double>& parallel_runs);

}  // namespace trinity::validate
