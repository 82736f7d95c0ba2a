#include "validate/validate.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "seq/dna.hpp"

namespace trinity::validate {

CandidateFinder::CandidateFinder(const std::vector<seq::Sequence>& targets,
                                 const ValidationOptions& options)
    : options_(options), codec_(options.prefilter_k) {
  index_ = kmer::KmerPostings<std::int32_t>::build([&](auto&& emit) {
    for (std::size_t t = 0; t < targets.size(); ++t) {
      for (const auto code : codec_.distinct_canonical(targets[t].bases)) {
        emit(code, static_cast<std::int32_t>(t));
      }
    }
  });
}

std::vector<std::int32_t> CandidateFinder::candidates(const seq::Sequence& query) const {
  std::unordered_map<std::int32_t, std::size_t> shared;
  for (const auto code : codec_.distinct_canonical(query.bases)) {
    for (const auto t : index_.lookup(code)) ++shared[t];
  }
  std::vector<std::pair<std::int32_t, std::size_t>> ranked;
  for (const auto& [t, n] : shared) {
    if (n >= options_.min_shared_kmers) ranked.emplace_back(t, n);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (ranked.size() > options_.max_candidates) ranked.resize(options_.max_candidates);
  std::vector<std::int32_t> out;
  out.reserve(ranked.size());
  for (const auto& [t, n] : ranked) out.push_back(t);
  return out;
}

CategoryCounts all_to_all_categories(const std::vector<seq::Sequence>& query_set,
                                     const std::vector<seq::Sequence>& target_set,
                                     const ValidationOptions& options) {
  CategoryCounts counts;
  const CandidateFinder finder(target_set, options);

  for (const auto& query : query_set) {
    // Score both strands of every candidate; only the winner, the first
    // candidate with the strictly greatest score, is traced back.
    const std::string query_rc = seq::reverse_complement(query.bases);
    sw::StrandScore best;
    const seq::Sequence* winner = nullptr;
    for (const auto t : finder.candidates(query)) {
      const auto& target = target_set[static_cast<std::size_t>(t)];
      const auto hit = sw::score_best_strand(query.bases, query_rc, target.bases);
      if (hit.end.score > best.end.score) {
        best = hit;
        winner = &target;
      }
    }
    if (winner == nullptr) {
      ++counts.unmatched;
      continue;
    }
    const auto aln = sw::traceback(best.reverse ? query_rc : query.bases, winner->bases, best.end);
    const double coverage = aln.query_coverage(query.bases.size());
    const double identity = aln.identity();
    if (coverage >= options.full_length_coverage) {
      if (identity >= options.identical_threshold) {
        ++counts.full_identical;
      } else {
        ++counts.full_diverged;
      }
    } else {
      ++counts.partial;
      counts.partial_identities.push_back(identity);
    }
  }
  return counts;
}

ReferenceComparison compare_to_reference(const std::vector<seq::Sequence>& reconstructed,
                                         const std::vector<seq::Sequence>& reference,
                                         const std::vector<std::int32_t>& gene_of_reference,
                                         const ValidationOptions& options) {
  ReferenceComparison out;
  const CandidateFinder finder(reference, options);

  std::unordered_set<std::int32_t> full_length_refs;  // reference isoform ids
  std::unordered_set<std::int32_t> full_length_gene_set;
  std::unordered_set<std::int32_t> fused_gene_set;

  for (const auto& rec : reconstructed) {
    // All references this reconstruction contains at full (reference)
    // length; two hits from different genes make it a fusion.
    std::vector<std::int32_t> contained;
    for (const auto t : finder.candidates(rec)) {
      const auto& ref = reference[static_cast<std::size_t>(t)].bases;
      const std::string ref_rc = seq::reverse_complement(ref);
      const auto hit = sw::score_best_strand(ref, ref_rc, rec.bases);
      // Below this floor no alignment can be a full-length hit.
      const int floor = sw::min_qualifying_score(ref.size(), options.full_length_coverage,
                                                 options.min_fused_identity);
      if (hit.end.score <= 0 || hit.end.score < floor) continue;
      const auto aln = sw::traceback(hit.reverse ? ref_rc : ref, rec.bases, hit.end);
      const double ref_coverage = aln.query_coverage(ref.size());
      if (ref_coverage >= options.full_length_coverage &&
          aln.identity() >= options.min_fused_identity) {
        contained.push_back(t);
        full_length_refs.insert(t);
      }
    }
    std::unordered_set<std::int32_t> genes;
    for (const auto t : contained) {
      genes.insert(gene_of_reference[static_cast<std::size_t>(t)]);
    }
    if (genes.size() >= 2) {
      ++out.fused_isoforms;
      fused_gene_set.insert(genes.begin(), genes.end());
    }
  }

  for (const auto ref : full_length_refs) {
    full_length_gene_set.insert(gene_of_reference[static_cast<std::size_t>(ref)]);
  }
  out.full_length_isoforms = full_length_refs.size();
  out.full_length_genes = full_length_gene_set.size();
  out.fused_genes = fused_gene_set.size();
  return out;
}

util::TTestResult compare_run_metric(const std::vector<double>& original_runs,
                                     const std::vector<double>& parallel_runs) {
  return util::welch_t_test(original_runs, parallel_runs);
}

}  // namespace trinity::validate
