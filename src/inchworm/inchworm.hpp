#pragma once
// Inchworm: greedy k-mer extension assembler (Trinity stage 2).
//
// Mirrors the algorithm the paper summarizes in Section II.A:
//   1. build a k-mer dictionary from the Jellyfish-style counts, removing
//      likely error k-mers (count below a threshold);
//   2. sort k-mers by decreasing abundance;
//   3. seed a contig from the most abundant unused k-mer;
//   4. extend the seed in each direction by the highest-count k-mer with a
//      (k-1) overlap (Figure 1 of the paper);
//   5. report the linear contig, mark its k-mers used, repeat until the
//      dictionary is exhausted.
//
// K-mers are canonical (strand-neutral), and extension works on literal
// orientations while consulting canonical counts, matching Trinity's
// double-stranded mode.

#include <cstdint>
#include <string>
#include <vector>

#include "kmer/counter.hpp"
#include "kmer/flat_index.hpp"
#include "seq/kmer.hpp"
#include "seq/sequence.hpp"

namespace trinity::inchworm {

/// Assembly options.
struct InchwormOptions {
  int k = 25;                          ///< k-mer size (must match the counts)
  std::uint32_t min_kmer_count = 2;    ///< error-pruning threshold
  std::size_t min_contig_length = 48;  ///< discard shorter contigs
  /// Tie-break salt among equally abundant seeds. Trinity's output is
  /// "slightly indeterministic" between runs (paper, Section IV); varying
  /// this value models that run-to-run variation, while 0 keeps the
  /// canonical deterministic order.
  std::uint64_t tie_break_seed = 0;
};

/// Summary of one assembly run.
struct InchwormStats {
  std::size_t dictionary_size = 0;   ///< k-mers surviving the error prune
  std::size_t contigs_reported = 0;
  std::size_t contigs_discarded = 0; ///< below min_contig_length
  std::size_t bases_assembled = 0;
};

/// Greedy contig assembler over a k-mer count dictionary.
class Inchworm {
 public:
  explicit Inchworm(InchwormOptions options);

  /// Loads the dictionary from dumped counts, pruning error k-mers.
  /// Codes must be canonical for the same k as the options. Throws
  /// std::overflow_error when a k-mer's count reaches 2^31.
  void load_counts(const std::vector<kmer::KmerCount>& counts);

  /// Runs the greedy assembly, returning contigs named "iworm_<n>" in
  /// seed-abundance order.
  std::vector<seq::Sequence> assemble();

  /// Statistics of the most recent assemble() call.
  [[nodiscard]] const InchwormStats& stats() const { return stats_; }

 private:
  /// A dictionary word holds the count in its low 31 bits and the used
  /// flag in the top bit.
  static constexpr std::uint32_t kUsed = std::uint32_t{1} << 31;

  /// Count lookup through canonicalization; 0 when absent or used.
  std::uint32_t available_count(seq::KmerCode literal) const;

  /// Marks the canonical form of `literal` used.
  void mark_used(seq::KmerCode literal);

  /// Extends `contig` to the right by greedy (k-1)-overlap steps.
  void extend_right(std::string& contig);

  InchwormOptions options_;
  seq::KmerCodec codec_;
  kmer::FlatKmerIndex<std::uint32_t> dict_;
  InchwormStats stats_;
};

}  // namespace trinity::inchworm
