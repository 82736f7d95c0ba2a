#pragma once
// Smith–Waterman local alignment with affine gap penalties.
//
// Section IV of the paper validates the parallel pipeline by aligning every
// reconstructed transcript against every transcript from the original run
// "using the Smith-Waterman algorithm, as implemented in the FASTA
// program", then bucketing pairs by identity and coverage (Figure 4). This
// module provides that comparator: Gotoh dynamic programming in two passes.
// score() finds the best score and its end cell in linear memory;
// traceback() then recomputes only the prefix rectangle ending at that cell
// and walks it back for identity, alignment length and coverage. Both
// passes run AVX2 kernels when the CPU has them and the scores fit int16
// lanes, and scalar kernels otherwise (sw/kernels.hpp); all kernels return
// identical results.

#include <cstdint>
#include <string_view>

namespace trinity::sw {

/// Scoring scheme; defaults approximate the FASTA program's DNA defaults.
struct Scoring {
  int match = 5;
  int mismatch = -4;
  int gap_open = -12;    ///< charged for the first base of a gap
  int gap_extend = -4;   ///< charged for each additional base
};

/// Result of a local alignment.
struct Alignment {
  int score = 0;
  std::size_t query_begin = 0;   ///< [begin, end) on the query
  std::size_t query_end = 0;
  std::size_t target_begin = 0;  ///< [begin, end) on the target
  std::size_t target_end = 0;
  std::size_t matches = 0;       ///< identical aligned columns
  std::size_t alignment_columns = 0;  ///< aligned columns incl. gaps

  /// Fraction of identical columns in the local alignment (0 when empty).
  [[nodiscard]] double identity() const {
    return alignment_columns == 0
               ? 0.0
               : static_cast<double>(matches) / static_cast<double>(alignment_columns);
  }
  /// Fraction of the query covered by the local alignment.
  [[nodiscard]] double query_coverage(std::size_t query_length) const {
    return query_length == 0
               ? 0.0
               : static_cast<double>(query_end - query_begin) / static_cast<double>(query_length);
  }
};

/// Best local score and the cell where it ends: the first cell of maximal
/// score in row-major (query-major) order, as one-past-the-end coordinates.
/// A score of 0 means the pair has no local alignment.
struct ScoreEnd {
  int score = 0;
  std::size_t query_end = 0;
  std::size_t target_end = 0;
};

/// Score-only Smith–Waterman–Gotoh pass in linear memory.
ScoreEnd score(std::string_view query, std::string_view target, const Scoring& scoring = {});

/// The alignment score() found for the same pair, with its traceback
/// statistics. Only the cells of [0, end.query_end) x [0, end.target_end)
/// are filled: they hold the same values as in the full matrix, so the
/// result equals a full-matrix alignment.
Alignment traceback(std::string_view query, std::string_view target, const ScoreEnd& end,
                    const Scoring& scoring = {});

/// score() followed by traceback().
Alignment align(std::string_view query, std::string_view target, const Scoring& scoring = {});

/// Which strand of the query scored better against a target.
struct StrandScore {
  ScoreEnd end;
  bool reverse = false;  ///< true when `end` belongs to the reverse complement
};

/// score() of both strands of the query (`query_rc` is its reverse
/// complement); the forward strand wins ties.
StrandScore score_best_strand(std::string_view query, std::string_view query_rc,
                              std::string_view target, const Scoring& scoring = {});

/// A lower bound on the score of any alignment that covers at least
/// `min_coverage` of a query of `query_length` bases at identity at least
/// `min_identity`; 0 when the scoring gives no positive bound. A pair
/// scoring below it cannot hold such an alignment, so its traceback can be
/// skipped.
int min_qualifying_score(std::size_t query_length, double min_coverage, double min_identity,
                         const Scoring& scoring = {});

}  // namespace trinity::sw
