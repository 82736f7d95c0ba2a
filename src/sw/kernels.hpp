#pragma once
// The kernels behind sw::score and sw::traceback. The scalar kernels are
// the reference and the fallback; the AVX2 kernels sweep anti-diagonals in
// 16 int16 lanes and must return exactly what the scalar ones do, tie-breaks
// included. sw/smith_waterman.cpp picks one at run time; the kernel tests
// and the SW bench call them directly.
//
// Recurrences (Gotoh, local): with s(i, j) the match/mismatch score,
//   E(i, j) = max(H(i, j-1) + gap_open, E(i, j-1) + gap_extend)
//   F(i, j) = max(H(i-1, j) + gap_open, F(i-1, j) + gap_extend)
//   H(i, j) = max(0, H(i-1, j-1) + s(i, j), E(i, j), F(i, j))
// H is 0 on row and column 0; E and F start at minus infinity. The best
// cell is the first maximum of H in row-major order.

#include <cstdint>
#include <string_view>

#include "sw/smith_waterman.hpp"

namespace trinity::sw::kernels {

/// Trace byte of one cell. Bits 0-1 say where H came from (ties go to the
/// earlier of stop, diagonal, E, F); bit 2 that E extended a gap rather
/// than opened one, bit 3 the same for F (ties go to extending).
enum : std::uint8_t {
  kStop = 0,
  kDiag = 1,
  kFromE = 2,  ///< gap in the query: came from the left
  kFromF = 3,  ///< gap in the target: came from above
  kSourceMask = 3,
  kEExtended = 4,
  kFExtended = 8,
};

/// True on an x86 build running on a CPU with AVX2.
bool avx2_available();

/// True when every H, E and F value of a query_length x target_length
/// matrix fits the AVX2 kernels' int16 lanes under `scoring`.
bool fits_int16(std::size_t query_length, std::size_t target_length, const Scoring& scoring);

/// Score-only pass in linear memory.
ScoreEnd score_scalar(std::string_view query, std::string_view target, const Scoring& scoring);
/// AVX2 score-only pass. Requires avx2_available() and fits_int16().
ScoreEnd score_avx2(std::string_view query, std::string_view target, const Scoring& scoring);

/// Fills the trace bytes of the whole query x target matrix, finds the best
/// cell and walks the alignment back from it.
Alignment align_scalar(std::string_view query, std::string_view target, const Scoring& scoring);
/// AVX2 align_scalar. Requires avx2_available() and fits_int16().
Alignment align_avx2(std::string_view query, std::string_view target, const Scoring& scoring);

/// Walks a filled trace back from `end`. `trace_at(i, j)` is the trace byte
/// of cell (i, j) and must be kStop on row and column 0.
template <typename TraceAt>
Alignment walk(std::string_view query, std::string_view target, const ScoreEnd& end,
               TraceAt&& trace_at) {
  Alignment aln;
  if (end.score <= 0) return aln;
  aln.score = end.score;
  aln.query_end = end.query_end;
  aln.target_end = end.target_end;
  std::size_t i = end.query_end;
  std::size_t j = end.target_end;
  enum class State { H, E, F };
  State state = State::H;
  for (;;) {
    const std::uint8_t cell = trace_at(i, j);
    if (state == State::H) {
      const int source = cell & kSourceMask;
      if (source == kStop) break;
      if (source == kDiag) {
        ++aln.alignment_columns;
        if (query[i - 1] == target[j - 1]) ++aln.matches;
        --i;
        --j;
      } else {
        state = source == kFromE ? State::E : State::F;
      }
    } else if (state == State::E) {
      ++aln.alignment_columns;
      --j;
      if ((cell & kEExtended) == 0) state = State::H;
    } else {
      ++aln.alignment_columns;
      --i;
      if ((cell & kFExtended) == 0) state = State::H;
    }
  }
  aln.query_begin = i;
  aln.target_begin = j;
  return aln;
}

}  // namespace trinity::sw::kernels
