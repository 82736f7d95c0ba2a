// AVX2 kernels: the Gotoh recurrences of sw/kernels.hpp swept one
// anti-diagonal at a time, 16 cells per int16 vector. Cells on an
// anti-diagonal d = i + j depend only on diagonals d-1 and d-2, so a
// vector of consecutive rows i..i+15 needs no in-register shifts (unlike
// Farrar's striped layout, whose lazy-F loop also makes ties harder to
// reproduce). Each diagonal is stored indexed by its row, so the up, left
// and diagonal neighbours are plain unaligned loads at i-1 and i.
//
// Tie-breaks match the scalar kernels exactly: trace codes use the same
// comparisons, and the best cell is the first maximum in row-major order,
// found per diagonal from its maximum and its first row holding it.
//
// The functions carry __attribute__((target("avx2"))), so the rest of the
// build needs no -mavx2; sw::score and sw::traceback call them only when
// avx2_available() says the CPU can run them.

#include "sw/kernels.hpp"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>
#include <cstdint>
#include <vector>

namespace trinity::sw::kernels {

namespace {

constexpr std::int16_t kNegInf16 = -(1 << 14);
constexpr std::size_t kLanes = 16;

/// Anti-diagonal trace bytes: diagonal d holds the cells of rows
/// lo(d)..hi(d), starting at offset[d].
struct DiagonalTrace {
  std::size_t cols = 0;
  std::vector<std::size_t> offset;
  std::vector<std::uint8_t> bytes;

  [[nodiscard]] std::uint8_t at(std::size_t i, std::size_t j) const {
    if (i == 0 || j == 0) return kStop;
    const std::size_t d = i + j;
    const std::size_t lo = d > cols ? d - cols : 1;
    return bytes[offset[d] + (i - lo)];
  }
};

__attribute__((target("avx2"))) inline __m256i load(const std::int16_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

__attribute__((target("avx2"))) inline void store(std::int16_t* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

__attribute__((target("avx2"))) inline int horizontal_max(__m256i v) {
  __m128i x = _mm_max_epi16(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
  x = _mm_max_epi16(x, _mm_srli_si128(x, 8));
  x = _mm_max_epi16(x, _mm_srli_si128(x, 4));
  x = _mm_max_epi16(x, _mm_srli_si128(x, 2));
  return static_cast<std::int16_t>(_mm_extract_epi16(x, 0));
}

/// First row in [lo, hi] whose H equals `value` (which occurs there).
__attribute__((target("avx2"))) inline std::size_t first_row_of(const std::int16_t* h,
                                                                std::size_t lo, std::size_t hi,
                                                                int value) {
  const __m256i v = _mm256_set1_epi16(static_cast<std::int16_t>(value));
  for (std::size_t i = lo; i <= hi; i += kLanes) {
    const auto mask = static_cast<unsigned>(_mm256_movemask_epi8(_mm256_cmpeq_epi16(load(h + i), v)));
    if (mask != 0) return i + static_cast<std::size_t>(__builtin_ctz(mask)) / 2;
  }
  return hi;
}

/// The anti-diagonal sweep behind both AVX2 kernels; with kTrace it also
/// fills `trace`. H, E and F live in rotating buffers indexed by row: three
/// diagonals of H, two of E and F. Lanes past a diagonal's last row are
/// stored as the matrix boundary (H 0, E and F minus infinity), which is
/// what the next diagonals must read there.
template <bool kTrace>
__attribute__((target("avx2"))) ScoreEnd sweep(std::string_view query, std::string_view target,
                                               const Scoring& s, DiagonalTrace* trace) {
  const std::size_t n = query.size();
  const std::size_t m = target.size();
  ScoreEnd best;
  if (n == 0 || m == 0) return best;

  // q[i] is query base i-1, so row i loads at i; r is the target reversed,
  // so cell (i, d-i) loads r[m-d+i]. The two paddings never compare equal.
  std::vector<std::int16_t> q(n + kLanes, -1);
  std::vector<std::int16_t> r(m + kLanes, -2);
  for (std::size_t i = 0; i < n; ++i) q[i + 1] = static_cast<unsigned char>(query[i]);
  for (std::size_t k = 0; k < m; ++k) r[k] = static_cast<unsigned char>(target[m - 1 - k]);

  const std::size_t width = n + 1 + kLanes;
  std::vector<std::int16_t> h_buf(3 * width, 0);
  std::vector<std::int16_t> e_buf(2 * width, kNegInf16);
  std::vector<std::int16_t> f_buf(2 * width, kNegInf16);
  if constexpr (kTrace) {
    trace->cols = m;
    trace->offset.assign(n + m + 1, 0);
    trace->bytes.assign(n * m + kLanes, kStop);
  }
  std::size_t written = 0;

  const __m256i v_match = _mm256_set1_epi16(static_cast<std::int16_t>(s.match));
  const __m256i v_mismatch = _mm256_set1_epi16(static_cast<std::int16_t>(s.mismatch));
  const __m256i v_open = _mm256_set1_epi16(static_cast<std::int16_t>(s.gap_open));
  const __m256i v_extend = _mm256_set1_epi16(static_cast<std::int16_t>(s.gap_extend));
  const __m256i v_zero = _mm256_setzero_si256();
  const __m256i v_neg_inf = _mm256_set1_epi16(kNegInf16);
  const __m256i v_lane = _mm256_setr_epi16(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  const __m256i c_diag = _mm256_set1_epi16(kDiag);
  const __m256i c_from_e = _mm256_set1_epi16(kFromE);
  const __m256i c_from_f = _mm256_set1_epi16(kFromF);
  const __m256i c_e_extended = _mm256_set1_epi16(kEExtended);
  const __m256i c_f_extended = _mm256_set1_epi16(kFExtended);

  for (std::size_t d = 2; d <= n + m; ++d) {
    const std::size_t lo = d > m ? d - m : 1;
    const std::size_t hi = std::min(n, d - 1);
    std::int16_t* h_cur = h_buf.data() + (d % 3) * width;
    const std::int16_t* h_prev = h_buf.data() + ((d - 1) % 3) * width;
    const std::int16_t* h_prev2 = h_buf.data() + ((d - 2) % 3) * width;
    std::int16_t* e_cur = e_buf.data() + (d & 1) * width;
    const std::int16_t* e_prev = e_buf.data() + ((d - 1) & 1) * width;
    std::int16_t* f_cur = f_buf.data() + (d & 1) * width;
    const std::int16_t* f_prev = f_buf.data() + ((d - 1) & 1) * width;
    if constexpr (kTrace) trace->offset[d] = written;

    __m256i v_max = v_zero;
    for (std::size_t i = lo; i <= hi; i += kLanes) {
      const __m256i same = _mm256_cmpeq_epi16(load(q.data() + i), load(r.data() + (m + i - d)));
      const __m256i diag =
          _mm256_adds_epi16(load(h_prev2 + i - 1), _mm256_blendv_epi8(v_mismatch, v_match, same));
      const __m256i e_open = _mm256_adds_epi16(load(h_prev + i), v_open);
      const __m256i e_extend = _mm256_adds_epi16(load(e_prev + i), v_extend);
      __m256i e = _mm256_max_epi16(e_open, e_extend);
      const __m256i f_open = _mm256_adds_epi16(load(h_prev + i - 1), v_open);
      const __m256i f_extend = _mm256_adds_epi16(load(f_prev + i - 1), v_extend);
      __m256i f = _mm256_max_epi16(f_open, f_extend);
      const __m256i h_diag = _mm256_max_epi16(diag, v_zero);
      const __m256i h_e = _mm256_max_epi16(h_diag, e);
      __m256i h = _mm256_max_epi16(h_e, f);

      if constexpr (kTrace) {
        __m256i code = _mm256_and_si256(_mm256_cmpgt_epi16(diag, v_zero), c_diag);
        code = _mm256_blendv_epi8(code, c_from_e, _mm256_cmpgt_epi16(e, h_diag));
        code = _mm256_blendv_epi8(code, c_from_f, _mm256_cmpgt_epi16(f, h_e));
        code = _mm256_or_si256(
            code, _mm256_andnot_si256(_mm256_cmpgt_epi16(e_open, e_extend), c_e_extended));
        code = _mm256_or_si256(
            code, _mm256_andnot_si256(_mm256_cmpgt_epi16(f_open, f_extend), c_f_extended));
        // Bytes 0-7 and 8-15 of the pack sit in qwords 0 and 2. Lanes past
        // hi spill into the next diagonal's bytes, which it rewrites.
        const __m256i packed =
            _mm256_permute4x64_epi64(_mm256_packus_epi16(code, code), 0x08);
        _mm_storeu_si128(reinterpret_cast<__m128i*>(trace->bytes.data() + written + (i - lo)),
                         _mm256_castsi256_si128(packed));
      }
      if (i + kLanes > hi + 1) {
        const __m256i valid =
            _mm256_cmpgt_epi16(_mm256_set1_epi16(static_cast<std::int16_t>(hi + 1 - i)), v_lane);
        h = _mm256_and_si256(h, valid);
        e = _mm256_blendv_epi8(v_neg_inf, e, valid);
        f = _mm256_blendv_epi8(v_neg_inf, f, valid);
      }
      store(h_cur + i, h);
      store(e_cur + i, e);
      store(f_cur + i, f);
      v_max = _mm256_max_epi16(v_max, h);
    }
    written += hi - lo + 1;

    // Row-major first maximum: a later diagonal's cell wins a tie only
    // from an earlier row.
    const int top = horizontal_max(v_max);
    if (top > 0 && top >= best.score) {
      const std::size_t row = first_row_of(h_cur, lo, hi, top);
      if (top > best.score || row < best.query_end) best = {top, row, d - row};
    }
  }
  return best;
}

}  // namespace

bool avx2_available() {
  static const bool available = __builtin_cpu_supports("avx2") != 0;
  return available;
}

ScoreEnd score_avx2(std::string_view query, std::string_view target, const Scoring& scoring) {
  return sweep<false>(query, target, scoring, nullptr);
}

Alignment align_avx2(std::string_view query, std::string_view target, const Scoring& scoring) {
  DiagonalTrace trace;
  const ScoreEnd best = sweep<true>(query, target, scoring, &trace);
  return walk(query, target, best,
              [&](std::size_t i, std::size_t j) { return trace.at(i, j); });
}

}  // namespace trinity::sw::kernels

#else  // no x86: the scalar kernels stand in

namespace trinity::sw::kernels {

bool avx2_available() { return false; }

ScoreEnd score_avx2(std::string_view query, std::string_view target, const Scoring& scoring) {
  return score_scalar(query, target, scoring);
}

Alignment align_avx2(std::string_view query, std::string_view target, const Scoring& scoring) {
  return align_scalar(query, target, scoring);
}

}  // namespace trinity::sw::kernels

#endif
