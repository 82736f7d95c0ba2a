#pragma once
// Packed k-mer representation: up to 32 bases in one uint64_t, 2 bits per
// base, most-significant-pair first so that integer comparison equals
// lexicographic comparison of the base string. A KmerCodec carries k and
// performs encode/decode, rolling extension, reverse complement and
// canonicalization (min of a k-mer and its reverse complement) — the
// standard strand-neutral key used by k-mer counters. for_each() is the one
// walk over a sequence's k-mers: forward and reverse-complement codes
// rolled together, HipMer-style.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "seq/dna.hpp"

namespace trinity::seq {

/// A packed k-mer value. Only meaningful together with the k of the codec
/// that produced it.
using KmerCode = std::uint64_t;

/// Encoder/decoder for k-mers of a fixed k in [1, 32].
class KmerCodec {
 public:
  /// Throws std::invalid_argument when k is outside [1, 32].
  explicit KmerCodec(int k);

  [[nodiscard]] int k() const { return k_; }

  /// The low 2k bits: every k-mer code of this k is at most mask().
  [[nodiscard]] KmerCode mask() const { return mask_; }

  /// Encodes exactly the first k characters of `s` (s.size() must be >= k,
  /// all ACGT). Returns std::nullopt when any base is invalid.
  [[nodiscard]] std::optional<KmerCode> encode(std::string_view s) const;

  /// Decodes a packed k-mer back to its base string.
  [[nodiscard]] std::string decode(KmerCode code) const;

  /// Rolls the k-mer one base to the right: drops the leftmost base and
  /// appends `next` (a 2-bit code).
  [[nodiscard]] KmerCode roll_right(KmerCode code, std::uint8_t next) const {
    return ((code << 2) | next) & mask_;
  }

  /// Reverse complement of a packed k-mer, without a per-base loop:
  /// complement every pair, reverse the pairs of the whole word, and shift
  /// the k reversed pairs back down.
  [[nodiscard]] KmerCode reverse_complement(KmerCode code) const {
    KmerCode x = ~code;
    x = ((x >> 2) & 0x3333333333333333ULL) | ((x & 0x3333333333333333ULL) << 2);
    x = ((x >> 4) & 0x0F0F0F0F0F0F0F0FULL) | ((x & 0x0F0F0F0F0F0F0F0FULL) << 4);
    return __builtin_bswap64(x) >> (64 - 2 * k_);
  }

  /// Canonical form: min(code, reverse_complement(code)).
  [[nodiscard]] KmerCode canonical(KmerCode code) const {
    const KmerCode rc = reverse_complement(code);
    return code < rc ? code : rc;
  }

  /// Last (rightmost) base code of a packed k-mer.
  [[nodiscard]] static std::uint8_t last_base(KmerCode code) {
    return static_cast<std::uint8_t>(code & 3u);
  }

  /// One valid window of a sequence: its forward code, the code of its
  /// reverse complement, and its start offset.
  struct Window {
    KmerCode code;
    KmerCode rc;
    std::size_t position;
    [[nodiscard]] KmerCode canonical() const { return code < rc ? code : rc; }
  };

  /// Calls f(Window) for every valid k-mer of `s` in order, skipping
  /// windows that contain a non-ACGT character. Both strands roll one base
  /// at a time, so the walk allocates nothing and never re-reverses a code.
  template <typename F>
  void for_each(std::string_view s, F&& f) const {
    const int rc_shift = 2 * (k_ - 1);
    KmerCode code = 0;
    KmerCode rc = 0;
    int valid = 0;  // consecutive valid bases ending at position i
    for (std::size_t i = 0; i < s.size(); ++i) {
      const std::uint8_t b = base_to_code(s[i]);
      if (b == kInvalidBase) {
        valid = 0;  // the next k valid bases shift both codes clean
        continue;
      }
      code = ((code << 2) | b) & mask_;
      rc = (rc >> 2) | (KmerCode{3u - b} << rc_shift);
      if (++valid >= k_) f(Window{code, rc, i + 1 - static_cast<std::size_t>(k_)});
    }
  }

  /// Number of k-length windows of `s`, valid or not.
  [[nodiscard]] std::size_t window_count(std::string_view s) const {
    const auto k = static_cast<std::size_t>(k_);
    return s.size() < k ? 0 : s.size() - k + 1;
  }

  /// Every valid k-mer of `s` in order, as for_each() visits them.
  /// Positions are window start offsets.
  struct Occurrence {
    KmerCode code;
    std::size_t position;
  };
  [[nodiscard]] std::vector<Occurrence> extract(std::string_view s) const;

  /// The distinct canonical k-mers of `s`, ascending.
  [[nodiscard]] std::vector<KmerCode> distinct_canonical(std::string_view s) const;

 private:
  int k_;
  KmerCode mask_;
};

}  // namespace trinity::seq
