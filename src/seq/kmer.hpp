#pragma once
// Packed k-mer representation: up to 32 bases in one uint64_t, 2 bits per
// base, most-significant-pair first so that integer comparison equals
// lexicographic comparison of the base string. A KmerCodec carries k and
// performs encode/decode, rolling extension, reverse complement and
// canonicalization (min of a k-mer and its reverse complement) — the
// standard strand-neutral key used by k-mer counters.

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

  /// Reverse complement of a packed k-mer.
  [[nodiscard]] KmerCode reverse_complement(KmerCode code) const;

  /// Canonical form: min(code, reverse_complement(code)).
  [[nodiscard]] KmerCode canonical(KmerCode code) const {
    const KmerCode rc = reverse_complement(code);
    return code < rc ? code : rc;
  }

  /// Last (rightmost) base code of a packed k-mer.
  [[nodiscard]] static std::uint8_t last_base(KmerCode code) {
    return static_cast<std::uint8_t>(code & 3u);
  }

  /// The (k-1)-length suffix of the k-mer, as a (k-1)-mer code. This is the
  /// overlap key used by Inchworm's greedy extension.
  [[nodiscard]] KmerCode suffix(KmerCode code) const { return code & (mask_ >> 2); }

  /// The (k-1)-length prefix of the k-mer, as a (k-1)-mer code.
  [[nodiscard]] KmerCode prefix(KmerCode code) const { return code >> 2; }

  /// Enumerates every valid k-mer of `s` in order, skipping windows that
  /// contain a non-ACGT character. Positions are window start offsets.
  struct Occurrence {
    KmerCode code;
    std::size_t position;
  };
  [[nodiscard]] std::vector<Occurrence> extract(std::string_view s) const;

  /// As extract(), but each code is canonicalized.
  [[nodiscard]] std::vector<Occurrence> extract_canonical(std::string_view s) const;

  /// The distinct canonical k-mers of `s`, ascending.
  [[nodiscard]] std::vector<KmerCode> distinct_canonical(std::string_view s) const;

 private:
  int k_;
  KmerCode mask_;
};

}  // namespace trinity::seq
