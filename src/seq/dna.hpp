#pragma once
// DNA alphabet primitives: base <-> 2-bit code mapping, complementation,
// and sequence validation. The 2-bit encoding (A=0, C=1, G=2, T=3) is the
// foundation of the packed k-mer representation in seq/kmer.hpp.

#include <cstdint>
#include <string>
#include <string_view>

namespace trinity::seq {

/// Sentinel returned by base_to_code for characters outside {A,C,G,T,a,c,g,t}.
inline constexpr std::uint8_t kInvalidBase = 0xFF;

/// Maps a nucleotide character to its 2-bit code, case-insensitively.
/// Returns kInvalidBase for anything else (including N).
constexpr std::uint8_t base_to_code(char c) {
  switch (c) {
    case 'A': case 'a': return 0;
    case 'C': case 'c': return 1;
    case 'G': case 'g': return 2;
    case 'T': case 't': return 3;
    default: return kInvalidBase;
  }
}

/// Maps a 2-bit code back to its uppercase nucleotide character.
/// `code` must be < 4.
constexpr char code_to_base(std::uint8_t code) {
  constexpr char kBases[4] = {'A', 'C', 'G', 'T'};
  return kBases[code & 3u];
}

/// Complement of a nucleotide character; non-ACGT characters map to 'N'.
constexpr char complement(char c) {
  switch (c) {
    case 'A': case 'a': return 'T';
    case 'C': case 'c': return 'G';
    case 'G': case 'g': return 'C';
    case 'T': case 't': return 'A';
    default: return 'N';
  }
}

/// Reverse complement of a DNA string.
std::string reverse_complement(std::string_view s);

}  // namespace trinity::seq
