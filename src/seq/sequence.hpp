#pragma once
// Sequence records: the unit of FASTA/FASTQ I/O and of every pipeline stage.

#include <cstddef>
#include <string>
#include <vector>

namespace trinity::seq {

/// A named nucleotide sequence (a read, a contig, or a transcript).
struct Sequence {
  std::string name;  ///< record id (FASTA header up to first whitespace)
  std::string bases;
  /// Per-base Phred+33 quality string (FASTQ); empty when unknown (FASTA).
  /// When present, always the same length as `bases`.
  std::string quality;

  [[nodiscard]] std::size_t length() const { return bases.size(); }
};

/// Total bases across a set of sequences.
std::size_t total_bases(const std::vector<Sequence>& seqs);

}  // namespace trinity::seq
