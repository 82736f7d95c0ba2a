#pragma once
// SAM parsing: the inverse of write_sam, so downstream steps (scaffolding,
// the staged CLI) can consume an existing alignment file instead of
// realigning — exactly how Chrysalis consumes Bowtie's output in Trinity.

#include <string>
#include <vector>

#include "align/aligner.hpp"
#include "seq/sequence.hpp"

namespace trinity::align {

/// Result of parsing a SAM file.
struct SamFile {
  std::vector<seq::Sequence> references;  ///< from @SQ headers (bases empty)
  std::vector<SamRecord> records;
};

/// Parses a SAM file produced by write_sam (and any SAM restricted to the
/// same columns). Unmapped records (flag 0x4) come back with
/// target_id == -1. target_id indexes `references`. Throws io::ParseError
/// (path, line, byte offset) on a short row, a non-numeric LN, FLAG, POS,
/// CIGAR length or NM, a mapped record at POS 0, an unknown reference
/// name, or coordinates outside the reference length.
SamFile read_sam(const std::string& path);

}  // namespace trinity::align
