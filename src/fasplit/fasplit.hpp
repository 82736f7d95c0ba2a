#pragma once
// fasplit: the PyFasta substitute.
//
// Section III.A of the paper: "The Fasta file was partitioned using the
// PyFasta python module, which evenly splits the target sequences amongst
// the rank nodes for parallel alignment processing." PyFasta's split is a
// single-threaded pass; the paper's Figure 10 explicitly measures it as the
// dominant overhead of the MPI Bowtie step. partition_balanced below is
// deliberately serial for the same reason.

#include <cstddef>
#include <string>
#include <vector>

#include "seq/sequence.hpp"

namespace trinity::fasplit {

/// Assignment of sequences to parts: part_of[i] is the part index of
/// sequence i, and part_bases[p] the total bases in part p.
struct Partition {
  std::vector<int> part_of;
  std::vector<std::size_t> part_bases;
  int parts = 0;
};

/// Greedy balanced partition of `seqs` into `parts` groups by total bases
/// (longest-processing-time heuristic: sequences descending by length, each
/// assigned to the currently lightest part). Deterministic.
/// Throws std::invalid_argument when parts < 1.
Partition partition_balanced(const std::vector<seq::Sequence>& seqs, int parts);

/// Materializes part `p` of a partition as a sequence vector, preserving
/// input order within the part.
std::vector<seq::Sequence> extract_part(const std::vector<seq::Sequence>& seqs,
                                        const Partition& partition, int p);

/// End-to-end file split: reads `fasta_path`, partitions into `parts`, and
/// writes `<out_prefix>.<p>.fa` for each part. Returns the written paths.
/// This is the serial "PyFasta" cost measured in Figure 10.
std::vector<std::string> split_fasta_file(const std::string& fasta_path,
                                          const std::string& out_prefix, int parts);

}  // namespace trinity::fasplit
