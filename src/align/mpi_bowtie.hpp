#pragma once
// Distributed Bowtie driver (paper Section III.A, Figure 10).
//
// The paper ran Bowtie on multiple nodes "by splitting the target sequences
// of Bowtie, i.e. the Fasta file of Inchworm contigs" with PyFasta; every
// node aligns the full read set against its slice of the contigs, writes a
// SAM file, and the per-node files are merged at the end. This driver does
// the same over simpi ranks, and reports the phase times Figure 10 plots:
// the (serial) split, the per-rank alignment, and the merge.

#include <string>
#include <vector>

#include "align/aligner.hpp"
#include "simpi/context.hpp"
#include "seq/sequence.hpp"

namespace trinity::align {

/// How the work is split across ranks.
enum class BowtieSplit {
  /// The paper's scheme: PyFasta-split the target contigs; every rank
  /// aligns the full read set against its slice; merge per-read best hits.
  kTargets,
  /// The alternative the paper contrasts itself with (Bozdag, Hatem &
  /// Catalyurek, IPDPSW 2010): split the READS across ranks and replicate
  /// the full index on every rank. No serial split step and no per-read
  /// merge, at the cost of a redundant index build per rank.
  kReads,
};

/// Timing breakdown of one distributed run, in virtual seconds.
struct DistributedBowtieTiming {
  double split_seconds = 0.0;        ///< serial fasplit cost (rank 0)
  double align_seconds_max = 0.0;    ///< slowest rank's alignment time
  double align_seconds_min = 0.0;    ///< fastest rank's alignment time
  double merge_seconds = 0.0;        ///< SAM merge cost (rank 0)
  [[nodiscard]] double total_seconds() const {
    return split_seconds + align_seconds_max + merge_seconds;
  }
};

/// Result of a distributed alignment.
struct DistributedBowtieResult {
  std::vector<SamRecord> records;  ///< merged records, only valid on rank 0
  DistributedBowtieTiming timing;  ///< identical on every rank (one allgather)
};

/// Runs the split-targets/align/merge scheme inside an open simpi world.
/// Must be called collectively by every rank. `contigs` and `reads` must be
/// identical on every rank (the paper's nodes all see the shared
/// filesystem). Alignment time is measured per rank on its CPU clock.
/// Each rank aligns on options.num_threads OpenMP threads, one when 0.
DistributedBowtieResult distributed_bowtie(simpi::Context& ctx,
                                           const std::vector<seq::Sequence>& contigs,
                                           const std::vector<seq::Sequence>& reads,
                                           const AlignerOptions& options,
                                           BowtieSplit split = BowtieSplit::kTargets);

}  // namespace trinity::align
