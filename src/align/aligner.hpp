#pragma once
// Seed-and-extend short-read aligner: the Bowtie substitute.
//
// Chrysalis's first step aligns every input read against the Inchworm
// contigs with Bowtie. This module plays that role: a k-mer seed index over
// the target contigs plus ungapped extension with a mismatch budget —
// Bowtie's "-v <n>" alignment mode in spirit. The distributed driver in
// align/mpi_bowtie.hpp reproduces the paper's parallelization *around* the
// aligner (split targets with fasplit, align on every rank, merge SAM).

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "kmer/postings.hpp"
#include "seq/kmer.hpp"
#include "seq/sequence.hpp"

namespace trinity::align {

/// Aligner parameters.
struct AlignerOptions {
  int seed_length = 16;             ///< k of the seed index
  int max_mismatches = 2;           ///< Bowtie-style -v budget
  std::size_t max_hits_per_seed = 64;  ///< skip hyper-repetitive seeds
  int num_threads = 0;              ///< 0 = OpenMP default (1 per rank in distributed_bowtie)
  /// Cost-model calibration for benchmarks: repeat the per-read kernel to
  /// emulate Bowtie's heavier per-read cost (quality-aware backtracking vs
  /// this reproduction's exact-seed check). Outputs unchanged; leave at 1
  /// for normal use.
  int kernel_repeats = 1;
  /// Simulated threads per node for the distributed driver's virtual-time
  /// accounting (the paper ran Bowtie with 16 threads per node). Per-rank
  /// alignment CPU is divided by this. Must match the convention of the
  /// surrounding experiment (the figure benches use 1 = node-count
  /// scaling).
  int model_threads_per_rank = 16;
};

/// One alignment in SAM spirit. pos is 0-based here; the SAM writer emits
/// 1-based coordinates.
struct SamRecord {
  std::string read_name;
  std::int32_t target_id = -1;   ///< index into the aligner's contig set
  std::string target_name;
  std::size_t pos = 0;
  bool reverse_strand = false;
  int mismatches = 0;
  std::size_t read_length = 0;

  [[nodiscard]] bool aligned() const { return target_id >= 0; }
};

/// A read's best placement: the fixed-size part of a SamRecord, without
/// the read and target names.
struct Placement {
  std::int32_t target_id = -1;  ///< index into the aligner's contig set
  int mismatches = 0;
  std::size_t pos = 0;
  bool reverse_strand = false;

  [[nodiscard]] bool aligned() const { return target_id >= 0; }
};

/// K-mer seed index over a set of target contigs.
class ContigIndex {
 public:
  /// Builds the index; copies of the contigs are kept for verification.
  ContigIndex(std::vector<seq::Sequence> contigs, const AlignerOptions& options);

  struct SeedHit {
    std::int32_t contig_id;
    std::uint32_t position;
  };

  /// All occurrences of `code` among the contigs in (contig, position)
  /// order; empty when absent or suppressed as hyper-repetitive.
  [[nodiscard]] std::span<const SeedHit> lookup(seq::KmerCode code) const;

  [[nodiscard]] const std::vector<seq::Sequence>& contigs() const { return contigs_; }
  [[nodiscard]] const AlignerOptions& options() const { return options_; }

 private:
  std::vector<seq::Sequence> contigs_;
  AlignerOptions options_;
  kmer::KmerPostings<SeedHit> seeds_;
};

/// The aligner proper.
class SeedExtendAligner {
 public:
  explicit SeedExtendAligner(const ContigIndex& index) : index_(index) {}

  /// Aligns every read (OpenMP-parallel); output order matches input order.
  /// Each record is the read's best alignment (forward or reverse strand),
  /// or unaligned when nothing fits within the mismatch budget.
  /// Deterministic: ties break toward fewer mismatches, then lower contig
  /// id, then lower position, then forward strand.
  [[nodiscard]] std::vector<SamRecord> align_all(const std::vector<seq::Sequence>& reads) const;

  /// The placements behind align_all, one per read in input order: what a
  /// caller keeps while the index lives, to build the records (sam_records)
  /// after freeing it.
  [[nodiscard]] std::vector<Placement> place_reads(const std::vector<seq::Sequence>& reads) const;

  /// Receives one read's placement: the OpenMP thread that aligned it
  /// (0 <= thread < team_size()), the read's index, and the placement.
  using PlacementSink = std::function<void(int thread, std::size_t read, const Placement&)>;

  /// Places reads[begin, end) on team_size() OpenMP threads, calling
  /// `sink` once per read — the loop behind align_all, for callers that
  /// keep less than a SamRecord per read.
  void place_all(const std::vector<seq::Sequence>& reads, std::size_t begin, std::size_t end,
                 const PlacementSink& sink) const;

  /// Threads place_all() runs on: AlignerOptions::num_threads, or the
  /// OpenMP default when that is 0.
  [[nodiscard]] int team_size() const;

 private:
  /// The best placement of `bases`, as align_all() reports it.
  [[nodiscard]] Placement place(const std::string& bases) const;

  /// Tries all seed positions of `bases` on one strand, updating `best`.
  void align_strand(const std::string& bases, bool reverse, Placement& best) const;

  const ContigIndex& index_;
};

/// The SAM records of `reads` from their placements (place_reads) against
/// `contigs`, the index's contig set: align_all's result, built without
/// the index.
[[nodiscard]] std::vector<SamRecord> sam_records(const std::vector<seq::Sequence>& reads,
                                                 const std::vector<Placement>& placements,
                                                 const std::vector<seq::Sequence>& contigs);

/// Writes records as a SAM file with @HD/@SQ headers over the index's
/// contigs. Unaligned records get the 0x4 flag. Writes through
/// io::BufferedWriter, so failures are typed io::IoErrors.
void write_sam(const std::string& path, const std::vector<SamRecord>& records,
               const std::vector<seq::Sequence>& contigs);

}  // namespace trinity::align
