#pragma once
// ReadsToTranscripts: the second Chrysalis sub-step the paper parallelizes
// (Sections III.C, V.B; Figure 9).
//
// Assigns every input read to the Inchworm bundle (component) with which it
// shares the largest number of k-mers, and records the region of the read
// contributing those k-mers. The reads file is streamed in chunks of
// `max_mem_reads` — never loaded whole (the opposite of GraphFromFasta, as
// the paper emphasizes).
//
// Hybrid scheme ("redundant streaming"): every rank reads the entire file,
// keeps only chunks whose index is congruent to its rank modulo the world
// size, and processes those with its OpenMP threads. "This approach does
// make every process read redundant data ... but excludes the necessity of
// MPI communication." Each rank writes its own output file; rank 0
// concatenates them at the end (measured: the paper reports this stays
// under 15 seconds through 32 nodes). The assignments are gathered to
// rank 0 only.
//
// The first, discarded design — a master rank reading and distributing
// chunks to slaves — is kept as an ablation (Strategy::kMasterSlave).
//
// Every strategy streams through chunk_loop (parallel_loop.hpp), the loop
// GraphFromFasta runs too: the rank's own thread parses (or, on a
// master/slave slave, receives) chunk i+1 while the team classifies chunk
// i; a team of one classifies chunk i first, so it holds one chunk. The
// read CPU is charged to the main loop undivided, as redundant streaming
// incurs it. One engine classifies reads: the k-mer -> bundle vote map,
// built for every run as the paper's serial setup region.

#include <cstdint>
#include <string>
#include <vector>

#include "chrysalis/components.hpp"
#include "chrysalis/graph_from_fasta.hpp"
#include "io/error.hpp"
#include "kmer/flat_index.hpp"
#include "simpi/context.hpp"
#include "seq/fasta.hpp"
#include "seq/sequence.hpp"

namespace trinity::chrysalis {

// perfbench compile shim; the benchmark PR of ROADMAP item 7 deletes it.
// Index mode is gone: run_shared and run_hybrid reject kIndex with
// std::invalid_argument.
enum class R2TMode { kVote, kIndex };
// perfbench compile shim; the benchmark PR of ROADMAP item 7 deletes it.
enum class IndexLifecycle { kAuto };

/// Hybrid chunk-distribution strategy (ablation knob).
enum class R2TStrategy {
  kRedundantStreaming,  ///< the paper's final scheme: every rank reads all
  kMasterSlave,         ///< the discarded attempt: rank 0 reads, sends chunks
};

// perfbench compile shim that nothing in src/ reads; the benchmark PR of
// ROADMAP item 7 deletes it. The hybrid output is always the paper's
// per-rank files, concatenated by rank 0.
enum class R2TOutputMode { kPerRankConcat };

/// ReadsToTranscripts parameters.
struct ReadsToTranscriptsOptions {
  int k = 25;
  std::size_t max_mem_reads = 10000;  ///< reads held in memory per chunk
  int omp_threads = 0;                ///< real OpenMP threads (0 = auto)
  int model_threads_per_rank = 16;    ///< simulated threads per node
  R2TStrategy strategy = R2TStrategy::kRedundantStreaming;
  /// Cost-model calibration for benchmarks; see
  /// GraphFromFastaOptions::kernel_repeats. Leave at 1 for normal use.
  int kernel_repeats = 1;
  /// How the streaming reader treats malformed records (strict throws
  /// io::ParseError, tolerant/repair quarantine and continue — see
  /// seq/fasta.hpp). All ranks must use the same policy: quarantining
  /// changes read indices, so a mixed world would disagree on assignments.
  seq::ParsePolicy parse_policy = seq::ParsePolicy::kStrict;

  // perfbench compile shim that nothing in src/ reads; ROADMAP item 7 deletes it.
  R2TOutputMode output_mode = R2TOutputMode::kPerRankConcat;
  R2TMode mode = R2TMode::kVote;  // shim; the benchmark PR of ROADMAP item 7 deletes it
  IndexLifecycle index_lifecycle = IndexLifecycle::kAuto;  // shim; ROADMAP item 7 deletes it
  std::string index_path;  // shim, never read; the benchmark PR of ROADMAP item 7 deletes it
};

/// One read's bundle assignment.
struct ReadAssignment {
  std::int64_t read_index = -1;    ///< position in file order
  std::int32_t component = -1;     ///< -1 when no k-mer matched any bundle
  std::uint32_t shared_kmers = 0;  ///< k-mers shared with the component
  std::uint32_t region_begin = 0;  ///< first base contributing a k-mer
  std::uint32_t region_end = 0;    ///< one past the last contributing base
};
static_assert(std::is_trivially_copyable_v<ReadAssignment>);

/// Timing in the units Figure 9 plots.
struct R2TTiming {
  double setup_seconds = 0.0;   ///< k-mer -> bundle map (OpenMP, not hybrid)
  PerRankTimes main_loop;       ///< the MPI-enabled streaming+assignment loop
  double concat_seconds = 0.0;  ///< rank 0's cat of the per-rank files
  double comm_seconds = 0.0;    ///< max modeled communication over ranks

  // Work distribution (size 1 vectors for shared-memory runs). Chunk
  // counts expose the modulo distribution's remainder imbalance directly;
  // rank r gathers rank_reads[r] ReadAssignments to rank 0, and the ranks'
  // CommStats gatherv rows count those bytes.
  std::vector<std::uint64_t> rank_chunks;  ///< chunks each rank processed
  std::vector<std::uint64_t> rank_reads;   ///< reads each rank assigned

  [[nodiscard]] double total_seconds() const {
    return setup_seconds + main_loop.max() + concat_seconds + comm_seconds;
  }
};

/// Result of a run. Assignments are sorted by read_index; after a hybrid
/// run rank 0 holds them all and every other rank returns none. Timing is
/// the same on every rank.
struct R2TResult {
  std::vector<ReadAssignment> assignments;
  R2TTiming timing;
  std::string merged_output_path;  ///< empty when no output dir was given
  /// Quarantine/repair counts from this stage's streaming reader (the rank
  /// that read the file; under redundant streaming every rank sees the
  /// same file, so the counts are identical on all readers).
  io::ParseDiagnostics parse;
};

/// Builds the canonical k-mer -> component map from each component's
/// contigs (the "assignment of k-mers to Inchworm bundles" setup region).
/// A k-mer occurring in several components maps to the smallest component
/// id, deterministically. The table is sized once from the contigs' k-mer
/// window count, an upper bound on its keys, and never rehashes.
kmer::FlatKmerIndex<std::int32_t> build_bundle_kmer_map(
    const std::vector<seq::Sequence>& contigs, const ComponentSet& components, int k);

/// Original OpenMP-only ReadsToTranscripts, streaming `reads_path`.
/// `output_dir` may be empty to skip file output.
R2TResult run_shared(const std::vector<seq::Sequence>& contigs, const ComponentSet& components,
                     const std::string& reads_path, const ReadsToTranscriptsOptions& options,
                     const std::string& output_dir = "");

/// Hybrid simpi+OpenMP ReadsToTranscripts. Collective over the world;
/// every rank must see the same file and options. The timing costs one
/// collective: each rank's record is allgathered once, at the end.
R2TResult run_hybrid(simpi::Context& ctx, const std::vector<seq::Sequence>& contigs,
                     const ComponentSet& components, const std::string& reads_path,
                     const ReadsToTranscriptsOptions& options,
                     const std::string& output_dir = "");

namespace detail {

/// Assignment kernel for one read: the component sharing the most k-mers
/// with it (smallest id on ties).
ReadAssignment assign_read(const seq::Sequence& read, std::int64_t read_index,
                           const kmer::FlatKmerIndex<std::int32_t>& bundle_of, int k);

/// Writes assignments as TSV (read_index, component, shared, begin, end)
/// through io::BufferedWriter (failures are typed io::IoErrors).
void write_assignments(const std::string& path, const std::vector<ReadAssignment>& assignments);

}  // namespace detail

}  // namespace trinity::chrysalis
