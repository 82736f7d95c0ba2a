#pragma once
// GraphFromFasta: the first compute-intensive Chrysalis sub-step and the
// paper's main parallelization target (Sections III.B, V.A; Figures 7, 8).
//
// Loop 1 walks every Inchworm contig, finds k-mers shared with other
// contigs, and harvests "welding" subsequences of length 2k (the seed k-mer
// plus k/2 flanks on each side) that have read support. Loop 2 finds pairs
// of contigs sharing any harvested weld. The pairs drive the union-find
// clustering into components (Inchworm bundles).
//
// Two drivers share the per-contig kernels:
//  * run_shared  — the original OpenMP-only code path (dynamic schedule);
//  * run_hybrid  — the paper's hybrid: chunked round-robin over simpi
//    ranks, OpenMP within a rank. How weld data then moves between ranks
//    is the ShardingStrategy: the paper pools weld strings with Allgatherv
//    after loop 1 (packed into a single byte sequence) and pair indices as
//    a packed integer array after loop 2; the owner-computes strategy
//    instead routes each weld to a hash-owner with alltoallv and merges
//    components through the distributed union-find (dsu.hpp).
//
// Both loops of both drivers run through chunk_loop (parallel_loop.hpp):
// the distribution only chooses which chunks a rank pulls, and the loop's
// one virtual-time rule divides the team's measured CPU by
// `model_threads_per_rank` (16 in the paper).

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "chrysalis/components.hpp"
#include "chrysalis/distribution.hpp"
#include "kmer/counter.hpp"
#include "kmer/flat_index.hpp"
#include "kmer/postings.hpp"
#include "simpi/context.hpp"
#include "seq/sequence.hpp"

namespace trinity::chrysalis {

/// Distribution strategy for the hybrid loops (ablation knob).
enum class Distribution {
  kChunkedRoundRobin,  ///< the paper's final scheme
  kBlock,              ///< pre-allocated contiguous blocks (the discarded attempt)
  /// Self-scheduling via a shared RMA work counter — the paper's stated
  /// future work ("in the future, we might experiment with a dynamic
  /// partitioning strategy to reduce this load imbalance"). Each rank
  /// claims the next chunk with an atomic fetch-and-op; chunk claims cost
  /// one modeled RMA round trip each, charged as communication and not as
  /// loop CPU. A team larger than one claims chunk i+1 while it runs
  /// chunk i.
  kDynamic,
};

/// How the hybrid driver moves weld data between ranks after loop 1.
///
/// kPooled is the paper's scheme: every rank's welds are replicated onto
/// every rank with Allgatherv (O(total welds) received per rank), and loop
/// 2's (weld, contig) matches are pooled the same way.
/// kOwner is the owner-computes redesign: welds are hash-partitioned by
/// their smallest canonical (k-1)-mer code (splitmix64(code) % nranks) and
/// routed point-to-point to their owner with Context::alltoallv
/// (O(total/nranks) per rank); each owner dedups its shard, matches ALL
/// contigs against only its own welds, derives contig pairs locally, and
/// the component labels are agreed through the distributed union-find in
/// dsu.hpp — no pooled collective carries weld or match payloads. Both
/// produce byte-identical components.
enum class ShardingStrategy {
  kPooled,  ///< blocking Allgatherv replication (paper, Section III.B)
  kOwner,   ///< owner-computes: alltoallv routing + distributed DSU
};

/// "pooled" or "owner" — the --gff-sharding spellings.
[[nodiscard]] const char* to_string(ShardingStrategy strategy);

/// Parses a --gff-sharding spelling ("pooled" or "owner") into *out.
/// Returns false on any other text.
[[nodiscard]] bool sharding_from_string(const std::string& text, ShardingStrategy* out);

/// GraphFromFasta parameters.
struct GraphFromFastaOptions {
  int k = 25;                        ///< k-mer size; weld length is 2k
  std::uint32_t min_weld_support = 2;  ///< read count every weld k-mer needs
  int omp_threads = 0;               ///< real OpenMP threads (0 = auto)
  int model_threads_per_rank = 16;   ///< simulated threads per node
  Distribution distribution = Distribution::kChunkedRoundRobin;
  /// Cost-model calibration for benchmarks: repeat each per-contig kernel
  /// this many times. The production GraphFromFasta kernel (full pairwise
  /// contig comparison) is far heavier per contig than this reproduction's
  /// hash-based kernel; repeating restores a realistic per-item cost above
  /// the CPU clock's tick without changing outputs or the *relative* load
  /// imbalance across ranks. Leave at 1 for normal use.
  int kernel_repeats = 1;
  /// How loop-1 welds and loop-2 pairs move between ranks (hybrid runs
  /// only; run_shared ignores it). See ShardingStrategy.
  ShardingStrategy sharding = ShardingStrategy::kOwner;
};

/// Per-rank loop times (virtual seconds). Size 1 for shared-memory runs.
struct PerRankTimes {
  std::vector<double> seconds;
  [[nodiscard]] double max() const;
  [[nodiscard]] double min() const;
};

/// Timing of one GraphFromFasta run, in the units Figures 7/8 plot.
struct GffTiming {
  PerRankTimes loop1;
  PerRankTimes loop2;
  double setup_seconds = 0.0;     ///< non-parallel: shared-overlap map build
  double finalize_seconds = 0.0;  ///< non-parallel: dedup, pairing, clustering
  double comm_seconds = 0.0;      ///< max modeled communication over ranks
  /// Max over ranks of the union-find's boundary-exchange rounds
  /// (ShardingStrategy::kOwner only; zero otherwise). The bytes every
  /// collective moved are counted once, in the ranks' simpi::CommStats.
  int dsu_rounds = 0;

  /// Max over ranks of the wall blocked in the weld exchange: the growth of
  /// the exchange collective's CommStats wait_seconds row (allgatherv under
  /// kPooled, alltoallv under kOwner), so the strategies compare directly.
  /// Zero for shared-memory runs; docs/OBSERVABILITY.md documents it.
  double pool_wait_seconds = 0.0;
  /// Total modeled time: serial parts + slowest rank per loop + comm.
  [[nodiscard]] double total_seconds() const {
    return setup_seconds + loop1.max() + loop2.max() + finalize_seconds + comm_seconds;
  }
};

/// Output of GraphFromFasta.
///
/// Under ShardingStrategy::kOwner, `welds` and `pairs` are empty: the weld
/// shards and their pairs live only on their owner ranks by design, and
/// the pipeline consumes only `components` and `timing`. kPooled (and
/// run_shared) fill both.
struct GffResult {
  ComponentSet components;
  std::vector<std::string> welds;   ///< pooled, deduplicated weld sequences
  std::vector<ContigPair> pairs;    ///< welding pairs fed to clustering
  GffTiming timing;
};

/// Original OpenMP-only GraphFromFasta. `read_counter` supplies the read
/// support evidence (canonical k-mer counts over the input reads, same k).
/// `extra_pairs` lets the pipeline merge in Bowtie-derived scaffold pairs
/// before clustering, as Chrysalis does.
GffResult run_shared(const std::vector<seq::Sequence>& contigs,
                     const kmer::KmerCounter& read_counter,
                     const GraphFromFastaOptions& options,
                     const std::vector<ContigPair>& extra_pairs = {});

/// Hybrid simpi+OpenMP GraphFromFasta. Collective: every rank of the world
/// must call it with identical inputs. All ranks return the same GffResult
/// (the paper pools welds and pairs onto every rank). The timing costs one
/// collective: each rank's record is allgathered once, at the end.
GffResult run_hybrid(simpi::Context& ctx, const std::vector<seq::Sequence>& contigs,
                     const kmer::KmerCounter& read_counter,
                     const GraphFromFastaOptions& options,
                     const std::vector<ContigPair>& extra_pairs = {});

namespace detail {

/// Loop-1 kernel for one contig: appends this contig's supported welding
/// sequences (canonical form) to `out`.
///
/// Inchworm consumes every k-mer exactly once, so two contigs never share
/// a full k-mer — what they share at a branch point is the (k-1)-overlap
/// (contig B's first k-1 bases equal an interior (k-1)-mer of contig A).
/// A weld seed is therefore a (k-1)-mer present in >= 2 contigs (a key of
/// `shared_overlaps`); the harvested welding subsequence is the seed
/// plus k/2 flanks on each side (clamped at the contig ends), ~2k long as
/// in the paper, and it must have read support: every k-mer across the
/// window occurs at least `min_weld_support` times in the reads.
void harvest_welds(const seq::Sequence& contig,
                   const kmer::FlatKmerIndex<std::uint32_t>& shared_overlaps,
                   const kmer::KmerCounter& read_counter, const GraphFromFastaOptions& options,
                   std::vector<std::string>& out);

/// Index over the pooled welds: canonical (k-1)-mer code -> ids of the
/// welds whose window contains it, ascending. Built identically on every
/// rank before loop 2.
kmer::KmerPostings<std::int32_t> index_weld_cores(const std::vector<std::string>& welds, int k);

/// Loop-2 kernel for one contig: appends (weld_id, contig_id) matches for
/// every weld sharing a (k-1)-mer with the contig (either strand), each
/// weld reported once per contig.
void find_weld_matches(const seq::Sequence& contig, std::int32_t contig_id,
                       const kmer::KmerPostings<std::int32_t>& weld_cores,
                       const GraphFromFastaOptions& options,
                       std::vector<std::pair<std::int32_t, std::int32_t>>& out);

/// The canonical (k-1)-mers that occur in at least two contigs, each mapped
/// to the number of contigs carrying it (the serial setup region of
/// Figure 8). Only these seed welds, so no other (k-1)-mer is kept.
kmer::FlatKmerIndex<std::uint32_t> shared_overlap_kmers(const std::vector<seq::Sequence>& contigs,
                                                        int k);

/// Sorted, deduplicated copy of `welds`. Exposed so tests can assert the
/// pooled weld set is independent of the order ranks' parts arrived in.
std::vector<std::string> dedup_welds(std::vector<std::string> welds);

/// Owner rank of a canonical weld among nranks: the splitmix64 mix of its
/// smallest canonical (k-1)-mer code, mod nranks. Identical welds share
/// their smallest core, so duplicates from different ranks always meet at
/// one owner — which is what makes the owner-side dedup global.
[[nodiscard]] int weld_owner(const std::string& weld, int k, int nranks);

/// Deduplicates welds preserving first-seen order, then derives contig
/// pairs from (weld, contig) matches: contigs sharing a weld are paired
/// against the smallest contig id that carries it.
std::vector<ContigPair> pairs_from_matches(
    std::size_t num_welds, std::vector<std::pair<std::int32_t, std::int32_t>> matches);

}  // namespace detail

}  // namespace trinity::chrysalis
