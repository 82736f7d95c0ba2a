#include "align/mpi_bowtie.hpp"

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <type_traits>

#include "chrysalis/distribution.hpp"
#include "fasplit/fasplit.hpp"
#include "util/timer.hpp"

namespace trinity::align {

namespace {

/// Wire format for one aligned read gathered at the merge rank.
struct WireRecord {
  std::uint64_t read_index;
  std::int32_t global_contig_id;
  std::int32_t mismatches;
  std::uint64_t pos;
  std::uint8_t reverse_strand;
  std::uint8_t pad[7];
};
static_assert(std::is_trivially_copyable_v<WireRecord>);

/// Aligns reads[begin, end) against `index` and returns the wire records
/// of the aligned ones in read order, target ids mapped through
/// `global_id` (identity when null): the only per-read state a rank keeps.
std::vector<WireRecord> align_to_wire(const ContigIndex& index,
                                      const std::vector<seq::Sequence>& reads, std::size_t begin,
                                      std::size_t end, const std::vector<std::int32_t>* global_id) {
  const SeedExtendAligner aligner(index);
  std::vector<std::vector<WireRecord>> parts(static_cast<std::size_t>(aligner.team_size()));
  aligner.place_all(reads, begin, end, [&](int thread, std::size_t i, const Placement& p) {
    if (!p.aligned()) return;
    WireRecord w{};
    w.read_index = i;
    w.global_contig_id =
        global_id == nullptr ? p.target_id : (*global_id)[static_cast<std::size_t>(p.target_id)];
    w.mismatches = p.mismatches;
    w.pos = p.pos;
    w.reverse_strand = p.reverse_strand ? 1 : 0;
    parts[static_cast<std::size_t>(thread)].push_back(w);
  });
  std::vector<WireRecord> wire = std::move(parts[0]);
  for (std::size_t t = 1; t < parts.size(); ++t) {
    wire.insert(wire.end(), parts[t].begin(), parts[t].end());
    std::vector<WireRecord>().swap(parts[t]);
  }
  std::sort(wire.begin(), wire.end(), [](const WireRecord& a, const WireRecord& b) {
    return a.read_index < b.read_index;
  });
  return wire;
}

/// Rank 0's merge: for each read, the best placement across every rank's
/// records (fewest mismatches, then lowest global contig id / position /
/// strand), which is what a single-node best-hit Bowtie run would have
/// reported. Under the read split each read has one record at most.
std::vector<SamRecord> merge_best_hits(const std::vector<std::vector<WireRecord>>& gathered,
                                       const std::vector<seq::Sequence>& contigs,
                                       const std::vector<seq::Sequence>& reads) {
  std::vector<SamRecord> merged(reads.size());
  for (std::size_t i = 0; i < reads.size(); ++i) {
    merged[i].read_name = reads[i].name;
    merged[i].read_length = reads[i].bases.size();
  }
  for (const auto& part : gathered) {
    for (const auto& w : part) {
      auto& best = merged[static_cast<std::size_t>(w.read_index)];
      const bool better =
          !best.aligned() || w.mismatches < best.mismatches ||
          (w.mismatches == best.mismatches &&
           std::tuple<std::int32_t, std::uint64_t, std::uint8_t>(w.global_contig_id, w.pos,
                                                                 w.reverse_strand) <
               std::tuple<std::int32_t, std::uint64_t, std::uint8_t>(
                   best.target_id, best.pos, best.reverse_strand ? 1 : 0));
      if (better) {
        best.target_id = w.global_contig_id;
        best.target_name = contigs[static_cast<std::size_t>(w.global_contig_id)].name;
        best.pos = w.pos;
        best.reverse_strand = w.reverse_strand != 0;
        best.mismatches = w.mismatches;
      }
    }
  }
  return merged;
}

}  // namespace

DistributedBowtieResult distributed_bowtie(simpi::Context& ctx,
                                           const std::vector<seq::Sequence>& contigs,
                                           const std::vector<seq::Sequence>& reads,
                                           const AlignerOptions& requested, BowtieSplit split) {
  // One OpenMP thread per rank unless set, as in the hybrid GraphFromFasta
  // and ReadsToTranscripts: the ranks already occupy the cores, a rank's
  // CPU clock then sees all of its alignment work, and no worker thread
  // holds a buffer of its own.
  AlignerOptions options = requested;
  if (options.num_threads <= 0) options.num_threads = 1;
  DistributedBowtieResult result;
  std::vector<WireRecord> wire;
  double align_cpu = 0.0;
  // This rank's phase times; split and merge run on rank 0 only, so the
  // other ranks report 0 for them.
  struct RankTiming {
    double split = 0.0;
    double align = 0.0;
    double merge = 0.0;
  } mine;

  if (split == BowtieSplit::kReads) {
    // No serial split phase: the read partition is index arithmetic, and
    // every rank aligns its block against the full (replicated) index.
    const auto block =
        chrysalis::BlockDistribution(reads.size(), ctx.size()).block_for(ctx.rank());

    util::ThreadCpuTimer align_timer;
    const ContigIndex index(contigs, options);
    wire = align_to_wire(index, reads, block.begin, block.end, nullptr);
    align_cpu = align_timer.seconds();
  } else {
    // Phase 1 — serial target split on rank 0 (the PyFasta step of Fig 10).
    std::vector<int> part_of;
    if (ctx.rank() == 0) {
      util::ThreadCpuTimer timer;
      part_of = fasplit::partition_balanced(contigs, ctx.size()).part_of;
      mine.split = timer.seconds();
    }
    ctx.bcast(part_of, 0);

    // Phase 2 — per-rank index build + alignment of the full read set
    // against this rank's contig slice.
    util::ThreadCpuTimer align_timer;
    std::vector<seq::Sequence> my_contigs;
    std::vector<std::int32_t> local_to_global;
    for (std::size_t c = 0; c < contigs.size(); ++c) {
      if (part_of[c] == ctx.rank()) {
        my_contigs.push_back(contigs[c]);
        local_to_global.push_back(static_cast<std::int32_t>(c));
      }
    }
    const ContigIndex index(std::move(my_contigs), options);
    wire = align_to_wire(index, reads, 0, reads.size(), &local_to_global);
    align_cpu = align_timer.seconds();
  }
  mine.align = align_cpu / static_cast<double>(std::max(options.model_threads_per_rank, 1));

  // Phase 3 — gather the aligned records at rank 0 and merge.
  const auto gathered = ctx.gatherv(wire, 0);
  wire = std::vector<WireRecord>();
  if (ctx.rank() == 0) {
    util::ThreadCpuTimer merge_timer;
    result.records = merge_best_hits(gathered, contigs, reads);
    mine.merge = merge_timer.seconds();
  }

  // The timing's one collective: every rank's record, reduced locally.
  const auto all = ctx.allgather(mine);
  auto& t = result.timing;
  t.align_seconds_min = all.front().align;
  for (const RankTiming& r : all) {
    t.split_seconds = std::max(t.split_seconds, r.split);
    t.align_seconds_max = std::max(t.align_seconds_max, r.align);
    t.align_seconds_min = std::min(t.align_seconds_min, r.align);
    t.merge_seconds = std::max(t.merge_seconds, r.merge);
  }
  return result;
}

}  // namespace trinity::align
