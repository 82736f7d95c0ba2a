#include "align/aligner.hpp"

#include <omp.h>

#include <algorithm>
#include <tuple>

#include "io/io_file.hpp"
#include "seq/dna.hpp"

namespace trinity::align {

ContigIndex::ContigIndex(std::vector<seq::Sequence> contigs, const AlignerOptions& options)
    : contigs_(std::move(contigs)), options_(options) {
  const seq::KmerCodec codec(options_.seed_length);
  seeds_ = kmer::KmerPostings<SeedHit>::build([&](auto&& emit) {
    for (std::size_t c = 0; c < contigs_.size(); ++c) {
      codec.for_each(contigs_[c].bases, [&](const seq::KmerCodec::Window& w) {
        emit(w.code,
             SeedHit{static_cast<std::int32_t>(c), static_cast<std::uint32_t>(w.position)});
      });
    }
  });
}

std::span<const ContigIndex::SeedHit> ContigIndex::lookup(seq::KmerCode code) const {
  const auto hits = seeds_.lookup(code);
  // Hyper-repetitive seeds are suppressed: they explode verification cost
  // without adding placements Bowtie would report uniquely anyway.
  if (hits.size() > options_.max_hits_per_seed) return {};
  return hits;
}

namespace {

/// Counts mismatches of `read` placed at `pos` on `target`, bailing out
/// once `budget` is exceeded. Returns budget+1 on an out-of-bounds
/// placement or early bail.
int mismatches_at(const std::string& target, const std::string& read, std::size_t pos,
                  int budget) {
  if (pos + read.size() > target.size()) return budget + 1;
  int mm = 0;
  for (std::size_t i = 0; i < read.size(); ++i) {
    if (target[pos + i] != read[i]) {
      if (++mm > budget) return mm;
    }
  }
  return mm;
}

}  // namespace

void SeedExtendAligner::align_strand(const std::string& bases, bool reverse,
                                     Placement& best) const {
  const auto& opts = index_.options();
  const auto s = static_cast<std::size_t>(opts.seed_length);
  if (bases.size() < s) return;
  const seq::KmerCodec codec(opts.seed_length);

  // Seed from three offsets (start / middle / end): with a budget of v
  // mismatches, at least one of the three windows of a valid placement is
  // exact whenever v <= 2, mirroring Bowtie's seed heuristics.
  const std::size_t offsets[3] = {0, (bases.size() - s) / 2, bases.size() - s};
  std::size_t tried_offsets[3];
  std::size_t n_offsets = 0;
  for (const std::size_t off : offsets) {
    bool seen = false;
    for (std::size_t i = 0; i < n_offsets; ++i) seen = seen || tried_offsets[i] == off;
    if (!seen) tried_offsets[n_offsets++] = off;
  }

  for (std::size_t oi = 0; oi < n_offsets; ++oi) {
    const std::size_t off = tried_offsets[oi];
    const auto code = codec.encode(std::string_view(bases).substr(off, s));
    if (!code) continue;
    for (const auto& hit : index_.lookup(*code)) {
      if (hit.position < off) continue;
      const std::size_t placement = hit.position - off;
      const auto& target = index_.contigs()[static_cast<std::size_t>(hit.contig_id)].bases;
      const int mm = mismatches_at(target, bases, placement, opts.max_mismatches);
      if (mm > opts.max_mismatches) continue;
      const bool better =
          !best.aligned() || mm < best.mismatches ||
          (mm == best.mismatches &&
           std::tie(hit.contig_id, placement, reverse) <
               std::tie(best.target_id, best.pos, best.reverse_strand));
      if (better) best = {hit.contig_id, mm, placement, reverse};
    }
  }
}

Placement SeedExtendAligner::place(const std::string& bases) const {
  Placement best;
  align_strand(bases, /*reverse=*/false, best);
  const std::string rc = seq::reverse_complement(bases);
  align_strand(rc, /*reverse=*/true, best);
  return best;
}

int SeedExtendAligner::team_size() const {
  const int requested = index_.options().num_threads;
  return requested > 0 ? requested : omp_get_max_threads();
}

void SeedExtendAligner::place_all(const std::vector<seq::Sequence>& reads, std::size_t begin,
                                  std::size_t end, const PlacementSink& sink) const {
  const auto first = static_cast<std::int64_t>(begin);
  const auto last = static_cast<std::int64_t>(end);
#pragma omp parallel for schedule(dynamic, 256) num_threads(team_size())
  for (std::int64_t i = first; i < last; ++i) {
    const auto& bases = reads[static_cast<std::size_t>(i)].bases;
    // kernel_repeats: see the options doc; extra iterations are discarded.
    for (int rep = 1; rep < index_.options().kernel_repeats; ++rep) (void)place(bases);
    sink(omp_get_thread_num(), static_cast<std::size_t>(i), place(bases));
  }
}

std::vector<Placement> SeedExtendAligner::place_reads(
    const std::vector<seq::Sequence>& reads) const {
  std::vector<Placement> out(reads.size());
  place_all(reads, 0, reads.size(),
            [&](int, std::size_t i, const Placement& p) { out[i] = p; });
  return out;
}

std::vector<SamRecord> SeedExtendAligner::align_all(
    const std::vector<seq::Sequence>& reads) const {
  return sam_records(reads, place_reads(reads), index_.contigs());
}

std::vector<SamRecord> sam_records(const std::vector<seq::Sequence>& reads,
                                   const std::vector<Placement>& placements,
                                   const std::vector<seq::Sequence>& contigs) {
  std::vector<SamRecord> out(reads.size());
  for (std::size_t i = 0; i < reads.size(); ++i) {
    const Placement& p = placements[i];
    SamRecord& r = out[i];
    r.read_name = reads[i].name;
    r.read_length = reads[i].bases.size();
    if (p.aligned()) {
      r.target_id = p.target_id;
      r.target_name = contigs[static_cast<std::size_t>(p.target_id)].name;
      r.pos = p.pos;
      r.reverse_strand = p.reverse_strand;
      r.mismatches = p.mismatches;
    }
  }
  return out;
}

namespace {
void write_sam_header(io::BufferedWriter& out, const std::vector<seq::Sequence>& contigs) {
  out << "@HD\tVN:1.6\tSO:unsorted\n";
  for (const auto& c : contigs) {
    out << "@SQ\tSN:" << c.name << "\tLN:" << c.bases.size() << '\n';
  }
}

void write_sam_record(io::BufferedWriter& out, const SamRecord& r) {
  if (r.aligned()) {
    const int flag = r.reverse_strand ? 16 : 0;
    out << r.read_name << '\t' << flag << '\t' << r.target_name << '\t' << (r.pos + 1)
        << "\t255\t" << r.read_length << "M\t*\t0\t0\t*\t*\tNM:i:" << r.mismatches << '\n';
  } else {
    out << r.read_name << "\t4\t*\t0\t0\t*\t*\t0\t0\t*\t*\n";
  }
}
}  // namespace

void write_sam(const std::string& path, const std::vector<SamRecord>& records,
               const std::vector<seq::Sequence>& contigs) {
  io::BufferedWriter out(path);
  write_sam_header(out, contigs);
  for (const auto& r : records) write_sam_record(out, r);
  out.close();
}

}  // namespace trinity::align
