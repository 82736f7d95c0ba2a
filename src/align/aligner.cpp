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
  // CSR layout in three passes: count each seed's hits, give each seed its
  // slice of hits_, then fill the slices in (contig, position) order.
  for (const auto& contig : contigs_) {
    codec.for_each(contig.bases, [&](const seq::KmerCodec::Window& w) { ++seeds_[w.code].end; });
  }
  std::uint32_t offset = 0;
  for (auto&& [code, range] : seeds_) {
    const std::uint32_t n = range.end;
    range = {offset, offset};
    offset += n;
  }
  hits_.resize(offset);
  for (std::size_t c = 0; c < contigs_.size(); ++c) {
    codec.for_each(contigs_[c].bases, [&](const seq::KmerCodec::Window& w) {
      hits_[seeds_.find(w.code)->second.end++] = {static_cast<std::int32_t>(c),
                                                  static_cast<std::uint32_t>(w.position)};
    });
  }
}

std::span<const ContigIndex::SeedHit> ContigIndex::lookup(seq::KmerCode code) const {
  const SeedRange* range = seeds_.lookup(code);
  // Hyper-repetitive seeds are suppressed: they explode verification cost
  // without adding placements Bowtie would report uniquely anyway.
  if (range == nullptr || range->end - range->begin > options_.max_hits_per_seed) return {};
  return {hits_.data() + range->begin, range->end - range->begin};
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
                                     SamRecord& best) const {
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
      if (better) {
        best.target_id = hit.contig_id;
        best.target_name = index_.contigs()[static_cast<std::size_t>(hit.contig_id)].name;
        best.pos = placement;
        best.reverse_strand = reverse;
        best.mismatches = mm;
      }
    }
  }
}

SamRecord SeedExtendAligner::align_read(const seq::Sequence& read) const {
  SamRecord best;
  best.read_name = read.name;
  best.read_length = read.bases.size();
  align_strand(read.bases, /*reverse=*/false, best);
  const std::string rc = seq::reverse_complement(read.bases);
  align_strand(rc, /*reverse=*/true, best);
  return best;
}

std::vector<SamRecord> SeedExtendAligner::align_all(
    const std::vector<seq::Sequence>& reads) const {
  std::vector<SamRecord> out(reads.size());
  const int requested = index_.options().num_threads;
  const auto n = static_cast<std::int64_t>(reads.size());
#pragma omp parallel for schedule(dynamic, 256) \
    num_threads(requested > 0 ? requested : omp_get_max_threads())
  for (std::int64_t i = 0; i < n; ++i) {
    // kernel_repeats: see the options doc; extra iterations are discarded.
    for (int rep = 1; rep < index_.options().kernel_repeats; ++rep) {
      (void)align_read(reads[static_cast<std::size_t>(i)]);
    }
    out[static_cast<std::size_t>(i)] = align_read(reads[static_cast<std::size_t>(i)]);
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
