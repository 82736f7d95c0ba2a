#include "chrysalis/reads_to_transcripts.hpp"

#include <omp.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "chrysalis/parallel_loop.hpp"
#include "io/io_file.hpp"
#include "seq/fasta.hpp"
#include "seq/kmer.hpp"
#include "simpi/pack.hpp"
#include "util/timer.hpp"

namespace trinity::chrysalis {

kmer::FlatKmerIndex<std::int32_t> build_bundle_kmer_map(
    const std::vector<seq::Sequence>& contigs, const ComponentSet& components, int k) {
  const seq::KmerCodec codec(k);
  // Reserve-from-count: the contigs' k-mer windows bound the distinct
  // k-mers, so the build loop never rehashes.
  std::size_t windows = 0;
  for (const auto& comp : components.components) {
    for (const auto contig_id : comp.contig_ids) {
      windows += codec.window_count(contigs.at(static_cast<std::size_t>(contig_id)).bases);
    }
  }
  kmer::FlatKmerIndex<std::int32_t> bundle_of(windows);
  for (const auto& comp : components.components) {
    for (const auto contig_id : comp.contig_ids) {
      const auto& contig = contigs.at(static_cast<std::size_t>(contig_id));
      codec.for_each(contig.bases, [&](const seq::KmerCodec::Window& w) {
        const auto [it, inserted] = bundle_of.emplace(w.canonical(), comp.id);
        if (!inserted && comp.id < it->second) it->second = comp.id;
      });
    }
  }
  return bundle_of;
}

namespace detail {

ReadAssignment assign_read(const seq::Sequence& read, std::int64_t read_index,
                           const kmer::FlatKmerIndex<std::int32_t>& bundle_of, int k) {
  ReadAssignment out;
  out.read_index = read_index;

  // Tally shared k-mers per component; components are few per read, so a
  // small flat vector beats a hash map here.
  struct Tally {
    std::int32_t component;
    std::uint32_t count;
    std::size_t first;
    std::size_t last;  // last k-mer start position
  };
  std::vector<Tally> tallies;
  const seq::KmerCodec codec(k);
  codec.for_each(read.bases, [&](const seq::KmerCodec::Window& w) {
    const std::int32_t* component = bundle_of.lookup(w.canonical());
    if (component == nullptr) return;
    for (auto& t : tallies) {
      if (t.component == *component) {
        ++t.count;
        t.last = w.position;
        return;
      }
    }
    tallies.push_back({*component, 1, w.position, w.position});
  });
  if (tallies.empty()) return out;

  const auto best = std::min_element(
      tallies.begin(), tallies.end(), [](const Tally& a, const Tally& b) {
        if (a.count != b.count) return a.count > b.count;  // most shared k-mers
        return a.component < b.component;                  // deterministic tie
      });
  out.component = best->component;
  out.shared_kmers = best->count;
  out.region_begin = static_cast<std::uint32_t>(best->first);
  out.region_end = static_cast<std::uint32_t>(best->last + static_cast<std::size_t>(k));
  return out;
}

void write_assignments(const std::string& path,
                       const std::vector<ReadAssignment>& assignments) {
  io::BufferedWriter out(path);
  for (const auto& a : assignments) {
    out << a.read_index << '\t' << a.component << '\t' << a.shared_kmers << '\t'
        << a.region_begin << '\t' << a.region_end << '\n';
  }
  out.close();
}

}  // namespace detail

namespace {

/// Index mode is gone; a caller that still selects it fails here rather
/// than silently running the vote map.
void reject_index_mode(const ReadsToTranscriptsOptions& options) {
  if (options.mode == R2TMode::kIndex) {
    throw std::invalid_argument(
        "ReadsToTranscripts: index mode was removed; the vote map is built for every run");
  }
}

/// What one rank's pass over the reads measured.
struct StreamStats {
  double loop_seconds = 0.0;   ///< modeled classification + chunk-read CPU
  std::uint64_t chunks = 0;    ///< chunks this rank classified
  io::ParseDiagnostics parse;  ///< empty on ranks that never read the file
};

/// Classifies one in-memory chunk with an OpenMP team, appending to
/// `assignments` and charging the modeled loop seconds to `stats`.
void classify_chunk(const std::vector<seq::Sequence>& chunk, std::int64_t base_index,
                    const kmer::FlatKmerIndex<std::int32_t>& bundle_of,
                    const ReadsToTranscriptsOptions& options, int real_threads,
                    std::vector<ReadAssignment>& assignments, StreamStats& stats) {
  const std::size_t offset = assignments.size();
  assignments.resize(offset + chunk.size());
  const std::vector<IndexRange> all{IndexRange{0, chunk.size()}};
  stats.loop_seconds += timed_parallel_loop(
      all, real_threads, options.model_threads_per_rank,
      [&](std::size_t i) {
        const std::int64_t read_index = base_index + static_cast<std::int64_t>(i);
        // kernel_repeats: see the options doc; extra iterations are discarded.
        for (int rep = 1; rep < options.kernel_repeats; ++rep) {
          (void)detail::assign_read(chunk[i], read_index, bundle_of, options.k);
        }
        assignments[offset + i] =
            detail::assign_read(chunk[i], read_index, bundle_of, options.k);
      },
      "r2t.chunk");
  ++stats.chunks;
}

/// The one reader loop: streams the reads file on the calling thread in
/// chunks of max_mem_reads and hands each (chunk, chunk_index, base_index)
/// to `visit`, which classifies the chunks its rank owns and skips or
/// sends the rest. The read CPU is charged to `stats`, as the paper's
/// redundant streaming pays it for the whole file on every rank.
template <typename Visit>
void for_each_chunk(const std::string& reads_path, const ReadsToTranscriptsOptions& options,
                    StreamStats& stats, Visit&& visit) {
  seq::FastaReader reader(reads_path, options.parse_policy);
  std::int64_t base_index = 0;
  for (std::int64_t chunk_index = 0;; ++chunk_index) {
    util::ThreadCpuTimer read_cpu;
    const auto chunk = reader.read_chunk(options.max_mem_reads);
    stats.loop_seconds += read_cpu.seconds();
    if (chunk.empty()) break;
    visit(chunk, chunk_index, base_index);
    base_index += static_cast<std::int64_t>(chunk.size());
  }
  stats.parse = reader.diagnostics();
}

/// Classifies the chunks whose index is congruent to `offset` modulo
/// `stride` and skips the rest: (1, 0) for run_shared, (size, rank) for
/// redundant streaming.
StreamStats stream_owned_chunks(const std::string& reads_path,
                                const kmer::FlatKmerIndex<std::int32_t>& bundle_of,
                                const ReadsToTranscriptsOptions& options, int threads,
                                int stride, int offset,
                                std::vector<ReadAssignment>& assignments) {
  StreamStats stats;
  for_each_chunk(reads_path, options, stats,
                 [&](const std::vector<seq::Sequence>& chunk, std::int64_t chunk_index,
                     std::int64_t base_index) {
                   if (chunk_index % stride != offset) return;
                   classify_chunk(chunk, base_index, bundle_of, options, threads, assignments,
                                  stats);
                 });
  return stats;
}

/// Master/slave ablation: rank 0 reads, classifies chunk 0 mod P and
/// ships the others round-robin; an empty payload is the end-of-stream
/// sentinel.
StreamStats master_slave_chunks(simpi::Context& ctx, const std::string& reads_path,
                                const kmer::FlatKmerIndex<std::int32_t>& bundle_of,
                                const ReadsToTranscriptsOptions& options,
                                int threads, std::vector<ReadAssignment>& assignments) {
  constexpr int kChunkTag = 7;
  StreamStats stats;
  if (ctx.rank() != 0) {
    for (;;) {
      const auto msg = ctx.recv_bytes(0, kChunkTag);
      const auto wire = simpi::unpack_strings(msg.payload);
      if (wire.empty()) break;
      const std::int64_t base_index = std::stoll(wire.front());
      std::vector<seq::Sequence> chunk(wire.size() - 1);
      for (std::size_t i = 1; i < wire.size(); ++i) chunk[i - 1].bases = wire[i];
      classify_chunk(chunk, base_index, bundle_of, options, threads, assignments, stats);
    }
    return stats;
  }
  for_each_chunk(
      reads_path, options, stats,
      [&](const std::vector<seq::Sequence>& chunk, std::int64_t chunk_index,
          std::int64_t base_index) {
        const int dest = static_cast<int>(chunk_index % ctx.size());
        if (dest == 0) {
          classify_chunk(chunk, base_index, bundle_of, options, threads, assignments, stats);
          return;
        }
        std::vector<std::string> wire;
        wire.reserve(chunk.size() + 1);
        wire.push_back(std::to_string(base_index));
        for (const auto& read : chunk) wire.push_back(read.bases);
        ctx.send_bytes(dest, kChunkTag, simpi::pack_strings(wire));
      });
  for (int r = 1; r < ctx.size(); ++r) ctx.send_bytes(r, kChunkTag, simpi::pack_strings({}));
  return stats;
}

std::string rank_output_path(const std::string& output_dir, int rank) {
  return output_dir + "/readsToComponents.rank" + std::to_string(rank) + ".tsv";
}

/// Concatenates per-rank files into the final output — the paper's "simple
/// cat command" by the master process — in 64 KiB pieces through the io
/// layer, then removes the parts: nothing reads them once the merged file
/// is closed. Returns wall seconds.
double concatenate_outputs(const std::vector<std::string>& inputs, const std::string& output) {
  util::Timer wall;
  io::IoFile out = io::IoFile::create(output);
  std::vector<char> buffer(std::size_t{1} << 16);
  for (const auto& path : inputs) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw io::IoError(io::IoErrorKind::kPermanent, "open", path, errno,
                               "cannot open rank part");
    while (in.read(buffer.data(), static_cast<std::streamsize>(buffer.size())) ||
           in.gcount() > 0) {
      out.write_all(std::string_view(buffer.data(), static_cast<std::size_t>(in.gcount())));
    }
  }
  out.close();
  for (const auto& path : inputs) std::remove(path.c_str());
  return wall.seconds();
}

/// One rank's share of R2TTiming: the record run_hybrid allgathers once,
/// at the stage's end, and reduces field by field.
struct RankTiming {
  double setup = 0.0;
  double loop = 0.0;
  double concat = 0.0;  ///< rank 0's cat of the per-rank files; 0 on the others
  double comm = 0.0;
  std::uint64_t chunks = 0;
  std::uint64_t reads = 0;
};

void sort_by_read_index(std::vector<ReadAssignment>& assignments) {
  std::sort(assignments.begin(), assignments.end(),
            [](const ReadAssignment& a, const ReadAssignment& b) {
              return a.read_index < b.read_index;
            });
}

}  // namespace

R2TResult run_shared(const std::vector<seq::Sequence>& contigs, const ComponentSet& components,
                     const std::string& reads_path, const ReadsToTranscriptsOptions& options,
                     const std::string& output_dir) {
  reject_index_mode(options);
  const int threads = resolve_omp_threads(options.omp_threads, /*hybrid=*/false);
  R2TResult result;
  StreamStats stream;
  {
    util::ThreadCpuTimer setup_cpu;
    const auto bundle_of = build_bundle_kmer_map(contigs, components, options.k);
    result.timing.setup_seconds = setup_cpu.seconds();
    stream = stream_owned_chunks(reads_path, bundle_of, options, threads, /*stride=*/1,
                                 /*offset=*/0, result.assignments);
  }  // the vote map is freed before the output is written
  result.parse = stream.parse;
  result.timing.main_loop.seconds = {stream.loop_seconds};
  result.timing.rank_chunks = {stream.chunks};
  result.timing.rank_reads = {result.assignments.size()};

  if (!output_dir.empty()) {
    result.merged_output_path = output_dir + "/readsToComponents.out.tsv";
    detail::write_assignments(result.merged_output_path, result.assignments);
  }
  return result;
}

R2TResult run_hybrid(simpi::Context& ctx, const std::vector<seq::Sequence>& contigs,
                     const ComponentSet& components, const std::string& reads_path,
                     const ReadsToTranscriptsOptions& options, const std::string& output_dir) {
  reject_index_mode(options);
  const int threads = resolve_omp_threads(options.omp_threads, /*hybrid=*/true);
  const double comm_before = ctx.comm_seconds();
  R2TResult result;

  // Setup stays OpenMP-only and runs redundantly per rank ("we have not
  // converted this to a hybrid implementation yet" — paper, Section V.B).
  std::vector<ReadAssignment> my_assignments;
  StreamStats stream;
  RankTiming mine;
  {
    util::ThreadCpuTimer setup_cpu;
    const auto bundle_of = build_bundle_kmer_map(contigs, components, options.k);
    mine.setup = setup_cpu.seconds();
    stream = options.strategy == R2TStrategy::kRedundantStreaming
                 ? stream_owned_chunks(reads_path, bundle_of, options, threads, ctx.size(),
                                       ctx.rank(), my_assignments)
                 : master_slave_chunks(ctx, reads_path, bundle_of, options, threads,
                                       my_assignments);
  }  // the vote map is freed before the output is written and gathered
  result.parse = stream.parse;
  mine.loop = stream.loop_seconds;
  mine.chunks = stream.chunks;
  mine.reads = my_assignments.size();

  // Output: the paper's per-rank files, concatenated by rank 0.
  if (!output_dir.empty()) {
    sort_by_read_index(my_assignments);
    result.merged_output_path = output_dir + "/readsToComponents.out.tsv";
    detail::write_assignments(rank_output_path(output_dir, ctx.rank()), my_assignments);
    ctx.barrier();
    if (ctx.rank() == 0) {
      std::vector<std::string> inputs;
      for (int r = 0; r < ctx.size(); ++r) inputs.push_back(rank_output_path(output_dir, r));
      mine.concat = concatenate_outputs(inputs, result.merged_output_path);
    }
  }

  // Gather assignments at rank 0, which returns the full, sorted result;
  // the other ranks return none (as DistributedBowtieResult::records).
  {
    const auto parts = ctx.gatherv(my_assignments, 0);
    my_assignments = std::vector<ReadAssignment>();
    std::size_t total = 0;
    for (const auto& part : parts) total += part.size();
    result.assignments.reserve(total);
    for (const auto& part : parts) {
      result.assignments.insert(result.assignments.end(), part.begin(), part.end());
    }
    sort_by_read_index(result.assignments);
  }

  // The timing's one collective. comm is read before it, so comm_seconds
  // counts the stage's traffic and not this bookkeeping.
  mine.comm = ctx.comm_seconds() - comm_before;
  R2TTiming& timing = result.timing;
  for (const RankTiming& r : ctx.allgather(mine)) {
    timing.main_loop.seconds.push_back(r.loop);
    timing.rank_chunks.push_back(r.chunks);
    timing.rank_reads.push_back(r.reads);
    timing.setup_seconds = std::max(timing.setup_seconds, r.setup);
    timing.concat_seconds = std::max(timing.concat_seconds, r.concat);
    timing.comm_seconds = std::max(timing.comm_seconds, r.comm);
  }
  return result;
}

}  // namespace trinity::chrysalis
