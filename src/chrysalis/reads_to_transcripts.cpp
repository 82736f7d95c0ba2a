#include "chrysalis/reads_to_transcripts.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "chrysalis/distribution.hpp"
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

/// One in-memory chunk of reads, the file index of its first read, and the
/// reads.size() slots its assignments go to.
struct Chunk {
  std::vector<seq::Sequence> reads;
  std::int64_t base_index = 0;
  ReadAssignment* out = nullptr;
  [[nodiscard]] std::size_t size() const { return reads.size(); }
};

/// Classifies every chunk `next_owned` yields through chunk_loop and
/// returns the assignments in chunk order. `next_owned(chunk)` fills
/// `chunk` with the next chunk this rank classifies, empty at the end of
/// the stream, and charges to `stats` what of its own CPU the model
/// counts. Each pull gives its chunk a part of its own for the
/// assignments, so the master never moves storage the team is writing.
template <typename Source>
std::vector<ReadAssignment> classify_owned(Source&& next_owned,
                                           const kmer::FlatKmerIndex<std::int32_t>& bundle_of,
                                           const ReadsToTranscriptsOptions& options,
                                           int real_threads, StreamStats& stats) {
  std::vector<std::vector<ReadAssignment>> parts;
  const auto pull = [&](Chunk& chunk) {
    next_owned(chunk);
    if (chunk.reads.empty()) return;
    ++stats.chunks;
    chunk.out = parts.emplace_back(chunk.reads.size()).data();
  };
  stats.loop_seconds += chunk_loop<Chunk>(
      real_threads, options.model_threads_per_rank, "r2t.chunk", pull,
      [&](const Chunk& chunk, std::size_t i, int /*tid*/) {
        const auto& read = chunk.reads[i];
        const std::int64_t read_index = chunk.base_index + static_cast<std::int64_t>(i);
        // kernel_repeats: see the options doc; extra iterations are discarded.
        for (int rep = 1; rep < options.kernel_repeats; ++rep) {
          (void)detail::assign_read(read, read_index, bundle_of, options.k);
        }
        chunk.out[i] = detail::assign_read(read, read_index, bundle_of, options.k);
      });
  std::size_t total = 0;
  for (const auto& part : parts) total += part.size();
  std::vector<ReadAssignment> assignments;
  assignments.reserve(total);
  for (const auto& part : parts) assignments.insert(assignments.end(), part.begin(), part.end());
  return assignments;
}

/// The reads file as chunks of max_mem_reads, numbered from 0. The parse
/// CPU is charged to the main loop undivided: redundant streaming pays it
/// for the whole file on every rank.
class ChunkReader {
 public:
  ChunkReader(const std::string& path, const ReadsToTranscriptsOptions& options)
      : reader_(path, options.parse_policy), max_reads_(options.max_mem_reads) {}

  /// Replaces `chunk` with the next chunk, empty at the end of the file,
  /// and returns its index.
  std::size_t next(Chunk& chunk, StreamStats& stats) {
    util::ThreadCpuTimer read_cpu;
    // Free the last chunk, storage included, before parsing the next
    // (assigning `{}` would keep the vector's capacity).
    chunk.reads = std::vector<seq::Sequence>();
    chunk.reads = reader_.read_chunk(max_reads_);
    stats.loop_seconds += read_cpu.seconds();
    chunk.base_index = base_index_;
    base_index_ += static_cast<std::int64_t>(chunk.reads.size());
    return index_++;
  }

  [[nodiscard]] const io::ParseDiagnostics& diagnostics() const { return reader_.diagnostics(); }

 private:
  seq::FastaReader reader_;
  std::size_t max_reads_;
  std::size_t index_ = 0;
  std::int64_t base_index_ = 0;
};

/// Classifies the chunks whose index is congruent to `offset` modulo
/// `stride` and skips the rest: (1, 0) for run_shared, (size, rank) for
/// redundant streaming.
StreamStats stream_owned_chunks(const std::string& reads_path,
                                const kmer::FlatKmerIndex<std::int32_t>& bundle_of,
                                const ReadsToTranscriptsOptions& options, int threads,
                                int stride, int offset,
                                std::vector<ReadAssignment>& assignments) {
  StreamStats stats;
  ChunkReader reader(reads_path, options);
  const auto next_owned = [&](Chunk& chunk) {
    while (ChunkedRoundRobin::owner_of(reader.next(chunk, stats), stride) != offset &&
           !chunk.reads.empty()) {
    }
  };
  assignments = classify_owned(next_owned, bundle_of, options, threads, stats);
  stats.parse = reader.diagnostics();
  return stats;
}

/// Master/slave ablation: rank 0 reads, classifies chunk 0 mod P and
/// ships the others round-robin; an empty payload is the end-of-stream
/// sentinel. Only rank 0's read CPU is charged, not the shipping.
StreamStats master_slave_chunks(simpi::Context& ctx, const std::string& reads_path,
                                const kmer::FlatKmerIndex<std::int32_t>& bundle_of,
                                const ReadsToTranscriptsOptions& options,
                                int threads, std::vector<ReadAssignment>& assignments) {
  constexpr int kChunkTag = 7;
  StreamStats stats;
  if (ctx.rank() != 0) {
    const auto receive = [&](Chunk& chunk) {
      auto wire = simpi::unpack_strings(ctx.recv_bytes(0, kChunkTag).payload);
      chunk.reads.clear();
      if (wire.empty()) return;
      chunk.base_index = std::stoll(wire.front());
      chunk.reads.resize(wire.size() - 1);
      for (std::size_t i = 1; i < wire.size(); ++i) chunk.reads[i - 1].bases = std::move(wire[i]);
    };
    assignments = classify_owned(receive, bundle_of, options, threads, stats);
    return stats;
  }
  ChunkReader reader(reads_path, options);
  const auto next_owned = [&](Chunk& chunk) {
    for (;;) {
      const int dest = ChunkedRoundRobin::owner_of(reader.next(chunk, stats), ctx.size());
      if (dest == 0 || chunk.reads.empty()) return;
      std::vector<std::string> wire;
      wire.reserve(chunk.reads.size() + 1);
      wire.push_back(std::to_string(chunk.base_index));
      for (auto& read : chunk.reads) wire.push_back(std::move(read.bases));
      ctx.send_bytes(dest, kChunkTag, simpi::pack_strings(wire));
    }
  };
  assignments = classify_owned(next_owned, bundle_of, options, threads, stats);
  for (int r = 1; r < ctx.size(); ++r) ctx.send_bytes(r, kChunkTag, simpi::pack_strings({}));
  stats.parse = reader.diagnostics();
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
