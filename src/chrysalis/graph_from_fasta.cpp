#include "chrysalis/graph_from_fasta.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <unordered_set>

#include "chrysalis/dsu.hpp"
#include "chrysalis/parallel_loop.hpp"
#include "seq/dna.hpp"
#include "simpi/rma.hpp"
#include "seq/kmer.hpp"
#include "simpi/pack.hpp"
#include "util/timer.hpp"

namespace trinity::chrysalis {

double PerRankTimes::max() const {
  double best = 0.0;
  for (const double s : seconds) best = std::max(best, s);
  return best;
}

double PerRankTimes::min() const {
  if (seconds.empty()) return 0.0;
  double best = seconds.front();
  for (const double s : seconds) best = std::min(best, s);
  return best;
}

const char* to_string(ShardingStrategy strategy) {
  switch (strategy) {
    case ShardingStrategy::kPooled: return "pooled";
    case ShardingStrategy::kOwner: return "owner";
  }
  return "pooled";
}

bool sharding_from_string(const std::string& text, ShardingStrategy* out) {
  if (text == "pooled") {
    *out = ShardingStrategy::kPooled;
  } else if (text == "owner") {
    *out = ShardingStrategy::kOwner;
  } else {
    return false;
  }
  return true;
}

namespace {

/// Canonical form of a weld: lexicographic min of the sequence and its
/// reverse complement, so both strands hash identically.
std::string canonical_weld(const std::string& weld) {
  std::string rc = seq::reverse_complement(weld);
  return weld <= rc ? weld : std::move(rc);
}

}  // namespace

namespace detail {

kmer::FlatKmerIndex<std::uint32_t> shared_overlap_kmers(const std::vector<seq::Sequence>& contigs,
                                                        int k) {
  // (k-1)-mers: the overlap length at Inchworm branch points. Pool every
  // contig's distinct canonical codes and sort them: a code's run length is
  // then the number of contigs carrying it. The pool is one code per
  // window; the table keeps only the runs of two or more.
  const seq::KmerCodec codec(k - 1);
  std::vector<seq::KmerCode> codes;
  std::size_t windows = 0;
  for (const auto& contig : contigs) windows += codec.window_count(contig.bases);
  codes.reserve(windows);
  for (const auto& contig : contigs) {
    const auto first = static_cast<std::ptrdiff_t>(codes.size());
    codec.for_each(contig.bases,
                   [&](const seq::KmerCodec::Window& w) { codes.push_back(w.canonical()); });
    std::sort(codes.begin() + first, codes.end());
    codes.erase(std::unique(codes.begin() + first, codes.end()), codes.end());
  }
  std::sort(codes.begin(), codes.end());
  kmer::FlatKmerIndex<std::uint32_t> shared;
  for (std::size_t i = 0; i < codes.size();) {
    std::size_t j = i + 1;
    while (j < codes.size() && codes[j] == codes[i]) ++j;
    if (j - i >= 2) shared.emplace(codes[i], static_cast<std::uint32_t>(j - i));
    i = j;
  }
  return shared;
}

void harvest_welds(const seq::Sequence& contig,
                   const kmer::FlatKmerIndex<std::uint32_t>& shared_overlaps,
                   const kmer::KmerCounter& read_counter, const GraphFromFastaOptions& options,
                   std::vector<std::string>& out) {
  const int k = options.k;
  const auto seed_len = static_cast<std::size_t>(k - 1);
  const auto flank = static_cast<std::size_t>(k / 2);
  const seq::KmerCodec seed_codec(k - 1);
  const seq::KmerCodec kmer_codec(k);
  if (contig.bases.size() < static_cast<std::size_t>(k)) return;

  seed_codec.for_each(contig.bases, [&](const seq::KmerCodec::Window& seed) {
    // Seed must be a (k-1)-overlap shared with at least one other contig.
    if (shared_overlaps.lookup(seed.canonical()) == nullptr) return;

    // The weld window is the seed plus k/2 flanks on each side (~2k bases),
    // clamped at the contig ends — branch points often sit at an end.
    const std::size_t begin = seed.position > flank ? seed.position - flank : 0;
    const std::size_t end =
        std::min(contig.bases.size(), seed.position + seed_len + flank);
    if (end - begin < static_cast<std::size_t>(k)) return;
    const std::string_view weld(contig.bases.data() + begin, end - begin);

    // Read support: every k-mer across the weld must clear the threshold.
    // A window count short of weld_len - k + 1 means an invalid base hid
    // some windows from the check; treat that as unsupported too.
    std::size_t windows = 0;
    bool supported = true;
    kmer_codec.for_each(weld, [&](const seq::KmerCodec::Window& w) {
      ++windows;
      supported = supported && read_counter.count_of(w.canonical()) >= options.min_weld_support;
    });
    if (supported && windows == kmer_codec.window_count(weld)) {
      out.push_back(canonical_weld(std::string(weld)));
    }
  });
}

kmer::KmerPostings<std::int32_t> index_weld_cores(const std::vector<std::string>& welds, int k) {
  const seq::KmerCodec codec(k - 1);
  return kmer::KmerPostings<std::int32_t>::build([&](auto&& emit) {
    for (std::size_t w = 0; w < welds.size(); ++w) {
      for (const auto code : codec.distinct_canonical(welds[w])) {
        emit(code, static_cast<std::int32_t>(w));
      }
    }
  });
}

void find_weld_matches(const seq::Sequence& contig, std::int32_t contig_id,
                       const kmer::KmerPostings<std::int32_t>& weld_cores,
                       const GraphFromFastaOptions& options,
                       std::vector<std::pair<std::int32_t, std::int32_t>>& out) {
  // Each weld is reported once per contig, however many codes it shares.
  std::unordered_set<std::int32_t> hit;
  seq::KmerCodec(options.k - 1).for_each(contig.bases, [&](const seq::KmerCodec::Window& w) {
    for (const auto weld_id : weld_cores.lookup(w.canonical())) {
      if (hit.insert(weld_id).second) out.emplace_back(weld_id, contig_id);
    }
  });
}

std::vector<std::string> dedup_welds(std::vector<std::string> welds) {
  std::sort(welds.begin(), welds.end());
  welds.erase(std::unique(welds.begin(), welds.end()), welds.end());
  return welds;
}

int weld_owner(const std::string& weld, int k, int nranks) {
  // Smallest canonical (k-1)-mer code — a strand-symmetric property of the
  // weld *sequence*, so every copy of a weld hashes to the same owner.
  // Welds always pass the read-support check, which requires every window
  // to be valid, so the walk below cannot come up empty; the 0 fallback
  // is pure defence.
  bool found = false;
  seq::KmerCode min_code = 0;
  seq::KmerCodec(k - 1).for_each(weld, [&](const seq::KmerCodec::Window& w) {
    const seq::KmerCode code = w.canonical();
    if (!found || code < min_code) min_code = code;
    found = true;
  });
  if (!found) return 0;
  return static_cast<int>(kmer::mix_kmer_code(min_code) % static_cast<std::uint64_t>(nranks));
}

std::vector<ContigPair> pairs_from_matches(
    std::size_t num_welds, std::vector<std::pair<std::int32_t, std::int32_t>> matches) {
  // Anchor each weld's contigs at the smallest contig id carrying it; the
  // result is independent of the order matches were pooled in.
  std::vector<std::int32_t> anchor(num_welds, -1);
  for (const auto& [weld, contig] : matches) {
    auto& a = anchor[static_cast<std::size_t>(weld)];
    if (a < 0 || contig < a) a = contig;
  }
  std::vector<ContigPair> pairs;
  for (const auto& [weld, contig] : matches) {
    const std::int32_t a = anchor[static_cast<std::size_t>(weld)];
    if (contig != a) pairs.push_back({a, contig});
  }
  std::sort(pairs.begin(), pairs.end(), [](const ContigPair& x, const ContigPair& y) {
    if (x.a != y.a) return x.a < y.a;
    return x.b < y.b;
  });
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  return pairs;
}

}  // namespace detail

namespace {

/// One loop-2 match: (weld id, contig id).
using Match = std::pair<std::int32_t, std::int32_t>;

/// A loop's pull for chunk_loop: the next chunk this rank processes, an
/// empty range at the end. Called once per chunk, not per item.
using ChunkPull = std::function<void(IndexRange&)>;

/// Yields `ranges` in order, then an empty range.
ChunkPull walk(std::vector<IndexRange> ranges) {
  return [ranges = std::move(ranges), next = std::size_t{0}](IndexRange& chunk) mutable {
    chunk = next < ranges.size() ? ranges[next++] : IndexRange{};
  };
}

/// This rank's chunks of a loop over `num_items` under
/// options.distribution: its chunked round robin chunks, its block, or the
/// chunks it claims from the shared RMA counter `counter_id` (each claim
/// charges one modeled RMA round trip). Collective under kDynamic: the
/// counter is reset between barriers.
ChunkPull owned_chunks(simpi::Context& ctx, int counter_id, const GraphFromFastaOptions& options,
                       std::size_t num_items) {
  const int nranks = ctx.size();
  const ChunkedRoundRobin chunks(
      num_items, nranks,
      ChunkedRoundRobin::default_chunk_size(num_items, nranks, options.model_threads_per_rank));
  if (options.distribution == Distribution::kBlock) {
    return walk({BlockDistribution(num_items, nranks).block_for(ctx.rank())});
  }
  if (options.distribution == Distribution::kChunkedRoundRobin) {
    return walk(chunks.chunks_for(ctx.rank()));
  }
  ctx.barrier();
  simpi::SharedCounter counter(ctx, counter_id);
  if (ctx.rank() == 0) counter.reset(0);
  ctx.barrier();
  return [chunks, counter](IndexRange& chunk) mutable {
    chunk = chunks.chunk(static_cast<std::size_t>(counter.fetch_add(1)));
  };
}

/// Counter ids for the dynamic loops; reset between uses under barriers.
inline constexpr int kDynamicCounterLoop1 = 9101;
inline constexpr int kDynamicCounterLoop2 = 9102;

/// Runs `kernel` into a throwaway sink (kernel_repeats - 1) times, then
/// into the real sink once — the cost-calibration knob documented on
/// GraphFromFastaOptions::kernel_repeats.
template <typename Sink, typename Kernel>
void run_calibrated(int repeats, Sink& sink, Kernel&& kernel) {
  for (int rep = 1; rep < repeats; ++rep) {
    Sink scratch;
    kernel(scratch);
  }
  kernel(sink);
}

/// Runs `kernel(contig_index, out)` over the contigs of the chunks `pull`
/// yields, through chunk_loop with one output part per OpenMP thread, and
/// returns the parts concatenated. `*seconds` receives the loop's modeled
/// seconds.
template <typename T, typename Kernel>
std::vector<T> contig_loop(ChunkPull pull, int threads, const GraphFromFastaOptions& options,
                           const char* trace_name, double* seconds, Kernel&& kernel) {
  std::vector<std::vector<T>> parts(static_cast<std::size_t>(std::max(threads, 1)));
  *seconds = chunk_loop<IndexRange>(
      threads, options.model_threads_per_rank, trace_name, pull,
      [&](const IndexRange& chunk, std::size_t i, int tid) {
        run_calibrated(options.kernel_repeats, parts[static_cast<std::size_t>(tid)],
                       [&](std::vector<T>& out) { kernel(chunk.begin + i, out); });
      });
  std::vector<T> out;
  for (auto& part : parts) {
    out.insert(out.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  return out;
}

/// One rank's share of GffTiming: the record run_hybrid allgathers once,
/// at the stage's end, and reduces field by field.
struct RankTiming {
  double setup = 0.0;
  double loop1 = 0.0;
  double loop2 = 0.0;
  double finalize = 0.0;
  double pool_wait = 0.0;
  double comm = 0.0;
  int dsu_rounds = 0;
};

/// Pairs the matches and clusters the contigs, adding the CPU it took to
/// `*seconds`.
GffResult finalize(const std::vector<seq::Sequence>& contigs, std::vector<std::string> welds,
                   std::vector<std::pair<std::int32_t, std::int32_t>> matches,
                   const std::vector<ContigPair>& extra_pairs, double* seconds) {
  GffResult result;
  util::ThreadCpuTimer cpu;
  result.pairs = detail::pairs_from_matches(welds.size(), std::move(matches));
  std::vector<ContigPair> all_pairs = result.pairs;
  all_pairs.insert(all_pairs.end(), extra_pairs.begin(), extra_pairs.end());
  result.components = cluster_contigs(contigs.size(), all_pairs);
  result.welds = std::move(welds);
  *seconds += cpu.seconds();
  return result;
}

}  // namespace

GffResult run_shared(const std::vector<seq::Sequence>& contigs,
                     const kmer::KmerCounter& read_counter,
                     const GraphFromFastaOptions& options,
                     const std::vector<ContigPair>& extra_pairs) {
  const int threads = resolve_omp_threads(options.omp_threads, /*hybrid=*/false);
  GffTiming timing;

  // Setup (serial in the original code): the shared (k-1)-overlap map.
  util::ThreadCpuTimer setup_cpu;
  const auto shared_overlaps = detail::shared_overlap_kmers(contigs, options.k);
  timing.setup_seconds = setup_cpu.seconds();

  // Loop 1 — weld harvest, OpenMP dynamic over all contigs as one chunk.
  const IndexRange all{0, contigs.size()};
  double loop1 = 0.0;
  auto welds = contig_loop<std::string>(
      walk({all}), threads, options, "gff.loop1", &loop1,
      [&](std::size_t c, std::vector<std::string>& out) {
        detail::harvest_welds(contigs[c], shared_overlaps, read_counter, options, out);
      });
  timing.loop1.seconds = {loop1};

  util::ThreadCpuTimer mid_cpu;
  welds = detail::dedup_welds(std::move(welds));
  const auto weld_cores = detail::index_weld_cores(welds, options.k);
  timing.finalize_seconds += mid_cpu.seconds();

  // Loop 2 — weld matching, OpenMP dynamic over all contigs as one chunk.
  double loop2 = 0.0;
  auto matches = contig_loop<Match>(
      walk({all}), threads, options, "gff.loop2", &loop2,
      [&](std::size_t c, std::vector<Match>& out) {
        detail::find_weld_matches(contigs[c], static_cast<std::int32_t>(c), weld_cores, options,
                                  out);
      });
  timing.loop2.seconds = {loop2};

  auto result = finalize(contigs, std::move(welds), std::move(matches), extra_pairs,
                         &timing.finalize_seconds);
  result.timing = std::move(timing);
  return result;
}

GffResult run_hybrid(simpi::Context& ctx, const std::vector<seq::Sequence>& contigs,
                     const kmer::KmerCounter& read_counter,
                     const GraphFromFastaOptions& options,
                     const std::vector<ContigPair>& extra_pairs) {
  const int threads = resolve_omp_threads(options.omp_threads, /*hybrid=*/true);
  const double comm_before = ctx.comm_seconds();
  RankTiming mine;

  // Setup: every rank scans all contigs (the paper's code). Pooling
  // block-partitioned partial maps with Allgatherv measured slower at 4-16
  // ranks: the merge and the communication cost more than the scan saves.
  util::ThreadCpuTimer setup_cpu;
  const auto shared_overlaps = detail::shared_overlap_kmers(contigs, options.k);
  mine.setup = setup_cpu.seconds();

  // Loop 1 over this rank's chunks under options.distribution.
  auto my_welds = contig_loop<std::string>(
      owned_chunks(ctx, kDynamicCounterLoop1, options, contigs.size()), threads, options,
      "gff.loop1", &mine.loop1, [&](std::size_t c, std::vector<std::string>& out) {
        detail::harvest_welds(contigs[c], shared_overlaps, read_counter, options, out);
      });

  const bool owner_mode = options.sharding == ShardingStrategy::kOwner;

  // Weld exchange (paper Section III.B pools with Allgatherv; owner mode
  // hash-routes each weld to the owner of its smallest core k-mer with the
  // blocking alltoallv). The packed-strings wire format survives
  // concatenation, so owner receipts — one packed buffer per source rank —
  // unpack with the same pool reader. pool_wait is the growth of the
  // exchange collective's CommStats wait_seconds row, so it compares the
  // modes directly; the bytes moved are counted on the same row.
  const simpi::CommOp exchange_op =
      owner_mode ? simpi::CommOp::kAlltoallv : simpi::CommOp::kAllgatherv;
  const double wait_before = ctx.comm_stats().of(exchange_op).wait_seconds;
  std::vector<std::byte> received;
  if (owner_mode) {
    std::vector<std::vector<std::string>> by_owner(static_cast<std::size_t>(ctx.size()));
    for (auto& weld : my_welds) {
      const int owner = detail::weld_owner(weld, options.k, ctx.size());
      by_owner[static_cast<std::size_t>(owner)].push_back(std::move(weld));
    }
    std::vector<std::vector<std::byte>> dest_parts;
    dest_parts.reserve(by_owner.size());
    for (const auto& group : by_owner) dest_parts.push_back(simpi::pack_strings(group));
    for (const auto& part : ctx.alltoallv(dest_parts)) {
      received.insert(received.end(), part.begin(), part.end());
    }
  } else {
    received = ctx.allgatherv(simpi::pack_strings(my_welds));
  }
  mine.pool_wait = ctx.comm_stats().of(exchange_op).wait_seconds - wait_before;

  // Pooled mode: `welds` is the global deduplicated pool, identical on
  // every rank. Owner mode: only this rank's owned shard — the dedup is
  // still global, because identical welds always land on the same owner.
  auto welds = detail::dedup_welds(simpi::unpack_string_pool(received));
  const auto weld_cores = detail::index_weld_cores(welds, options.k);

  // Loop 2. Pooled mode scans this rank's chunks against the full pool;
  // owner mode scans EVERY contig against only the owned welds (the
  // partition is by weld, not by contig — per-rank work is the owned share
  // of the match volume).
  auto my_matches = contig_loop<Match>(
      owner_mode ? walk({IndexRange{0, contigs.size()}})
                 : owned_chunks(ctx, kDynamicCounterLoop2, options, contigs.size()),
      threads, options, "gff.loop2", &mine.loop2, [&](std::size_t c, std::vector<Match>& out) {
        detail::find_weld_matches(contigs[c], static_cast<std::int32_t>(c), weld_cores, options,
                                  out);
      });

  GffResult result;
  if (owner_mode) {
    // Matches are complete per owned weld (every contig was scanned here),
    // so pair derivation is purely local, and the pairs never leave their
    // owner: components are agreed through the distributed union-find.
    // Scaffold pairs enter the edge set once, on rank 0 — the DSU takes
    // the union of all ranks' edges.
    util::ThreadCpuTimer fin_cpu;
    std::vector<ContigPair> local_pairs =
        detail::pairs_from_matches(welds.size(), std::move(my_matches));
    if (ctx.rank() == 0) {
      local_pairs.insert(local_pairs.end(), extra_pairs.begin(), extra_pairs.end());
    }
    DsuStats dsu;
    result.components = distributed_components(ctx, contigs.size(), local_pairs, &dsu);
    mine.finalize = fin_cpu.seconds();
    mine.dsu_rounds = dsu.rounds;
  } else {
    // Pool the pairing indices as a flat integer array (substantially less
    // data than loop 1's strings, as the paper notes).
    std::vector<std::int32_t> my_match_ints;
    my_match_ints.reserve(my_matches.size() * 2);
    for (const auto& [weld, contig] : my_matches) {
      my_match_ints.push_back(weld);
      my_match_ints.push_back(contig);
    }
    const auto pooled_ints = ctx.allgatherv(my_match_ints);
    if (pooled_ints.size() % 2 != 0) {
      throw std::logic_error("GraphFromFasta: malformed pooled match array");
    }
    std::vector<Match> matches;
    matches.reserve(pooled_ints.size() / 2);
    for (std::size_t i = 0; i < pooled_ints.size(); i += 2) {
      matches.emplace_back(pooled_ints[i], pooled_ints[i + 1]);
    }
    result = finalize(contigs, std::move(welds), std::move(matches), extra_pairs,
                      &mine.finalize);
  }
  // The timing's one collective. comm is read before it, so comm_seconds
  // counts the stage's traffic and not this bookkeeping; the loop times
  // stay per rank for the Figure 7 min/max curves, every scalar is the max.
  mine.comm = ctx.comm_seconds() - comm_before;
  GffTiming& timing = result.timing;
  for (const RankTiming& r : ctx.allgather(mine)) {
    timing.loop1.seconds.push_back(r.loop1);
    timing.loop2.seconds.push_back(r.loop2);
    timing.setup_seconds = std::max(timing.setup_seconds, r.setup);
    timing.finalize_seconds = std::max(timing.finalize_seconds, r.finalize);
    timing.pool_wait_seconds = std::max(timing.pool_wait_seconds, r.pool_wait);
    timing.comm_seconds = std::max(timing.comm_seconds, r.comm);
    timing.dsu_rounds = std::max(timing.dsu_rounds, r.dsu_rounds);
  }
  return result;
}

}  // namespace trinity::chrysalis
