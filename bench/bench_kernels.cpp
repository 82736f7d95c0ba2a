// Kernel microbenchmarks (google-benchmark): the per-item costs every
// figure bench is built from. Useful for spotting regressions in the hot
// paths independent of the figure harnesses.

#include <benchmark/benchmark.h>

#include "chrysalis/components.hpp"
#include "chrysalis/graph_from_fasta.hpp"
#include "chrysalis/reads_to_transcripts.hpp"
#include "kmer/counter.hpp"
#include "simpi/pack.hpp"
#include "sw/smith_waterman.hpp"
#include "seq/dna.hpp"
#include "seq/kmer.hpp"
#include "util/rng.hpp"

namespace {

using namespace trinity;

std::string random_dna(std::size_t length, std::uint64_t seed) {
  util::Rng rng(seed);
  std::string out(length, 'A');
  for (auto& c : out) c = seq::code_to_base(static_cast<std::uint8_t>(rng.uniform_below(4)));
  return out;
}

void BM_KmerExtract(benchmark::State& state) {
  const seq::KmerCodec codec(25);
  const std::string s = random_dna(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    seq::KmerCode sum = 0;
    codec.for_each(s, [&](const seq::KmerCodec::Window& w) { sum += w.canonical(); });
    benchmark::DoNotOptimize(sum);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_KmerExtract)->Arg(100)->Arg(1000)->Arg(10000);

void BM_KmerCount(benchmark::State& state) {
  std::vector<seq::Sequence> reads;
  for (int i = 0; i < 100; ++i) {
    reads.push_back({"r", random_dna(100, static_cast<std::uint64_t>(i + 1))});
  }
  for (auto _ : state) {
    kmer::CounterOptions o;
    o.k = 25;
    o.num_threads = 1;
    kmer::KmerCounter counter(o);
    counter.add_sequences(reads);
    benchmark::DoNotOptimize(counter.distinct());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100);
}
BENCHMARK(BM_KmerCount);

void BM_SmithWaterman(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::string a = random_dna(n, 2);
  std::string b = a;
  b[n / 2] = b[n / 2] == 'A' ? 'C' : 'A';
  for (auto _ : state) {
    benchmark::DoNotOptimize(sw::align(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SmithWaterman)->Arg(200)->Arg(1000);

void BM_WeldHarvest(benchmark::State& state) {
  // One contig pair sharing a region, dense read support.
  const std::string shared = random_dna(120, 4);
  std::vector<seq::Sequence> contigs{{"a", random_dna(400, 5) + shared + random_dna(400, 6)},
                                     {"b", random_dna(400, 7) + shared + random_dna(400, 8)}};
  std::vector<seq::Sequence> reads;
  for (const auto& c : contigs) {
    for (std::size_t p = 0; p + 60 <= c.bases.size(); p += 5) {
      reads.push_back({"r", c.bases.substr(p, 60)});
    }
  }
  kmer::CounterOptions copt;
  copt.k = 25;
  copt.num_threads = 1;
  kmer::KmerCounter counter(copt);
  counter.add_sequences(reads);
  chrysalis::GraphFromFastaOptions options;
  options.k = 25;
  const auto shared_overlaps = chrysalis::detail::shared_overlap_kmers(contigs, 25);

  for (auto _ : state) {
    std::vector<std::string> welds;
    chrysalis::detail::harvest_welds(contigs[0], shared_overlaps, counter, options, welds);
    benchmark::DoNotOptimize(welds);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WeldHarvest);

void BM_AssignRead(benchmark::State& state) {
  std::vector<seq::Sequence> contigs;
  for (int i = 0; i < 50; ++i) {
    contigs.push_back({"c", random_dna(1000, static_cast<std::uint64_t>(i + 10))});
  }
  const auto components = chrysalis::cluster_contigs(contigs.size(), {});
  const auto bundle_of = chrysalis::build_bundle_kmer_map(contigs, components, 25);
  const seq::Sequence read{"r", contigs[25].bases.substr(100, 100)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(chrysalis::detail::assign_read(read, 0, bundle_of, 25));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AssignRead);

void BM_UnionFind(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(11);
  std::vector<chrysalis::ContigPair> pairs;
  for (std::size_t i = 0; i < n; ++i) {
    pairs.push_back({static_cast<std::int32_t>(rng.uniform_below(n)),
                     static_cast<std::int32_t>(rng.uniform_below(n))});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(chrysalis::cluster_contigs(n, pairs));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_UnionFind)->Arg(1000)->Arg(100000);

void BM_PackStrings(benchmark::State& state) {
  std::vector<std::string> welds;
  for (int i = 0; i < 1000; ++i) welds.push_back(random_dna(50, static_cast<std::uint64_t>(i)));
  for (auto _ : state) {
    const auto packed = simpi::pack_strings(welds);
    benchmark::DoNotOptimize(simpi::unpack_strings(packed));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_PackStrings);

}  // namespace

BENCHMARK_MAIN();
