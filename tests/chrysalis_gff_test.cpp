// Tests for GraphFromFasta: weld harvesting semantics, read-support
// gating, pair derivation, and — the paper's central claim — equivalence
// of the hybrid (simpi+OpenMP) run with the shared-memory run across rank
// counts and distribution strategies.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "chrysalis/graph_from_fasta.hpp"
#include "kmer/counter.hpp"
#include "seq/dna.hpp"
#include "simpi/context.hpp"
#include "test_helpers.hpp"
#include "trace/span_recorder.hpp"

namespace trinity::chrysalis {
namespace {

using trinity::testing::random_dna;
using trinity::testing::tile_reads;

constexpr int kTestK = 15;

/// Pooled sharding: the paper's scheme fills GffResult::welds and pairs,
/// which most tests here compare; the owner-mode tests opt in explicitly.
GraphFromFastaOptions test_options() {
  GraphFromFastaOptions o;
  o.k = kTestK;
  o.min_weld_support = 2;
  o.model_threads_per_rank = 4;
  o.sharding = ShardingStrategy::kPooled;
  return o;
}

/// A scenario with `n_pairs` welded contig pairs plus `n_single` loners.
struct Scenario {
  std::vector<seq::Sequence> contigs;
  std::vector<seq::Sequence> reads;
  std::vector<std::pair<int, int>> welded;  // expected same-component pairs
};

Scenario build_scenario(std::size_t n_pairs, std::size_t n_single, std::uint64_t seed) {
  Scenario s;
  util::Rng rng(seed);
  auto add_reads = [&](const std::string& source) {
    // Dense tiling: every k-mer is covered several times, giving the weld
    // support the threshold requires.
    auto reads = tile_reads(source, 50, 4, "r" + std::to_string(s.reads.size()) + "_");
    s.reads.insert(s.reads.end(), reads.begin(), reads.end());
  };

  for (std::size_t p = 0; p < n_pairs; ++p) {
    const std::string shared = random_dna(60, rng());  // > 2k, room for flanks
    seq::Sequence a{"a" + std::to_string(p), random_dna(80, rng()) + shared + random_dna(80, rng())};
    seq::Sequence b{"b" + std::to_string(p), random_dna(80, rng()) + shared + random_dna(80, rng())};
    s.welded.emplace_back(static_cast<int>(s.contigs.size()),
                          static_cast<int>(s.contigs.size()) + 1);
    add_reads(a.bases);
    add_reads(b.bases);
    s.contigs.push_back(std::move(a));
    s.contigs.push_back(std::move(b));
  }
  for (std::size_t i = 0; i < n_single; ++i) {
    seq::Sequence c{"solo" + std::to_string(i), random_dna(220, rng())};
    add_reads(c.bases);
    s.contigs.push_back(std::move(c));
  }
  return s;
}

kmer::KmerCounter make_counter(const std::vector<seq::Sequence>& reads) {
  kmer::CounterOptions o;
  o.k = kTestK;
  kmer::KmerCounter counter(o);
  counter.add_sequences(reads);
  return counter;
}

TEST(GffShared, SharedRegionWeldsContigPair) {
  const auto s = build_scenario(1, 1, 11);
  const auto counter = make_counter(s.reads);
  const auto result = run_shared(s.contigs, counter, test_options());

  EXPECT_FALSE(result.welds.empty()) << "shared region must yield welding sequences";
  // Contigs 0 and 1 share a 60-base region -> same component; contig 2 alone.
  EXPECT_EQ(result.components.component_of[0], result.components.component_of[1]);
  EXPECT_NE(result.components.component_of[2], result.components.component_of[0]);
  EXPECT_EQ(result.components.num_components(), 2u);
  // Pairs must contain (0, 1).
  EXPECT_TRUE(std::any_of(result.pairs.begin(), result.pairs.end(), [](const ContigPair& p) {
    return p.a == 0 && p.b == 1;
  }));
}

TEST(GffShared, DisjointContigsStaySeparate) {
  Scenario s;
  util::Rng rng(13);
  for (int i = 0; i < 4; ++i) {
    seq::Sequence c{"c" + std::to_string(i), random_dna(200, rng())};
    auto reads = tile_reads(c.bases, 50, 4, "r" + std::to_string(i) + "_");
    s.reads.insert(s.reads.end(), reads.begin(), reads.end());
    s.contigs.push_back(std::move(c));
  }
  const auto counter = make_counter(s.reads);
  const auto result = run_shared(s.contigs, counter, test_options());
  EXPECT_TRUE(result.welds.empty());
  EXPECT_TRUE(result.pairs.empty());
  EXPECT_EQ(result.components.num_components(), 4u);
}

TEST(GffShared, WithoutReadSupportNoWeld) {
  auto s = build_scenario(1, 0, 17);
  // Starve the weld of read support: an unrelated read set.
  const std::vector<seq::Sequence> foreign = tile_reads(random_dna(400, 999), 50, 4);
  const auto counter = make_counter(foreign);
  const auto result = run_shared(s.contigs, counter, test_options());
  EXPECT_TRUE(result.welds.empty())
      << "welds require read support (paper: 'welding ... if read support exists')";
  EXPECT_EQ(result.components.num_components(), 2u);
}

TEST(GffShared, SupportThresholdGates) {
  const auto s = build_scenario(1, 0, 19);
  const auto counter = make_counter(s.reads);
  auto options = test_options();
  options.min_weld_support = 1000;  // unreachable
  const auto result = run_shared(s.contigs, counter, options);
  EXPECT_TRUE(result.welds.empty());
}

TEST(GffShared, WeldsHaveBoundedLength) {
  const auto s = build_scenario(2, 0, 23);
  const auto counter = make_counter(s.reads);
  const auto result = run_shared(s.contigs, counter, test_options());
  ASSERT_FALSE(result.welds.empty());
  for (const auto& weld : result.welds) {
    // Seed (k-1) plus up to k/2 flanks each side, clamped at contig ends,
    // never below one full k-mer.
    EXPECT_GE(weld.size(), static_cast<std::size_t>(kTestK));
    EXPECT_LE(weld.size(), static_cast<std::size_t>(kTestK - 1 + 2 * (kTestK / 2)));
  }
}

TEST(GffShared, WeldsAreCanonicalAndUnique) {
  const auto s = build_scenario(2, 1, 29);
  const auto counter = make_counter(s.reads);
  const auto result = run_shared(s.contigs, counter, test_options());
  auto sorted = result.welds;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end());
  for (const auto& weld : result.welds) {
    EXPECT_LE(weld, seq::reverse_complement(weld)) << "welds must be stored canonically";
  }
}

TEST(GffShared, ReverseComplementContigStillWelds) {
  // Contig B carries the shared region on the opposite strand; canonical
  // weld matching must still pair them.
  util::Rng rng(31);
  const std::string shared = random_dna(60, rng());
  std::vector<seq::Sequence> contigs{
      {"a", random_dna(80, rng()) + shared + random_dna(80, rng())},
      {"b", random_dna(80, rng()) + seq::reverse_complement(shared) + random_dna(80, rng())}};
  std::vector<seq::Sequence> reads;
  for (const auto& c : contigs) {
    const auto tiles = tile_reads(c.bases, 50, 4, c.name + "_");
    reads.insert(reads.end(), tiles.begin(), tiles.end());
  }
  const auto counter = make_counter(reads);
  const auto result = run_shared(contigs, counter, test_options());
  EXPECT_EQ(result.components.num_components(), 1u);
}

TEST(GffShared, ExtraPairsJoinClustering) {
  const auto s = build_scenario(0, 3, 37);
  const auto counter = make_counter(s.reads);
  const std::vector<ContigPair> scaffold{{0, 2}};
  const auto result = run_shared(s.contigs, counter, test_options(), scaffold);
  EXPECT_EQ(result.components.component_of[0], result.components.component_of[2]);
  EXPECT_EQ(result.components.num_components(), 2u);
}

TEST(GffShared, TimingFieldsPopulated) {
  const auto s = build_scenario(1, 1, 41);
  const auto counter = make_counter(s.reads);
  const auto result = run_shared(s.contigs, counter, test_options());
  EXPECT_EQ(result.timing.loop1.seconds.size(), 1u);
  EXPECT_EQ(result.timing.loop2.seconds.size(), 1u);
  EXPECT_GE(result.timing.total_seconds(), 0.0);
  // The non-parallel share (Figure 8) is a fraction of the total.
  const double serial = result.timing.setup_seconds + result.timing.finalize_seconds;
  EXPECT_GE(serial, 0.0);
  EXPECT_LE(serial, result.timing.total_seconds());
}

// --- hybrid equivalence --------------------------------------------------------------

class GffHybrid : public ::testing::TestWithParam<int> {};

TEST_P(GffHybrid, MatchesSharedMemoryRun) {
  const int nranks = GetParam();
  const auto s = build_scenario(3, 4, 43);
  const auto counter = make_counter(s.reads);
  const auto options = test_options();
  const auto expected = run_shared(s.contigs, counter, options);
  // The scenario is small enough that every chunk holds one contig.
  EXPECT_EQ(ChunkedRoundRobin::default_chunk_size(s.contigs.size(), nranks,
                                                  options.model_threads_per_rank),
            1u);

  simpi::run(nranks, [&](simpi::Context& ctx) {
    const auto result = run_hybrid(ctx, s.contigs, counter, options);
    // The pooled welds/pairs/components must be identical on every rank
    // and equal to the shared-memory result.
    EXPECT_EQ(result.welds, expected.welds);
    EXPECT_EQ(result.pairs, expected.pairs);
    EXPECT_EQ(result.components.component_of, expected.components.component_of);
    EXPECT_EQ(result.timing.loop1.seconds.size(), static_cast<std::size_t>(nranks));
    EXPECT_EQ(result.timing.loop2.seconds.size(), static_cast<std::size_t>(nranks));
    EXPECT_GE(result.timing.loop1.max(), result.timing.loop1.min());
    if (nranks > 1) {
      EXPECT_GT(result.timing.comm_seconds, 0.0);
    }
  });
}

TEST_P(GffHybrid, BlockDistributionGivesSameComponents) {
  const int nranks = GetParam();
  const auto s = build_scenario(2, 2, 47);
  const auto counter = make_counter(s.reads);
  auto options = test_options();
  const auto expected = run_shared(s.contigs, counter, options);
  options.distribution = Distribution::kBlock;
  simpi::run(nranks, [&](simpi::Context& ctx) {
    const auto result = run_hybrid(ctx, s.contigs, counter, options);
    EXPECT_EQ(result.components.component_of, expected.components.component_of);
  });
}

TEST_P(GffHybrid, OwnerShardingMatchesSharedMemoryRun) {
  const int nranks = GetParam();
  const auto s = build_scenario(3, 4, 43);
  const auto counter = make_counter(s.reads);
  auto options = test_options();
  const auto expected = run_shared(s.contigs, counter, options);
  options.sharding = ShardingStrategy::kOwner;
  int dsu_rounds = 0;
  const auto ranks = simpi::run(nranks, [&](simpi::Context& ctx) {
    const auto result = run_hybrid(ctx, s.contigs, counter, options);
    if (ctx.rank() == 0) dsu_rounds = result.timing.dsu_rounds;
    // Owner-computes keeps welds/pairs distributed (the result leaves them
    // empty) but the clustering must be byte-identical on every rank.
    EXPECT_EQ(result.components.component_of, expected.components.component_of);
    ASSERT_EQ(result.components.num_components(), expected.components.num_components());
    for (std::size_t c = 0; c < expected.components.components.size(); ++c) {
      EXPECT_EQ(result.components.components[c].contig_ids,
                expected.components.components[c].contig_ids);
    }
    EXPECT_TRUE(result.welds.empty());
    EXPECT_TRUE(result.pairs.empty());
  });
  // Welds are routed, never pooled: every rank's alltoallv row carries
  // them, the reduce row holds the union-find's reductions (one per round,
  // the fixed-point check, the verification) and the allgatherv row only
  // the timing record.
  for (const auto& r : ranks) {
    if (nranks > 1) {
      EXPECT_GT(r.comm.of(simpi::CommOp::kAlltoallv).bytes_sent, 0u) << "rank " << r.rank;
    }
    EXPECT_EQ(r.comm.of(simpi::CommOp::kReduce).calls,
              static_cast<std::uint64_t>(dsu_rounds) + 2) << "rank " << r.rank;
    EXPECT_EQ(r.comm.of(simpi::CommOp::kAllgatherv).calls, 1u) << "rank " << r.rank;
  }
}

TEST_P(GffHybrid, OwnerShardingWorksUnderDynamicDistribution) {
  const int nranks = GetParam();
  const auto s = build_scenario(2, 2, 47);
  const auto counter = make_counter(s.reads);
  auto options = test_options();
  const auto expected = run_shared(s.contigs, counter, options);
  // Owner-computes scans every contig in loop 2, so self-scheduled loop 1
  // must not change its components.
  options.distribution = Distribution::kDynamic;
  options.sharding = ShardingStrategy::kOwner;
  simpi::run(nranks, [&](simpi::Context& ctx) {
    const auto result = run_hybrid(ctx, s.contigs, counter, options);
    EXPECT_EQ(result.components.component_of, expected.components.component_of);
  });
}

TEST_P(GffHybrid, EveryStrategyAgreesWithScaffoldPairs) {
  const int nranks = GetParam();
  const auto s = build_scenario(2, 3, 53);
  const auto counter = make_counter(s.reads);
  // Join the last two loner contigs through an injected scaffold pair, as
  // the pipeline's scaffold stage does.
  const auto n = static_cast<std::int32_t>(s.contigs.size());
  const std::vector<ContigPair> scaffold = {{n - 2, n - 1}};
  const auto expected = run_shared(s.contigs, counter, test_options(), scaffold);
  for (const auto sharding : {ShardingStrategy::kPooled, ShardingStrategy::kOwner}) {
    auto options = test_options();
    options.sharding = sharding;
    simpi::run(nranks, [&](simpi::Context& ctx) {
      const auto result = run_hybrid(ctx, s.contigs, counter, options, scaffold);
      EXPECT_EQ(result.components.component_of, expected.components.component_of)
          << "sharding=" << to_string(sharding);
    });
  }
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, GffHybrid, ::testing::Values(1, 2, 3, 4, 6));

// --- OpenMP teams inside ranks -------------------------------------------------------

using TeamCase = std::tuple<Distribution, ShardingStrategy, int, int>;  // ranks, omp_threads

class GffTeams : public ::testing::TestWithParam<TeamCase> {};

TEST_P(GffTeams, MatchesSharedMemoryRun) {
  // A team larger than one runs chunk i while its master pulls chunk i+1 —
  // for kDynamic, claims it from the shared counter — so a rank may hold a
  // claimed chunk its team has not started. Components must not depend on
  // it. One contig per chunk gives every rank several chunks to pull.
  const auto [distribution, sharding, nranks, omp_threads] = GetParam();
  const auto s = build_scenario(6, 8, 67);
  const auto counter = make_counter(s.reads);
  const auto expected = run_shared(s.contigs, counter, test_options());
  auto options = test_options();
  options.distribution = distribution;
  options.sharding = sharding;
  options.omp_threads = omp_threads;
  ASSERT_EQ(ChunkedRoundRobin::default_chunk_size(s.contigs.size(), nranks,
                                                  options.model_threads_per_rank),
            1u);
  simpi::run(nranks, [&](simpi::Context& ctx) {
    const auto result = run_hybrid(ctx, s.contigs, counter, options);
    EXPECT_EQ(result.components.component_of, expected.components.component_of);
    if (sharding == ShardingStrategy::kPooled) {
      EXPECT_EQ(result.welds, expected.welds);
      EXPECT_EQ(result.pairs, expected.pairs);
    }
  });
}

const char* distribution_name(Distribution d) {
  switch (d) {
    case Distribution::kChunkedRoundRobin: return "crr";
    case Distribution::kBlock: return "block";
    case Distribution::kDynamic: return "dynamic";
  }
  return "?";
}

INSTANTIATE_TEST_SUITE_P(
    Cases, GffTeams,
    ::testing::Combine(::testing::Values(Distribution::kChunkedRoundRobin, Distribution::kBlock,
                                         Distribution::kDynamic),
                       ::testing::Values(ShardingStrategy::kPooled, ShardingStrategy::kOwner),
                       ::testing::Values(1, 2, 4), ::testing::Values(1, 3)),
    [](const ::testing::TestParamInfo<TeamCase>& info) {
      return std::string(distribution_name(std::get<0>(info.param))) + "_" +
             to_string(std::get<1>(info.param)) + "_r" + std::to_string(std::get<2>(info.param)) +
             "_t" + std::to_string(std::get<3>(info.param));
    });

TEST(GffTrace, EveryLoopSpanCarriesChunkAndItems) {
  // One span per chunk per OpenMP thread: summed over a loop's spans, the
  // items are the contigs it ran — each contig once in loop 1 and in pooled
  // loop 2, every contig on every rank in owner loop 2.
  constexpr int kRanks = 3;
  const auto s = build_scenario(4, 6, 83);
  const auto counter = make_counter(s.reads);
  const auto n = static_cast<double>(s.contigs.size());
  for (const auto distribution :
       {Distribution::kChunkedRoundRobin, Distribution::kBlock, Distribution::kDynamic}) {
    for (const auto sharding : {ShardingStrategy::kPooled, ShardingStrategy::kOwner}) {
      SCOPED_TRACE(std::string(distribution_name(distribution)) + " " + to_string(sharding));
      auto options = test_options();
      options.distribution = distribution;
      options.sharding = sharding;
      options.omp_threads = 2;
      trace::SpanRecorder recorder;
      {
        trace::ScopedRecording recording(&recorder);
        simpi::run(kRanks, [&](simpi::Context& ctx) {
          (void)run_hybrid(ctx, s.contigs, counter, options);
        });
      }
      std::map<std::string, double> items;
      for (const auto& ev : recorder.drain()) {
        if (ev.category != trace::kCatLoop) continue;
        std::map<std::string, double> args;
        for (const auto& arg : ev.args) args[arg.name] = arg.value;
        EXPECT_EQ(args.size(), 2u) << ev.name;
        EXPECT_EQ(args.count("chunk"), 1u) << ev.name;
        ASSERT_EQ(args.count("items"), 1u) << ev.name;
        EXPECT_GE(ev.rank, 0) << ev.name;
        items[ev.name] += args["items"];
      }
      EXPECT_EQ(items["gff.loop1"], n);
      EXPECT_EQ(items["gff.loop2"], sharding == ShardingStrategy::kOwner ? kRanks * n : n);
      EXPECT_EQ(items.size(), 2u);
    }
  }
}

// --- weld arrival-order independence ----------------------------------------------

TEST(GffDedup, DedupWeldsIsOrderIndependent) {
  // The pooled weld list arrives rank-concatenated, so its order depends on
  // the rank count; dedup_welds must erase that history. Permute a weld
  // multiset every which way and require the identical canonical list.
  std::vector<std::string> welds = {"ACGT", "TTTT", "ACGT", "AAAA",
                                    "CCGG", "TTTT", "ACGT"};
  const std::vector<std::string> want = {"AAAA", "ACGT", "CCGG", "TTTT"};
  std::sort(welds.begin(), welds.end());
  do {
    EXPECT_EQ(detail::dedup_welds(welds), want);
  } while (std::next_permutation(welds.begin(), welds.end()));
}

TEST(GffDedup, PermutedPooledArrivalOrderYieldsIdenticalWeldsAndPairs) {
  // End-to-end version of the same property: run the pooled hybrid at rank
  // counts that pool the same welds in different arrival orders and require
  // the exact weld list, pair list, and clustering of the 1-rank run.
  const auto s = build_scenario(3, 2, 61);
  const auto counter = make_counter(s.reads);
  const auto options = test_options();
  const auto expected = run_shared(s.contigs, counter, options);
  for (const int nranks : {1, 2, 3, 5}) {
    simpi::run(nranks, [&](simpi::Context& ctx) {
      const auto result = run_hybrid(ctx, s.contigs, counter, options);
      EXPECT_EQ(result.welds, expected.welds);
      EXPECT_EQ(result.pairs, expected.pairs);
      EXPECT_EQ(result.components.component_of, expected.components.component_of);
    });
  }
}

TEST(GffOwner, WeldOwnerIsDeterministicAndInRange) {
  util::Rng rng(99);
  for (const int nranks : {1, 2, 5, 8}) {
    for (int i = 0; i < 64; ++i) {
      const std::string weld = random_dna(40, rng());
      const int owner = detail::weld_owner(weld, kTestK, nranks);
      ASSERT_GE(owner, 0);
      ASSERT_LT(owner, nranks);
      EXPECT_EQ(owner, detail::weld_owner(weld, kTestK, nranks));
      // Strand symmetry: identical welds reach the same owner however the
      // contributing contig was oriented.
      EXPECT_EQ(owner, detail::weld_owner(seq::reverse_complement(weld), kTestK, nranks));
    }
  }
}

TEST(GffOwner, EveryCountedAlltoallvIsAFaultPoint) {
  // Owner mode routes welds with the same alltoallv the union-find uses,
  // so every entry counted on rank 1's alltoallv row, the last one
  // included, is a fault point, and the weld bytes are counted only there.
  constexpr int kRanks = 3;
  const auto s = build_scenario(6, 4, 61);
  const auto counter = make_counter(s.reads);
  auto options = test_options();
  options.sharding = ShardingStrategy::kOwner;
  const auto run_owner = [&](simpi::FaultPlan plan) {
    return simpi::run(
        kRanks,
        [&](simpi::Context& ctx) { (void)run_hybrid(ctx, s.contigs, counter, options); }, {},
        std::move(plan));
  };

  const auto ranks = run_owner({});
  for (const auto& r : ranks) {
    const std::uint64_t routed = r.comm.of(simpi::CommOp::kAlltoallv).bytes_sent;
    ASSERT_GT(routed, 0u) << "rank " << r.rank;
    // Every other row moves only small control payloads (the reductions
    // and the timing record). A row repeating the routed welds would carry
    // the parts sent to the two other ranks, about two thirds of them.
    std::uint64_t other = r.comm.total_bytes_sent();
    other -= r.comm.of(simpi::CommOp::kAlltoallv).bytes_sent;
    EXPECT_LT(other * 2, routed) << "rank " << r.rank << ": " << other << " other bytes";
  }

  const auto calls = ranks[1].comm.of(simpi::CommOp::kAlltoallv).calls;
  ASSERT_GE(calls, 2u);  // the weld routing plus the union-find's exchanges
  simpi::FaultPlan last_entry;
  last_entry.rank = 1;
  last_entry.op = simpi::CommOp::kAlltoallv;
  last_entry.at_entry = static_cast<int>(calls);
  EXPECT_THROW(run_owner(last_entry), simpi::RankFaultError);
}

TEST(GffOracle, ComponentsMatchBruteForceOverlapClustering) {
  // Independent oracle: two contigs belong together iff they share a
  // canonical (k-1)-mer whose weld window has full read support. Compute
  // that directly (no GraphFromFasta code) and compare the resulting
  // connected components against run_shared on a randomized scenario.
  const auto s = build_scenario(4, 5, 101);
  const auto counter = make_counter(s.reads);
  const auto options = test_options();
  const auto result = run_shared(s.contigs, counter, options);

  // Oracle edge test between contigs a and b.
  const seq::KmerCodec seed_codec(kTestK - 1);
  const seq::KmerCodec kmer_codec(kTestK);
  auto canonical_set = [&](const std::string& bases) {
    const auto codes = seed_codec.distinct_canonical(bases);
    return std::set<seq::KmerCode>(codes.begin(), codes.end());
  };
  std::vector<std::set<seq::KmerCode>> seeds;
  for (const auto& c : s.contigs) seeds.push_back(canonical_set(c.bases));

  auto weld_supported = [&](const seq::Sequence& contig, seq::KmerCode shared_seed) {
    // Find the seed's occurrences in this contig and check the clamped
    // window's k-mers against the read counts (same rule as the kernel).
    for (const auto& occ : seed_codec.extract(contig.bases)) {
      if (seed_codec.canonical(occ.code) != shared_seed) continue;
      const std::size_t flank = kTestK / 2;
      const std::size_t begin = occ.position > flank ? occ.position - flank : 0;
      const std::size_t end =
          std::min(contig.bases.size(), occ.position + (kTestK - 1) + flank);
      if (end - begin < static_cast<std::size_t>(kTestK)) continue;
      bool ok = true;
      for (const auto& w :
           kmer_codec.extract(std::string_view(contig.bases).substr(begin, end - begin))) {
        if (counter.count_of(kmer_codec.canonical(w.code)) < options.min_weld_support) {
          ok = false;
          break;
        }
      }
      if (ok) return true;
    }
    return false;
  };

  UnionFind oracle(s.contigs.size());
  for (std::size_t a = 0; a < s.contigs.size(); ++a) {
    for (std::size_t b = a + 1; b < s.contigs.size(); ++b) {
      for (const auto seed : seeds[a]) {
        if (!seeds[b].count(seed)) continue;
        if (weld_supported(s.contigs[a], seed) || weld_supported(s.contigs[b], seed)) {
          oracle.unite(static_cast<std::int32_t>(a), static_cast<std::int32_t>(b));
          break;
        }
      }
    }
  }

  // Same partition: representatives agree pairwise.
  for (std::size_t a = 0; a < s.contigs.size(); ++a) {
    for (std::size_t b = 0; b < s.contigs.size(); ++b) {
      const bool oracle_same = oracle.find(static_cast<std::int32_t>(a)) ==
                               oracle.find(static_cast<std::int32_t>(b));
      const bool gff_same = result.components.component_of[a] ==
                            result.components.component_of[b];
      EXPECT_EQ(gff_same, oracle_same) << "contigs " << a << " and " << b;
    }
  }
}

TEST(GffSetup, SharedOverlapKmersAreExactlyTheMultiplicityTwoCodes) {
  // Random contig sets with planted shares: the welded pairs' common
  // region, a reverse-complemented copy, a (k-1)-mer repeated inside one
  // contig (still one contig), and a run of N that hides windows.
  // shared_overlap_kmers must return exactly {code : contigs carrying it
  // >= 2}, with that count, and the weld harvest over it must equal the
  // harvest over the brute-force map.
  const seq::KmerCodec codec(kTestK - 1);
  for (const std::uint64_t seed : {3u, 17u, 29u}) {
    auto s = build_scenario(3, 4, seed);
    util::Rng rng(seed + 1000);
    const std::string repeat = random_dna(kTestK - 1, rng());
    s.contigs.push_back({"rc", seq::reverse_complement(s.contigs[0].bases.substr(20, 90))});
    s.contigs.push_back({"twice", repeat + random_dna(40, rng()) + repeat});
    s.contigs.push_back({"gapped", s.contigs[2].bases.substr(0, 70) + "NNNNN" + repeat});

    std::unordered_map<seq::KmerCode, std::uint32_t> multiplicity;
    for (const auto& contig : s.contigs) {
      std::set<seq::KmerCode> distinct;
      codec.for_each(contig.bases,
                     [&](const seq::KmerCodec::Window& w) { distinct.insert(w.canonical()); });
      for (const auto code : distinct) ++multiplicity[code];
    }
    kmer::FlatKmerIndex<std::uint32_t> expected;
    for (const auto& [code, n] : multiplicity) {
      if (n >= 2) expected[code] = n;
    }

    const auto shared = detail::shared_overlap_kmers(s.contigs, kTestK);
    ASSERT_EQ(shared.size(), expected.size()) << "seed " << seed;
    ASSERT_GT(shared.size(), 0u);
    for (const auto& [code, n] : expected) {
      const auto* got = shared.lookup(code);
      ASSERT_NE(got, nullptr) << "seed " << seed << " code " << code;
      EXPECT_EQ(*got, n) << "seed " << seed << " code " << code;
    }

    const auto counter = make_counter(s.reads);
    const auto options = test_options();
    std::size_t harvested = 0;
    for (const auto& contig : s.contigs) {
      std::vector<std::string> got;
      std::vector<std::string> want;
      detail::harvest_welds(contig, shared, counter, options, got);
      detail::harvest_welds(contig, expected, counter, options, want);
      EXPECT_EQ(got, want) << "seed " << seed << " contig " << contig.name;
      harvested += got.size();
    }
    EXPECT_GT(harvested, 0u) << "seed " << seed;
  }
}

TEST(GffSetup, SharedOverlapKmersOfNoContigsIsEmpty) {
  EXPECT_EQ(detail::shared_overlap_kmers({}, kTestK).size(), 0u);
  const std::vector<seq::Sequence> one{{"solo", random_dna(200, 8)}};
  EXPECT_EQ(detail::shared_overlap_kmers(one, kTestK).size(), 0u);
}

TEST(GffEdge, EmptyContigSetIsFine) {
  const std::vector<seq::Sequence> none;
  const auto counter = make_counter({});
  const auto result = run_shared(none, counter, test_options());
  EXPECT_EQ(result.components.num_components(), 0u);
  EXPECT_TRUE(result.welds.empty());
}

TEST(GffEdge, ContigShorterThanWeldIgnored) {
  std::vector<seq::Sequence> contigs{{"short", random_dna(kTestK - 1, 3)},
                                     {"other", random_dna(200, 4)}};
  const auto counter = make_counter(tile_reads(contigs[1].bases, 50, 4));
  const auto result = run_shared(contigs, counter, test_options());
  EXPECT_EQ(result.components.num_components(), 2u);
}

}  // namespace
}  // namespace trinity::chrysalis
