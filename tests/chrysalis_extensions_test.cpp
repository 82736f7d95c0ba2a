// Tests for the future-work extensions of Chrysalis: dynamic
// (self-scheduled) distribution and the read-split Bowtie mode.

#include <gtest/gtest.h>

#include "align/mpi_bowtie.hpp"
#include "chrysalis/graph_from_fasta.hpp"
#include "kmer/counter.hpp"
#include "seq/fasta.hpp"
#include "simpi/context.hpp"
#include "test_helpers.hpp"

namespace trinity::chrysalis {
namespace {

using trinity::testing::random_dna;
using trinity::testing::tile_reads;

constexpr int kTestK = 15;

struct Scenario {
  std::vector<seq::Sequence> contigs;
  std::vector<seq::Sequence> reads;
};

Scenario build_scenario(std::size_t n_pairs, std::size_t n_single, std::uint64_t seed) {
  Scenario s;
  util::Rng rng(seed);
  auto add_reads = [&](const std::string& source) {
    auto reads = tile_reads(source, 50, 4, "r" + std::to_string(s.reads.size()) + "_");
    s.reads.insert(s.reads.end(), reads.begin(), reads.end());
  };
  for (std::size_t p = 0; p < n_pairs; ++p) {
    const std::string shared = random_dna(60, rng());
    seq::Sequence a{"a" + std::to_string(p),
                    random_dna(80, rng()) + shared + random_dna(80, rng())};
    seq::Sequence b{"b" + std::to_string(p),
                    random_dna(80, rng()) + shared + random_dna(80, rng())};
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

/// Pooled sharding: the paper's scheme fills GffResult::welds and pairs,
/// which these tests compare against the shared-memory run.
GraphFromFastaOptions gff_options() {
  GraphFromFastaOptions o;
  o.k = kTestK;
  o.model_threads_per_rank = 4;
  o.sharding = ShardingStrategy::kPooled;
  return o;
}

// --- dynamic distribution ----------------------------------------------------------

class GffDynamic : public ::testing::TestWithParam<int> {};

TEST_P(GffDynamic, MatchesSharedMemoryRun) {
  const int nranks = GetParam();
  const auto s = build_scenario(3, 4, 71);
  const auto counter = make_counter(s.reads);
  const auto expected = run_shared(s.contigs, counter, gff_options());

  auto options = gff_options();
  options.distribution = Distribution::kDynamic;
  simpi::run(nranks, [&](simpi::Context& ctx) {
    const auto result = run_hybrid(ctx, s.contigs, counter, options);
    EXPECT_EQ(result.welds, expected.welds);
    EXPECT_EQ(result.pairs, expected.pairs);
    EXPECT_EQ(result.components.component_of, expected.components.component_of);
    EXPECT_EQ(result.timing.loop1.seconds.size(), static_cast<std::size_t>(nranks));
  });
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, GffDynamic, ::testing::Values(1, 2, 3, 4, 6));

TEST(GffDynamic2, RepeatedRunsInOneWorldAreConsistent) {
  // The dynamic counters must reset correctly between run_hybrid calls in
  // the same world.
  const auto s = build_scenario(2, 2, 73);
  const auto counter = make_counter(s.reads);
  const auto expected = run_shared(s.contigs, counter, gff_options());
  auto options = gff_options();
  options.distribution = Distribution::kDynamic;
  simpi::run(3, [&](simpi::Context& ctx) {
    for (int round = 0; round < 3; ++round) {
      const auto result = run_hybrid(ctx, s.contigs, counter, options);
      EXPECT_EQ(result.components.component_of, expected.components.component_of)
          << "round " << round;
    }
  });
}

TEST(GffDynamic2, ChargesRmaCommunication) {
  const auto s = build_scenario(1, 2, 79);
  const auto counter = make_counter(s.reads);
  auto options = gff_options();
  options.distribution = Distribution::kDynamic;
  // One contig per chunk: many claims, so the RMA cost is visible.
  EXPECT_EQ(ChunkedRoundRobin::default_chunk_size(s.contigs.size(), 2,
                                                  options.model_threads_per_rank),
            1u);
  simpi::run(2, [&](simpi::Context& ctx) {
    const auto result = run_hybrid(ctx, s.contigs, counter, options);
    EXPECT_GT(result.timing.comm_seconds, 0.0);
  });
}

}  // namespace
}  // namespace trinity::chrysalis

// --- read-split Bowtie -------------------------------------------------------------------

namespace trinity::align {
namespace {

using trinity::testing::random_dna;

class BowtieReadSplit : public ::testing::TestWithParam<int> {};

TEST_P(BowtieReadSplit, MatchesSerialAligner) {
  const int nranks = GetParam();
  util::Rng rng(7);
  std::vector<seq::Sequence> contigs;
  for (int i = 0; i < 10; ++i) {
    contigs.push_back({"contig" + std::to_string(i), random_dna(400, rng())});
  }
  std::vector<seq::Sequence> reads;
  for (int i = 0; i < 90; ++i) {
    const auto c = rng.uniform_below(contigs.size());
    const auto pos = rng.uniform_below(contigs[c].bases.size() - 80);
    reads.push_back({"r" + std::to_string(i), contigs[c].bases.substr(pos, 80)});
  }
  reads.push_back({"alien", random_dna(80, 424242)});

  const AlignerOptions options;
  const ContigIndex index(contigs, options);
  const SeedExtendAligner serial(index);
  const auto expected = serial.align_all(reads);

  simpi::run(nranks, [&](simpi::Context& ctx) {
    const auto result =
        distributed_bowtie(ctx, contigs, reads, options, BowtieSplit::kReads);
    if (ctx.rank() != 0) return;
    ASSERT_EQ(result.records.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(result.records[i].aligned(), expected[i].aligned()) << "read " << i;
      if (!expected[i].aligned()) continue;
      EXPECT_EQ(result.records[i].target_name, expected[i].target_name) << "read " << i;
      EXPECT_EQ(result.records[i].pos, expected[i].pos) << "read " << i;
      EXPECT_EQ(result.records[i].mismatches, expected[i].mismatches) << "read " << i;
    }
    // No serial split phase in read-split mode.
    EXPECT_EQ(result.timing.split_seconds, 0.0);
  });
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, BowtieReadSplit, ::testing::Values(1, 2, 3, 5));

}  // namespace
}  // namespace trinity::align
