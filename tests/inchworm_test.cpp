// Tests for the Inchworm greedy assembler: reconstruction of known
// sequences, error-k-mer pruning, the Figure-1 extension rule, and the
// modeled run-to-run nondeterminism.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>

#include "inchworm/inchworm.hpp"
#include "seq/dna.hpp"
#include "test_helpers.hpp"

namespace trinity::inchworm {
namespace {

using trinity::testing::random_dna;
using trinity::testing::tile_reads;

InchwormOptions small_opts(int k = 15) {
  InchwormOptions o;
  o.k = k;
  o.min_kmer_count = 1;
  o.min_contig_length = static_cast<std::size_t>(k);
  return o;
}

/// Canonical k-mer counts of `reads`, as the Jellyfish stage dumps them.
std::vector<kmer::KmerCount> count_kmers(const std::vector<seq::Sequence>& reads, int k = 15) {
  kmer::CounterOptions copt;
  copt.k = k;
  copt.canonical = true;
  kmer::KmerCounter counter(copt);
  counter.add_sequences(reads);
  return counter.dump();
}

/// True when `needle` equals `hay` on either strand.
bool matches_either_strand(const std::string& needle, const std::string& hay) {
  return needle == hay || needle == seq::reverse_complement(hay);
}

TEST(InchwormTest, ReconstructsSingleTranscriptFromPerfectReads) {
  const std::string transcript = random_dna(500, 42);
  const auto reads = tile_reads(transcript, 60, 10);

  Inchworm assembler(small_opts());
  assembler.load_counts(count_kmers(reads));
  const auto contigs = assembler.assemble();

  ASSERT_EQ(contigs.size(), 1u);
  EXPECT_TRUE(matches_either_strand(contigs[0].bases, transcript))
      << "greedy extension over unambiguous coverage must recover the transcript";
}

TEST(InchwormTest, ReconstructsMultipleDisjointTranscripts) {
  const std::string t1 = random_dna(400, 1);
  const std::string t2 = random_dna(400, 2);
  auto reads = tile_reads(t1, 60, 10, "a");
  const auto more = tile_reads(t2, 60, 10, "b");
  reads.insert(reads.end(), more.begin(), more.end());

  Inchworm assembler(small_opts());
  assembler.load_counts(count_kmers(reads));
  const auto contigs = assembler.assemble();

  ASSERT_EQ(contigs.size(), 2u);
  const bool found1 = std::any_of(contigs.begin(), contigs.end(), [&](const auto& c) {
    return matches_either_strand(c.bases, t1);
  });
  const bool found2 = std::any_of(contigs.begin(), contigs.end(), [&](const auto& c) {
    return matches_either_strand(c.bases, t2);
  });
  EXPECT_TRUE(found1);
  EXPECT_TRUE(found2);
}

TEST(InchwormTest, ErrorKmersArePruned) {
  const std::string transcript = random_dna(300, 5);
  auto reads = tile_reads(transcript, 60, 5);
  // One read with a single error in the middle: its error k-mers appear
  // once while true k-mers appear many times.
  seq::Sequence bad = reads[3];
  bad.bases[30] = bad.bases[30] == 'A' ? 'C' : 'A';
  reads.push_back(bad);

  auto options = small_opts();
  options.min_kmer_count = 2;  // prune singletons
  Inchworm assembler(options);
  assembler.load_counts(count_kmers(reads, options.k));
  const auto contigs = assembler.assemble();

  ASSERT_GE(contigs.size(), 1u);
  // Terminal k-mers covered by only one tiled read are pruned along with
  // the error k-mers, so the contig may be trimmed by up to the tiling
  // stride at each end — but its body must match the transcript exactly.
  std::string contig = contigs[0].bases;
  if (transcript.find(contig) == std::string::npos) {
    contig = seq::reverse_complement(contig);
  }
  EXPECT_NE(transcript.find(contig), std::string::npos)
      << "error k-mers must not divert the greedy extension";
  EXPECT_GE(contig.size() + 12, transcript.size());
}

TEST(InchwormTest, GreedyPrefersMostAbundantExtension) {
  // Two sequences share a (k-1) prefix context and then diverge; the branch
  // seen in more reads must be chosen at the fork (paper Figure 1).
  const int k = 7;
  const std::string common = random_dna(24, 77);
  const std::string high_branch = random_dna(20, 78);
  const std::string low_branch = random_dna(20, 79);

  std::vector<seq::Sequence> reads;
  for (int i = 0; i < 10; ++i) reads.push_back({"h" + std::to_string(i), common + high_branch});
  reads.push_back({"l", common + low_branch});

  auto options = small_opts(k);
  Inchworm assembler(options);
  assembler.load_counts(count_kmers(reads, options.k));
  const auto contigs = assembler.assemble();

  ASSERT_GE(contigs.size(), 1u);
  // The first (most abundant seed) contig must follow the high branch.
  const std::string marker = high_branch.substr(0, 10);
  const bool has_high =
      contigs[0].bases.find(marker) != std::string::npos ||
      seq::reverse_complement(contigs[0].bases).find(marker) != std::string::npos;
  EXPECT_TRUE(has_high);
}

TEST(InchwormTest, MinContigLengthFilters) {
  auto options = small_opts(15);
  options.min_contig_length = 1000;
  Inchworm assembler(options);
  assembler.load_counts(count_kmers(tile_reads(random_dna(300, 8), 60, 10)));
  EXPECT_TRUE(assembler.assemble().empty());
  EXPECT_GT(assembler.stats().contigs_discarded, 0u);
}

TEST(InchwormTest, StatsAreConsistent) {
  Inchworm assembler(small_opts());
  assembler.load_counts(count_kmers(tile_reads(random_dna(400, 9), 60, 10)));
  const auto contigs = assembler.assemble();
  const auto& stats = assembler.stats();
  EXPECT_EQ(stats.contigs_reported, contigs.size());
  std::size_t bases = 0;
  for (const auto& c : contigs) bases += c.bases.size();
  EXPECT_EQ(stats.bases_assembled, bases);
  EXPECT_GT(stats.dictionary_size, 0u);
}

TEST(InchwormTest, HandlesCyclicRepeatWithoutHanging) {
  // A perfect tandem repeat creates a cycle in k-mer space; extension must
  // terminate by consuming each k-mer once.
  const std::string unit = "ACGTGTCA";
  std::string repeat;
  for (int i = 0; i < 20; ++i) repeat += unit;
  Inchworm assembler(small_opts(7));
  assembler.load_counts(count_kmers(tile_reads(repeat, 40, 4), 7));
  const auto contigs = assembler.assemble();
  EXPECT_FALSE(contigs.empty());
}

TEST(InchwormTest, DeterministicWithoutTieSeed) {
  const auto reads = tile_reads(random_dna(600, 11), 60, 7);
  Inchworm a(small_opts());
  a.load_counts(count_kmers(reads));
  Inchworm b(small_opts());
  b.load_counts(count_kmers(reads));
  const auto ca = a.assemble();
  const auto cb = b.assemble();
  ASSERT_EQ(ca.size(), cb.size());
  for (std::size_t i = 0; i < ca.size(); ++i) EXPECT_EQ(ca[i].bases, cb[i].bases);
}

TEST(InchwormTest, TieSeedModelsRunToRunVariation) {
  // With many equally-abundant k-mers, different salts permute the seed
  // order. The output sets may differ slightly — the property the paper's
  // Section IV is designed around — but total assembled bases stay close.
  std::vector<seq::Sequence> reads;
  for (int t = 0; t < 8; ++t) {
    const auto tiles =
        tile_reads(random_dna(300, static_cast<std::uint64_t>(100 + t)), 60, 10,
                   "t" + std::to_string(t) + "_");
    reads.insert(reads.end(), tiles.begin(), tiles.end());
  }
  auto o1 = small_opts();
  o1.tie_break_seed = 1;
  auto o2 = small_opts();
  o2.tie_break_seed = 2;
  Inchworm a(o1);
  a.load_counts(count_kmers(reads));
  Inchworm b(o2);
  b.load_counts(count_kmers(reads));
  const auto ca = a.assemble();
  const auto cb = b.assemble();
  const double bases_a = static_cast<double>(a.stats().bases_assembled);
  const double bases_b = static_cast<double>(b.stats().bases_assembled);
  EXPECT_NEAR(bases_a / bases_b, 1.0, 0.1);
  EXPECT_FALSE(ca.empty());
  EXPECT_FALSE(cb.empty());
}

TEST(InchwormTest, ContigsNeverReuseAKmer) {
  // Inchworm consumes each canonical k-mer at most once — the invariant
  // GraphFromFasta's (k-1)-overlap welding relies on.
  std::vector<seq::Sequence> reads;
  for (int t = 0; t < 6; ++t) {
    const auto tiles = tile_reads(random_dna(400, static_cast<std::uint64_t>(300 + t)), 60, 8,
                                  "s" + std::to_string(t) + "_");
    reads.insert(reads.end(), tiles.begin(), tiles.end());
  }
  const int k = 15;
  Inchworm assembler(small_opts(k));
  assembler.load_counts(count_kmers(reads, k));
  const auto contigs = assembler.assemble();

  const seq::KmerCodec codec(k);
  std::set<seq::KmerCode> used;
  for (const auto& contig : contigs) {
    codec.for_each(contig.bases, [&](const seq::KmerCodec::Window& w) {
      EXPECT_TRUE(used.insert(w.canonical()).second)
          << "canonical k-mer appears in two contigs (or twice in one)";
    });
  }
}

TEST(InchwormTest, EmptyInputYieldsNothing) {
  Inchworm assembler(small_opts());
  assembler.load_counts(count_kmers({}));
  EXPECT_TRUE(assembler.assemble().empty());
}

TEST(InchwormTest, LoadCountsMergesDuplicates) {
  // Feeding the same canonical code twice accumulates.
  const seq::KmerCodec codec(15);
  const auto code = codec.canonical(*codec.encode(random_dna(15, 3)));
  Inchworm assembler(small_opts());
  assembler.load_counts({{code, 2}, {code, 3}});
  const auto contigs = assembler.assemble();
  ASSERT_EQ(contigs.size(), 1u);
  EXPECT_EQ(contigs[0].bases.size(), 15u);
}

TEST(InchwormTest, CountsUpTo31BitsLoadAndAReachingCountThrows) {
  // The dictionary keeps the used flag in a count word's top bit.
  const seq::KmerCodec codec(15);
  const auto code = codec.canonical(*codec.encode(random_dna(15, 5)));
  constexpr std::uint32_t kMax = (std::uint32_t{1} << 31) - 1;
  Inchworm largest(small_opts());
  largest.load_counts({{code, kMax}});
  const auto contigs = largest.assemble();  // a seed, not a used k-mer
  ASSERT_EQ(contigs.size(), 1u);
  EXPECT_EQ(contigs[0].bases.size(), 15u);

  Inchworm summed(small_opts());
  EXPECT_THROW(summed.load_counts({{code, kMax}, {code, 1}}), std::overflow_error);
  Inchworm single(small_opts());
  EXPECT_THROW(single.load_counts({{code, kMax + 1}}), std::overflow_error);
}

}  // namespace
}  // namespace trinity::inchworm
