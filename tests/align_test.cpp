// Tests for the Bowtie substitute: placement correctness, mismatch budget,
// strand handling, SAM output and parsing, and the distributed
// split-targets driver against the serial oracle.

#include <gtest/gtest.h>

#include <fstream>

#include "align/aligner.hpp"
#include "align/mpi_bowtie.hpp"
#include "align/sam_io.hpp"
#include "io/error.hpp"
#include "seq/dna.hpp"
#include "seq/fasta.hpp"
#include "simpi/context.hpp"
#include "test_helpers.hpp"

namespace trinity::align {
namespace {

using trinity::testing::TempDir;
using trinity::testing::random_dna;

std::vector<seq::Sequence> make_contigs(std::size_t n, std::size_t len, std::uint64_t seed) {
  std::vector<seq::Sequence> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back({"contig" + std::to_string(i), random_dna(len, seed + i)});
  }
  return out;
}

/// align_all on a one-read batch: the aligner's single-read view.
SamRecord align_one(const SeedExtendAligner& aligner, seq::Sequence read) {
  return aligner.align_all({std::move(read)}).at(0);
}

TEST(AlignerTest, ExactReadPlacedAtTruePosition) {
  const auto contigs = make_contigs(5, 500, 100);
  const ContigIndex index(contigs, AlignerOptions{});
  const SeedExtendAligner aligner(index);

  const seq::Sequence read{"r", contigs[2].bases.substr(137, 80)};
  const auto rec = align_one(aligner, read);
  ASSERT_TRUE(rec.aligned());
  EXPECT_EQ(rec.target_name, "contig2");
  EXPECT_EQ(rec.pos, 137u);
  EXPECT_EQ(rec.mismatches, 0);
  EXPECT_FALSE(rec.reverse_strand);
}

TEST(AlignerTest, ReverseStrandReadDetected) {
  const auto contigs = make_contigs(3, 400, 200);
  const ContigIndex index(contigs, AlignerOptions{});
  const SeedExtendAligner aligner(index);

  const seq::Sequence read{"r",
                           seq::reverse_complement(contigs[1].bases.substr(50, 70))};
  const auto rec = align_one(aligner, read);
  ASSERT_TRUE(rec.aligned());
  EXPECT_EQ(rec.target_name, "contig1");
  EXPECT_EQ(rec.pos, 50u);
  EXPECT_TRUE(rec.reverse_strand);
  EXPECT_EQ(rec.mismatches, 0);
}

TEST(AlignerTest, MismatchesWithinBudgetCounted) {
  const auto contigs = make_contigs(1, 300, 300);
  AlignerOptions options;
  options.max_mismatches = 2;
  const ContigIndex index(contigs, options);
  const SeedExtendAligner aligner(index);

  std::string bases = contigs[0].bases.substr(100, 80);
  bases[40] = bases[40] == 'A' ? 'C' : 'A';  // middle; seeds at ends stay exact
  const auto rec = align_one(aligner, {"r", bases});
  ASSERT_TRUE(rec.aligned());
  EXPECT_EQ(rec.mismatches, 1);
  EXPECT_EQ(rec.pos, 100u);
}

TEST(AlignerTest, OverBudgetReadIsUnaligned) {
  const auto contigs = make_contigs(1, 300, 400);
  AlignerOptions options;
  options.max_mismatches = 1;
  const ContigIndex index(contigs, options);
  const SeedExtendAligner aligner(index);

  std::string bases = contigs[0].bases.substr(50, 90);
  // Three spread-out mismatches exceed the budget.
  for (const std::size_t p : {25u, 45u, 65u}) {
    bases[p] = bases[p] == 'A' ? 'C' : 'A';
  }
  const auto rec = align_one(aligner, {"r", bases});
  EXPECT_FALSE(rec.aligned());
}

TEST(AlignerTest, ForeignReadIsUnaligned) {
  const auto contigs = make_contigs(4, 400, 500);
  const ContigIndex index(contigs, AlignerOptions{});
  const SeedExtendAligner aligner(index);
  const auto rec = align_one(aligner, {"alien", random_dna(80, 999999)});
  EXPECT_FALSE(rec.aligned());
}

TEST(AlignerTest, ReadShorterThanSeedIsUnaligned) {
  const auto contigs = make_contigs(1, 200, 600);
  const ContigIndex index(contigs, AlignerOptions{});
  const SeedExtendAligner aligner(index);
  EXPECT_FALSE(align_one(aligner, {"tiny", "ACGT"}).aligned());
}

TEST(AlignerTest, AlignAllPreservesOrder) {
  const auto contigs = make_contigs(3, 500, 700);
  const ContigIndex index(contigs, AlignerOptions{});
  const SeedExtendAligner aligner(index);

  std::vector<seq::Sequence> reads;
  for (int i = 0; i < 50; ++i) {
    const auto c = static_cast<std::size_t>(i % 3);
    reads.push_back({"r" + std::to_string(i), contigs[c].bases.substr(
                                                  static_cast<std::size_t>(i) * 5, 60)});
  }
  const auto records = aligner.align_all(reads);
  ASSERT_EQ(records.size(), reads.size());
  for (std::size_t i = 0; i < reads.size(); ++i) {
    EXPECT_EQ(records[i].read_name, reads[i].name);
    ASSERT_TRUE(records[i].aligned());
    EXPECT_EQ(records[i].target_name, "contig" + std::to_string(i % 3));
  }
}

TEST(AlignerTest, RecordsBuiltAfterTheIndexIsFreedMatchAlignAll) {
  const auto contigs = make_contigs(3, 500, 700);
  std::vector<seq::Sequence> reads;
  for (int i = 0; i < 60; ++i) {
    std::string bases = contigs[static_cast<std::size_t>(i % 3)].bases.substr(
        static_cast<std::size_t>(i) * 7, 50);
    if (i % 4 == 1) bases = seq::reverse_complement(bases);
    if (i % 5 == 2) bases = std::string(50, 'N');  // unaligned
    reads.push_back({"r" + std::to_string(i), std::move(bases)});
  }
  std::vector<Placement> placements;
  {
    const ContigIndex index(contigs, AlignerOptions{});
    placements = SeedExtendAligner(index).place_reads(reads);
  }
  const auto records = sam_records(reads, placements, contigs);

  const ContigIndex index(contigs, AlignerOptions{});
  const auto expected = SeedExtendAligner(index).align_all(reads);
  ASSERT_EQ(records.size(), expected.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    SCOPED_TRACE(reads[i].name);
    EXPECT_EQ(records[i].read_name, expected[i].read_name);
    EXPECT_EQ(records[i].target_id, expected[i].target_id);
    EXPECT_EQ(records[i].target_name, expected[i].target_name);
    EXPECT_EQ(records[i].pos, expected[i].pos);
    EXPECT_EQ(records[i].reverse_strand, expected[i].reverse_strand);
    EXPECT_EQ(records[i].mismatches, expected[i].mismatches);
    EXPECT_EQ(records[i].read_length, expected[i].read_length);
  }
  EXPECT_FALSE(records[2].aligned());
  EXPECT_TRUE(records[1].aligned() && records[1].reverse_strand);
}

TEST(AlignerTest, HyperRepetitiveSeedsSuppressed) {
  // A poly-A contig makes one seed with hundreds of hits; the index must
  // suppress it rather than explode.
  std::vector<seq::Sequence> contigs{{"polyA", std::string(500, 'A')}};
  AlignerOptions options;
  options.max_hits_per_seed = 10;
  const ContigIndex index(contigs, options);
  const seq::KmerCodec codec(options.seed_length);
  const auto code = codec.encode(std::string(16, 'A'));
  ASSERT_TRUE(code.has_value());
  EXPECT_TRUE(index.lookup(*code).empty());
}

TEST(SamTest, WriteContainsHeaderAndRecords) {
  const TempDir dir("sam");
  const auto contigs = make_contigs(2, 300, 800);
  const ContigIndex index(contigs, AlignerOptions{});
  const SeedExtendAligner aligner(index);
  std::vector<seq::Sequence> reads{{"good", contigs[0].bases.substr(10, 60)},
                                   {"bad", random_dna(60, 54321)}};
  const auto records = aligner.align_all(reads);
  write_sam(dir.file("out.sam"), records, contigs);

  std::ifstream in(dir.file("out.sam"));
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("@HD"), std::string::npos);
  EXPECT_NE(text.find("@SQ\tSN:contig0\tLN:300"), std::string::npos);
  EXPECT_NE(text.find("good\t0\tcontig0\t11\t"), std::string::npos);  // 1-based pos
  EXPECT_NE(text.find("bad\t4\t*"), std::string::npos);               // unmapped flag
}

TEST(SamIoTest, RoundTripsThroughWriteSam) {
  const TempDir dir("samio");
  const auto contigs = make_contigs(3, 400, 50);
  const ContigIndex index(contigs, AlignerOptions{});
  const SeedExtendAligner aligner(index);

  std::vector<seq::Sequence> reads{
      {"hit1", contigs[0].bases.substr(10, 70)},
      {"hit2", seq::reverse_complement(contigs[2].bases.substr(100, 70))},
      {"miss", random_dna(70, 777)}};
  const auto records = aligner.align_all(reads);
  write_sam(dir.file("x.sam"), records, contigs);

  const auto parsed = read_sam(dir.file("x.sam"));
  ASSERT_EQ(parsed.references.size(), 3u);
  EXPECT_EQ(parsed.references[1].name, "contig1");
  ASSERT_EQ(parsed.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(parsed.records[i].read_name, records[i].read_name);
    EXPECT_EQ(parsed.records[i].aligned(), records[i].aligned());
    if (!records[i].aligned()) continue;
    EXPECT_EQ(parsed.records[i].target_name, records[i].target_name);
    EXPECT_EQ(parsed.records[i].pos, records[i].pos);
    EXPECT_EQ(parsed.records[i].reverse_strand, records[i].reverse_strand);
    EXPECT_EQ(parsed.records[i].mismatches, records[i].mismatches);
    EXPECT_EQ(parsed.records[i].read_length, records[i].read_length);
  }
}

TEST(SamIoTest, UnknownReferenceThrows) {
  const TempDir dir("sambad");
  std::ofstream(dir.file("bad.sam"))
      << "@HD\tVN:1.6\n@SQ\tSN:known\tLN:100\nr1\t0\tmystery\t1\t255\t50M\t*\t0\t0\t*\t*\n";
  EXPECT_THROW(read_sam(dir.file("bad.sam")), std::runtime_error);
}

TEST(SamIoTest, AlignmentBeyondReferenceEndThrows) {
  const TempDir dir("samlong");
  std::ofstream(dir.file("bad.sam"))
      << "@SQ\tSN:c\tLN:60\nr1\t0\tc\t40\t255\t50M\t*\t0\t0\t*\t*\n";
  EXPECT_THROW(read_sam(dir.file("bad.sam")), std::runtime_error);
}

TEST(SamIoTest, MalformedRowThrows) {
  const TempDir dir("samrow");
  std::ofstream(dir.file("bad.sam")) << "@SQ\tSN:c\tLN:60\nr1\tnot_a_flag\n";
  EXPECT_THROW(read_sam(dir.file("bad.sam")), io::ParseError);
  // Each of these used to escape as a bare std::invalid_argument from
  // stoul/stoi, or (POS 0) wrap pos - 1 around.
  const std::string header = "@SQ\tSN:c\tLN:60\n";
  const std::vector<std::pair<std::string, std::size_t>> cases = {
      {"@SQ\tSN:c\tLN:abc\n", 1},
      {header + "r1\tx\tc\t1\t255\t50M\n", 2},
      {header + "r1\t0\tc\tabc\t255\t50M\n", 2},
      {header + "r1\t0\tc\t0\t255\t50M\n", 2},
      {header + "r1\t0\tc\t1\t255\txM\n", 2},
      {header + "r1\t0\tc\t1\t255\t50M\t*\t0\t0\t*\t*\tNM:i:z\n", 2},
  };
  for (const auto& [text, line] : cases) {
    std::ofstream(dir.file("bad.sam")) << text;
    try {
      (void)read_sam(dir.file("bad.sam"));
      ADD_FAILURE() << "accepted: " << text;
    } catch (const io::ParseError& e) {
      EXPECT_EQ(e.category(), io::ParseCategory::kInvalidCharacter) << e.what();
      EXPECT_EQ(e.path(), dir.file("bad.sam"));
      EXPECT_EQ(e.line(), line) << e.what();
      EXPECT_EQ(e.byte_offset(), line == 1 ? 0u : header.size()) << e.what();
    }
  }
}

TEST(SamIoTest, MissingFileThrows) {
  EXPECT_THROW(read_sam("/no/such/file.sam"), std::runtime_error);
}

// --- distributed driver ------------------------------------------------------------

class DistributedBowtie : public ::testing::TestWithParam<int> {};

TEST_P(DistributedBowtie, MatchesSerialBestHits) {
  const int nranks = GetParam();
  const auto contigs = make_contigs(12, 400, 1000);
  std::vector<seq::Sequence> reads;
  util::Rng rng(5);
  for (int i = 0; i < 120; ++i) {
    const auto c = rng.uniform_below(contigs.size());
    const auto pos = rng.uniform_below(contigs[c].bases.size() - 80);
    reads.push_back({"r" + std::to_string(i), contigs[c].bases.substr(pos, 80)});
  }
  // Reverse-strand reads, and a few unalignable ones for the unmapped path.
  for (int i = 0; i < 30; ++i) {
    reads.push_back({"rc" + std::to_string(i), seq::reverse_complement(reads[i].bases)});
  }
  reads.push_back({"alien1", random_dna(80, 777)});
  reads.push_back({"alien2", random_dna(80, 778)});

  const AlignerOptions options;
  const ContigIndex index(contigs, options);
  const SeedExtendAligner serial(index);
  const auto expected = serial.align_all(reads);

  // Both splits: the paper's (slice the contigs, merge best hits) and the
  // read split. Either way rank 0's merge must be the serial result.
  for (const BowtieSplit split : {BowtieSplit::kTargets, BowtieSplit::kReads}) {
    SCOPED_TRACE(split == BowtieSplit::kTargets ? "targets" : "reads");
    std::vector<SamRecord> distributed;
    DistributedBowtieTiming timing;
    simpi::run(nranks, [&](simpi::Context& ctx) {
      auto result = distributed_bowtie(ctx, contigs, reads, options, split);
      if (ctx.rank() == 0) {
        distributed = std::move(result.records);
        timing = result.timing;
      }
    });

    ASSERT_EQ(distributed.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(distributed[i].read_name, expected[i].read_name) << "read " << i;
      EXPECT_EQ(distributed[i].read_length, expected[i].read_length) << "read " << i;
      EXPECT_EQ(distributed[i].aligned(), expected[i].aligned()) << "read " << i;
      if (!expected[i].aligned()) continue;
      EXPECT_EQ(distributed[i].target_id, expected[i].target_id) << "read " << i;
      EXPECT_EQ(distributed[i].target_name, expected[i].target_name) << "read " << i;
      EXPECT_EQ(distributed[i].pos, expected[i].pos) << "read " << i;
      EXPECT_EQ(distributed[i].reverse_strand, expected[i].reverse_strand) << "read " << i;
      EXPECT_EQ(distributed[i].mismatches, expected[i].mismatches) << "read " << i;
    }
    EXPECT_GE(timing.align_seconds_max, timing.align_seconds_min);
    EXPECT_GE(timing.total_seconds(), timing.align_seconds_max);
  }
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, DistributedBowtie, ::testing::Values(1, 2, 3, 4, 6));

}  // namespace
}  // namespace trinity::align
