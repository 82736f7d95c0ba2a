// Tests for the PyFasta substitute: coverage, balance, and file splitting.

#include <gtest/gtest.h>

#include <numeric>

#include "fasplit/fasplit.hpp"
#include "seq/fasta.hpp"
#include "test_helpers.hpp"

namespace trinity::fasplit {
namespace {

using trinity::testing::TempDir;
using trinity::testing::random_dna;

std::vector<seq::Sequence> varied_contigs(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<seq::Sequence> out;
  for (std::size_t i = 0; i < n; ++i) {
    // Wide length variation, like Inchworm contigs (tens to thousands).
    const auto len = static_cast<std::size_t>(50 + rng.uniform_below(2000));
    out.push_back({"c" + std::to_string(i), random_dna(len, seed + i)});
  }
  return out;
}

class FasplitParts : public ::testing::TestWithParam<int> {};

TEST_P(FasplitParts, EverySequenceAssignedExactlyOnce) {
  const int parts = GetParam();
  const auto seqs = varied_contigs(57, 3);
  const auto partition = partition_balanced(seqs, parts);
  ASSERT_EQ(partition.part_of.size(), seqs.size());
  std::size_t total = 0;
  for (int p = 0; p < parts; ++p) {
    total += extract_part(seqs, partition, p).size();
  }
  EXPECT_EQ(total, seqs.size());
  for (const int p : partition.part_of) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, parts);
  }
}

TEST_P(FasplitParts, PartBasesAccountsAllBases) {
  const int parts = GetParam();
  const auto seqs = varied_contigs(40, 5);
  const auto partition = partition_balanced(seqs, parts);
  const std::size_t total = std::accumulate(partition.part_bases.begin(),
                                            partition.part_bases.end(), std::size_t{0});
  EXPECT_EQ(total, seq::total_bases(seqs));
}

TEST_P(FasplitParts, LptBoundHolds) {
  // Longest-processing-time guarantees max <= mean + longest item.
  const int parts = GetParam();
  const auto seqs = varied_contigs(80, 7);
  const auto partition = partition_balanced(seqs, parts);
  std::size_t longest = 0;
  for (const auto& s : seqs) longest = std::max(longest, s.bases.size());
  const double mean = static_cast<double>(seq::total_bases(seqs)) / parts;
  const std::size_t max_part =
      *std::max_element(partition.part_bases.begin(), partition.part_bases.end());
  EXPECT_LE(static_cast<double>(max_part), mean + static_cast<double>(longest) + 1.0);
}

INSTANTIATE_TEST_SUITE_P(PartCounts, FasplitParts, ::testing::Values(1, 2, 3, 5, 8, 16));

TEST(FasplitTest, SinglePartIsIdentity) {
  const auto seqs = varied_contigs(10, 9);
  const auto partition = partition_balanced(seqs, 1);
  const auto part = extract_part(seqs, partition, 0);
  ASSERT_EQ(part.size(), seqs.size());
  for (std::size_t i = 0; i < seqs.size(); ++i) EXPECT_EQ(part[i].name, seqs[i].name);
}

TEST(FasplitTest, MorePartsThanSequences) {
  const auto seqs = varied_contigs(3, 11);
  const auto partition = partition_balanced(seqs, 8);
  std::size_t nonempty = 0;
  for (int p = 0; p < 8; ++p) {
    if (!extract_part(seqs, partition, p).empty()) ++nonempty;
  }
  EXPECT_EQ(nonempty, 3u);
}

TEST(FasplitTest, RejectsZeroParts) {
  EXPECT_THROW(partition_balanced({}, 0), std::invalid_argument);
}

TEST(FasplitTest, EmptyInputOk) {
  const auto partition = partition_balanced({}, 4);
  EXPECT_EQ(partition.part_bases, std::vector<std::size_t>(4, 0));
}

TEST(FasplitTest, DeterministicAcrossCalls) {
  const auto seqs = varied_contigs(30, 13);
  const auto a = partition_balanced(seqs, 4);
  const auto b = partition_balanced(seqs, 4);
  EXPECT_EQ(a.part_of, b.part_of);
}

TEST(FasplitTest, SplitFastaFileWritesAllParts) {
  const TempDir dir("split");
  const auto seqs = varied_contigs(23, 17);
  seq::write_fasta(dir.file("in.fa"), seqs);
  const auto paths = split_fasta_file(dir.file("in.fa"), dir.file("part"), 4);
  ASSERT_EQ(paths.size(), 4u);
  std::size_t total = 0;
  std::size_t bases = 0;
  for (const auto& p : paths) {
    const auto part = seq::read_all(p);
    total += part.size();
    bases += seq::total_bases(part);
  }
  EXPECT_EQ(total, seqs.size());
  EXPECT_EQ(bases, seq::total_bases(seqs));
}

TEST(FasplitTest, MissingInputFileThrows) {
  const TempDir dir("badsplit");
  EXPECT_THROW(split_fasta_file("/no/such/input.fa", dir.file("part"), 2),
               std::runtime_error);
}

}  // namespace
}  // namespace trinity::fasplit
