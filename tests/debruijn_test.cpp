// Tests for the per-component de Bruijn graphs (FastaToDebruijn +
// QuantifyGraph).

#include <gtest/gtest.h>

#include "chrysalis/debruijn.hpp"
#include "seq/dna.hpp"
#include "test_helpers.hpp"

namespace trinity::chrysalis {
namespace {

using trinity::testing::random_dna;

constexpr int kTestK = 8;

TEST(DeBruijnTest, LinearContigMakesChain) {
  const std::string bases = random_dna(100, 1);
  const DeBruijnGraph g({{"c", bases}}, kTestK);
  const std::size_t expected_nodes = bases.size() - kTestK + 1;
  EXPECT_EQ(g.num_nodes(), expected_nodes);
  EXPECT_EQ(g.num_edges(), expected_nodes - 1);
  EXPECT_EQ(g.source_nodes().size(), 1u);
}

TEST(DeBruijnTest, NodeLookupMatchesContigKmers) {
  const std::string bases = random_dna(60, 2);
  const DeBruijnGraph g({{"c", bases}}, kTestK);
  const seq::KmerCodec codec(kTestK);
  for (const auto& occ : codec.extract(bases)) {
    EXPECT_GE(g.node_id(occ.code), 0);
  }
  EXPECT_EQ(g.node_id(*codec.encode(random_dna(kTestK, 777))), -1);
}

TEST(DeBruijnTest, EdgesFollowConsecutiveWindows) {
  const std::string bases = random_dna(40, 3);
  const DeBruijnGraph g({{"c", bases}}, kTestK);
  const seq::KmerCodec codec(kTestK);
  const auto occ = codec.extract(bases);
  for (std::size_t i = 0; i + 1 < occ.size(); ++i) {
    const auto from = g.node_id(occ[i].code);
    const auto to = g.node_id(occ[i + 1].code);
    const auto b = seq::KmerCodec::last_base(occ[i + 1].code);
    EXPECT_EQ(g.successor(from, b), to);
  }
}

TEST(DeBruijnTest, BranchingContigsShareNodes) {
  // Two contigs share a prefix then diverge: a fork in the graph.
  const std::string common = random_dna(30, 4);
  const std::string left = common + random_dna(20, 5);
  const std::string right = common + random_dna(20, 6);
  const DeBruijnGraph g({{"l", left}, {"r", right}}, kTestK);

  // The last k-mer of the common region must have out-degree 2.
  const seq::KmerCodec codec(kTestK);
  const auto fork = g.node_id(*codec.encode(
      std::string_view(common).substr(common.size() - kTestK)));
  ASSERT_GE(fork, 0);
  int successors = 0;
  for (std::uint8_t b = 0; b < 4; ++b) successors += g.successor(fork, b) >= 0 ? 1 : 0;
  EXPECT_EQ(successors, 2);
}

TEST(DeBruijnTest, DuplicateContigAddsNothing) {
  const std::string bases = random_dna(50, 7);
  const DeBruijnGraph once({{"c", bases}}, kTestK);
  const DeBruijnGraph twice({{"c", bases}, {"c2", bases}}, kTestK);
  EXPECT_EQ(once.num_nodes(), twice.num_nodes());
  EXPECT_EQ(once.num_edges(), twice.num_edges());
}

TEST(DeBruijnTest, ShortContigContributesNothing) {
  const DeBruijnGraph g({{"short", random_dna(kTestK - 1, 8)}}, kTestK);
  EXPECT_EQ(g.num_nodes(), 0u);
}

TEST(DeBruijnTest, InvalidBaseBreaksChain) {
  std::string bases = random_dna(40, 9);
  bases[20] = 'N';
  const DeBruijnGraph g({{"c", bases}}, kTestK);
  // Two disjoint chains -> two sources.
  EXPECT_EQ(g.source_nodes().size(), 2u);
}

TEST(DeBruijnTest, QuantifyCountsBothStrands) {
  const std::string bases = random_dna(60, 10);
  DeBruijnGraph g({{"c", bases}}, kTestK);

  const seq::Sequence fwd{"f", bases.substr(10, 30)};
  g.quantify(fwd);
  const seq::KmerCodec codec(kTestK);
  const auto covered = g.node_id(*codec.encode(std::string_view(bases).substr(15)));
  ASSERT_GE(covered, 0);
  EXPECT_EQ(g.support(covered), 1u);

  // The same region as a reverse-complement read adds support too.
  const seq::Sequence rev{"r", seq::reverse_complement(bases.substr(10, 30))};
  g.quantify(rev);
  EXPECT_EQ(g.support(covered), 2u);
}

TEST(DeBruijnTest, QuantifyIgnoresForeignReads) {
  DeBruijnGraph g({{"c", random_dna(60, 11)}}, kTestK);
  g.quantify({"alien", random_dna(60, 99999)});
  for (std::size_t i = 0; i < g.num_nodes(); ++i) {
    EXPECT_EQ(g.support(static_cast<std::int32_t>(i)), 0u);
  }
}

TEST(DeBruijnTest, CyclicGraphHasNoSources) {
  // A tandem repeat longer than k wraps the chain onto itself.
  const std::string unit = "ACGTGTCAAC";  // 10 > k? no, k=8; unit length 10
  std::string repeat;
  for (int i = 0; i < 6; ++i) repeat += unit;
  const DeBruijnGraph g({{"r", repeat}}, kTestK);
  EXPECT_EQ(g.num_nodes(), 10u);  // one node per rotation of the unit
  EXPECT_TRUE(g.source_nodes().empty());
}

TEST(DeBruijnTest, QuantifyWithNMatchesBothStrandsSeparately) {
  // quantify() takes the reverse strand from the forward walk's rc codes.
  // For a read split by an N that must equal walking the read and its
  // string reverse complement separately.
  const std::string bases = random_dna(80, 12);
  std::string read = bases.substr(5, 60);
  read[27] = 'N';
  DeBruijnGraph g({{"c", bases}}, kTestK);
  g.quantify({"r", read});

  const seq::KmerCodec codec(kTestK);
  std::vector<std::uint32_t> expected(g.num_nodes(), 0);
  for (const auto& strand : {read, seq::reverse_complement(read)}) {
    for (const auto& occ : codec.extract(strand)) {
      const auto id = g.node_id(occ.code);
      if (id >= 0) ++expected[static_cast<std::size_t>(id)];
    }
  }
  std::uint32_t total = 0;
  for (std::size_t i = 0; i < g.num_nodes(); ++i) {
    EXPECT_EQ(g.support(static_cast<std::int32_t>(i)), expected[i]) << "node " << i;
    total += expected[i];
  }
  EXPECT_GE(total, codec.extract(read).size());  // every forward window is a node
}

}  // namespace
}  // namespace trinity::chrysalis
