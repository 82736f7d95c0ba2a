// Tests for Butterfly path reconstruction: linear recovery, isoform
// branching, support-ranked ordering, containment filtering, and cycle
// termination.

#include <gtest/gtest.h>

#include <algorithm>

#include "butterfly/butterfly.hpp"
#include "chrysalis/components.hpp"
#include "test_helpers.hpp"

namespace trinity::butterfly {
namespace {

using trinity::testing::random_dna;
using trinity::testing::tile_reads;

constexpr int kTestK = 8;

ButterflyOptions test_options() {
  ButterflyOptions o;
  o.k = kTestK;
  o.min_transcript_length = 20;
  return o;
}

TEST(ButterflyTest, LinearGraphYieldsOriginalSequence) {
  const std::string transcript = random_dna(150, 1);
  const chrysalis::DeBruijnGraph g({{"c", transcript}}, kTestK);
  const auto out = reconstruct_component(g, 0, test_options());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].bases, transcript);
  EXPECT_EQ(out[0].name, "comp0_seq0");
}

TEST(ButterflyTest, ForkYieldsBothIsoforms) {
  const std::string common = random_dna(40, 2);
  const std::string iso_a = common + random_dna(30, 3);
  const std::string iso_b = common + random_dna(30, 4);
  const chrysalis::DeBruijnGraph g({{"a", iso_a}, {"b", iso_b}}, kTestK);
  const auto out = reconstruct_component(g, 3, test_options());
  ASSERT_EQ(out.size(), 2u);
  std::vector<std::string> seqs{out[0].bases, out[1].bases};
  EXPECT_NE(std::find(seqs.begin(), seqs.end(), iso_a), seqs.end());
  EXPECT_NE(std::find(seqs.begin(), seqs.end(), iso_b), seqs.end());
}

TEST(ButterflyTest, PathCapLimitsIsoformExplosion) {
  // Several chained forks: path count grows multiplicatively; the cap must
  // bound the output.
  std::vector<seq::Sequence> contigs;
  std::string base = random_dna(30, 5);
  for (int f = 0; f < 6; ++f) {
    contigs.push_back({"x" + std::to_string(f), base + random_dna(20, 10 + f)});
    contigs.push_back({"y" + std::to_string(f), base + random_dna(20, 20 + f)});
    base = random_dna(30, 30 + f);
  }
  const chrysalis::DeBruijnGraph g(contigs, kTestK);
  auto options = test_options();
  options.max_paths_per_component = 5;
  const auto out = reconstruct_component(g, 0, options);
  EXPECT_LE(out.size(), 5u);
}

TEST(ButterflyTest, ContainedTranscriptDropped) {
  // A short contig fully contained in a longer one adds no second output.
  const std::string transcript = random_dna(120, 6);
  const std::string fragment = transcript.substr(30, 50);
  const chrysalis::DeBruijnGraph g({{"full", transcript}, {"frag", fragment}}, kTestK);
  const auto out = reconstruct_component(g, 0, test_options());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].bases, transcript);
}

TEST(ButterflyTest, CyclicComponentTerminates) {
  const std::string unit = "ACGTGTCAAC";
  std::string repeat;
  for (int i = 0; i < 8; ++i) repeat += unit;
  const chrysalis::DeBruijnGraph g({{"r", repeat}}, kTestK);
  auto options = test_options();
  options.min_transcript_length = 5;
  const auto out = reconstruct_component(g, 0, options);
  // Cycle is traversed once (each node at most once per path).
  ASSERT_GE(out.size(), 1u);
  EXPECT_LE(out[0].bases.size(), repeat.size());
}

TEST(ButterflyTest, MinLengthFilters) {
  const chrysalis::DeBruijnGraph g({{"c", random_dna(30, 7)}}, kTestK);
  auto options = test_options();
  options.min_transcript_length = 1000;
  EXPECT_TRUE(reconstruct_component(g, 0, options).empty());
}

TEST(ButterflyTest, EmptyGraphYieldsNothing) {
  const chrysalis::DeBruijnGraph g({}, kTestK);
  EXPECT_TRUE(reconstruct_component(g, 0, test_options()).empty());
}

TEST(ButterflyTest, SupportRanksBranchOrder) {
  // At a fork, the better-supported branch must be explored (and thus
  // reported) first.
  const std::string common = random_dna(40, 8);
  const std::string strong = common + random_dna(30, 9);
  const std::string weak = common + random_dna(30, 10);
  chrysalis::DeBruijnGraph g({{"s", strong}, {"w", weak}}, kTestK);
  for (int i = 0; i < 5; ++i) g.quantify({"r", strong});
  g.quantify({"r", weak});

  auto options = test_options();
  options.max_paths_per_component = 1;  // only the first path survives
  const auto out = reconstruct_component(g, 0, options);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].bases, strong);
}

TEST(ButterflyTest, RunButterflyEndToEnd) {
  // Two components, reads assigned to each; run_butterfly should emit the
  // originals with component-tagged names.
  const std::string t0 = random_dna(200, 11);
  const std::string t1 = random_dna(200, 12);
  std::vector<seq::Sequence> contigs{{"c0", t0}, {"c1", t1}};
  const auto components = chrysalis::cluster_contigs(2, {});

  std::vector<seq::Sequence> reads = tile_reads(t0, 50, 10, "a");
  const auto more = tile_reads(t1, 50, 10, "b");
  reads.insert(reads.end(), more.begin(), more.end());
  std::vector<chrysalis::ReadAssignment> assignments(reads.size());
  for (std::size_t i = 0; i < reads.size(); ++i) {
    assignments[i].read_index = static_cast<std::int64_t>(i);
    assignments[i].component = reads[i].name[0] == 'a' ? 0 : 1;
  }

  const auto transcripts =
      run_butterfly(contigs, components, assignments, reads, test_options());
  ASSERT_EQ(transcripts.size(), 2u);
  EXPECT_EQ(transcripts[0].bases, t0);
  EXPECT_EQ(transcripts[1].bases, t1);
  EXPECT_EQ(transcripts[0].name.rfind("comp0_", 0), 0u);
  EXPECT_EQ(transcripts[1].name.rfind("comp1_", 0), 0u);
}

TEST(ButterflyTest, UnassignedReadsAreIgnored) {
  const std::string t0 = random_dna(150, 13);
  std::vector<seq::Sequence> contigs{{"c0", t0}};
  const auto components = chrysalis::cluster_contigs(1, {});
  std::vector<seq::Sequence> reads{{"r0", t0.substr(0, 50)}};
  std::vector<chrysalis::ReadAssignment> assignments(1);
  assignments[0].read_index = 0;
  assignments[0].component = -1;  // unassigned
  const auto transcripts =
      run_butterfly(contigs, components, assignments, reads, test_options());
  ASSERT_EQ(transcripts.size(), 1u);  // structure still reconstructed
}

TEST(ButterflyTest, OutOfRangeComponentIsInvalidArgument) {
  // A corrupt assignments file used to index past the per-component read
  // buckets (SIGSEGV); now the offending read is named.
  const std::string t0 = random_dna(150, 14);
  std::vector<seq::Sequence> contigs{{"c0", t0}};
  const auto components = chrysalis::cluster_contigs(1, {});
  std::vector<seq::Sequence> reads{{"r0", t0.substr(0, 50)}};
  for (const std::int32_t component : {50000000, 1, -2}) {
    std::vector<chrysalis::ReadAssignment> assignments(1);
    assignments[0].read_index = 0;
    assignments[0].component = component;
    try {
      (void)run_butterfly(contigs, components, assignments, reads, test_options());
      ADD_FAILURE() << "component " << component << " accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("read 0 ('r0')"), std::string::npos) << what;
      EXPECT_NE(what.find("component " + std::to_string(component)), std::string::npos) << what;
    }
  }
}

TEST(ButterflyReconcile, MinNodeSupportBlocksUnsupportedBranch) {
  // Two isoforms share a prefix; only one branch is covered by reads.
  const std::string common = random_dna(40, 21);
  const std::string covered = common + random_dna(30, 22);
  const std::string uncovered = common + random_dna(30, 23);
  chrysalis::DeBruijnGraph g({{"a", covered}, {"b", uncovered}}, kTestK);
  for (int i = 0; i < 3; ++i) g.quantify({"r", covered});

  auto options = test_options();
  options.min_node_support = 1;
  const auto out = reconstruct_component(g, 0, options);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].bases, covered)
      << "paths must not cross edges no read supports";
}

TEST(ButterflyReconcile, MinNodeSupportZeroKeepsAllPaths) {
  const std::string common = random_dna(40, 24);
  const std::string a = common + random_dna(30, 25);
  const std::string b = common + random_dna(30, 26);
  chrysalis::DeBruijnGraph g({{"a", a}, {"b", b}}, kTestK);
  const auto out = reconstruct_component(g, 0, test_options());
  EXPECT_EQ(out.size(), 2u);
}

TEST(ButterflyReconcile, PairedSupportCountsProperPairs) {
  const std::string transcript_bases = random_dna(500, 27);
  const seq::Sequence transcript{"t", transcript_bases};

  const seq::Sequence mate1{"frag0/1", transcript_bases.substr(50, 60)};
  const seq::Sequence mate2{"frag0/2",
                            seq::reverse_complement(transcript_bases.substr(300, 60))};
  const seq::Sequence lonely{"frag1/1", transcript_bases.substr(10, 60)};
  const seq::Sequence foreign1{"frag2/1", random_dna(60, 28)};
  const seq::Sequence foreign2{"frag2/2", random_dna(60, 29)};

  const std::vector<const seq::Sequence*> reads{&mate1, &mate2, &lonely, &foreign1,
                                                &foreign2};
  EXPECT_EQ(paired_support(transcript, reads), 1u);
}

TEST(ButterflyReconcile, PairedSupportSeesOppositeMateAssignment) {
  // Mate 1 reverse, mate 2 forward is also a proper pair.
  const std::string t = random_dna(500, 30);
  const seq::Sequence transcript{"t", t};
  const seq::Sequence mate1{"f/1", seq::reverse_complement(t.substr(250, 60))};
  const seq::Sequence mate2{"f/2", t.substr(40, 60)};
  EXPECT_EQ(paired_support(transcript, {&mate1, &mate2}), 1u);
}

TEST(ButterflyReconcile, SameStrandMatesAreNotProper) {
  const std::string t = random_dna(500, 31);
  const seq::Sequence transcript{"t", t};
  const seq::Sequence mate1{"f/1", t.substr(50, 60)};
  const seq::Sequence mate2{"f/2", t.substr(300, 60)};  // forward too
  EXPECT_EQ(paired_support(transcript, {&mate1, &mate2}), 0u);
}

TEST(ButterflyReconcile, RequirePairedSupportDropsUnspannedLongTranscript) {
  // One genuine transcript with a proper pair; reconstruct_component will
  // emit it, and the paired filter must keep it. Then rerun with reads
  // lacking pairs: the long transcript is dropped.
  // k = 15: a 600-base random sequence would repeat 8-mers by birthday
  // collision and fork the graph, which is not what this test measures.
  const int k = 15;
  const std::string t = random_dna(600, 32);
  std::vector<seq::Sequence> contigs{{"c0", t}};
  const auto components = chrysalis::cluster_contigs(1, {});

  std::vector<seq::Sequence> paired_reads{
      {"f0/1", t.substr(20, 60)},
      {"f0/2", seq::reverse_complement(t.substr(400, 60))}};
  std::vector<chrysalis::ReadAssignment> assignments(paired_reads.size());
  for (std::size_t i = 0; i < assignments.size(); ++i) {
    assignments[i].read_index = static_cast<std::int64_t>(i);
    assignments[i].component = 0;
  }

  auto options = test_options();
  options.k = k;
  options.require_paired_support = true;
  options.paired_check_length = 400;
  const auto kept =
      run_butterfly(contigs, components, assignments, paired_reads, options);
  EXPECT_EQ(kept.size(), 1u);

  // Same component, but only single-end reads named without mate suffixes:
  // no pair can span, so the long transcript is dropped.
  std::vector<seq::Sequence> single_reads{{"read0", t.substr(20, 60)}};
  std::vector<chrysalis::ReadAssignment> single_assignments(1);
  single_assignments[0].read_index = 0;
  single_assignments[0].component = 0;
  const auto dropped =
      run_butterfly(contigs, components, single_assignments, single_reads, options);
  EXPECT_TRUE(dropped.empty());
}

TEST(ButterflyReconcile, ShortTranscriptsExemptFromPairedCheck) {
  const std::string t = random_dna(200, 33);  // below paired_check_length
  std::vector<seq::Sequence> contigs{{"c0", t}};
  const auto components = chrysalis::cluster_contigs(1, {});
  auto options = test_options();
  options.k = 15;  // avoid birthday-collision forks in the random sequence
  options.require_paired_support = true;
  const auto out = run_butterfly(contigs, components, {}, {}, options);
  EXPECT_EQ(out.size(), 1u);
}

}  // namespace
}  // namespace trinity::butterfly
