// Tests for ReadsToTranscripts: assignment correctness, streaming
// chunking, per-rank output concatenation, and equivalence of the hybrid
// run (both the redundant-streaming scheme and the master/slave ablation)
// with the shared-memory run.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "chrysalis/components.hpp"
#include "chrysalis/reads_to_transcripts.hpp"
#include "seq/dna.hpp"
#include "seq/fasta.hpp"
#include "simpi/context.hpp"
#include "test_helpers.hpp"

namespace trinity::chrysalis {
namespace {

using trinity::testing::TempDir;
using trinity::testing::random_dna;

constexpr int kTestK = 15;

struct Fixture {
  std::vector<seq::Sequence> contigs;
  ComponentSet components;
  std::vector<seq::Sequence> reads;
  std::vector<std::int32_t> true_component;  // per read
};

/// Builds `n_components` single-contig bundles and reads sampled from them,
/// plus a few unassignable reads at the end.
Fixture build_fixture(std::size_t n_components, std::size_t reads_per_component,
                      std::uint64_t seed) {
  Fixture f;
  util::Rng rng(seed);
  for (std::size_t c = 0; c < n_components; ++c) {
    f.contigs.push_back({"contig" + std::to_string(c), random_dna(400, rng())});
  }
  f.components = cluster_contigs(f.contigs.size(), {});
  for (std::size_t c = 0; c < n_components; ++c) {
    for (std::size_t r = 0; r < reads_per_component; ++r) {
      const auto pos = rng.uniform_below(400 - 60);
      f.reads.push_back({"r_c" + std::to_string(c) + "_" + std::to_string(r),
                         f.contigs[c].bases.substr(pos, 60)});
      f.true_component.push_back(static_cast<std::int32_t>(c));
    }
  }
  // Unassignable reads.
  for (int i = 0; i < 3; ++i) {
    f.reads.push_back({"noise" + std::to_string(i), random_dna(60, 90000 + i)});
    f.true_component.push_back(-1);
  }
  return f;
}

ReadsToTranscriptsOptions test_options(std::size_t max_mem_reads = 7) {
  ReadsToTranscriptsOptions o;
  o.k = kTestK;
  o.max_mem_reads = max_mem_reads;
  o.model_threads_per_rank = 4;
  return o;
}

TEST(BundleKmerMap, MapsKmersToSmallestComponent) {
  Fixture f = build_fixture(3, 0, 5);
  const auto map = build_bundle_kmer_map(f.contigs, f.components, kTestK);
  const seq::KmerCodec codec(kTestK);
  // Every k-mer of contig 1 maps to component 1 (no sharing across random
  // contigs w.h.p.).
  for (const auto code : codec.distinct_canonical(f.contigs[1].bases)) {
    const auto it = map.find(code);
    ASSERT_NE(it, map.end());
    EXPECT_EQ(it->second, 1);
  }
}

TEST(BundleKmerMap, CapacityComesFromWindowCountAndNeverGrows) {
  // 100 contigs of 235 bases in 25 four-contig components: 22,100 windows
  // at k = 15 but 23,500 bases, either side of 0.7 x 32768 — a bound from
  // bases would double the table. The capacity must be the smallest power
  // of two p with windows < 0.7 p; a rehash during the build would leave
  // it larger.
  util::Rng rng(77);
  std::vector<seq::Sequence> contigs;
  std::vector<ContigPair> pairs;
  for (int c = 0; c < 100; ++c) {
    contigs.push_back({"c" + std::to_string(c), random_dna(235, rng())});
    if (c % 4 != 0) pairs.push_back({c - 1, c});
  }
  const auto components = cluster_contigs(contigs.size(), pairs);
  ASSERT_EQ(components.num_components(), 25u);
  const seq::KmerCodec codec(kTestK);
  std::size_t windows = 0;
  for (const auto& contig : contigs) windows += codec.window_count(contig.bases);
  ASSERT_EQ(windows, 22100u);
  std::size_t p = 16;
  while (static_cast<double>(windows) >= 0.7 * static_cast<double>(p)) p *= 2;
  ASSERT_EQ(p, 32768u);

  const auto map = build_bundle_kmer_map(contigs, components, kTestK);
  EXPECT_EQ(map.capacity(), p);
  EXPECT_LE(map.size(), windows);
  EXPECT_GT(map.size(), windows * 9 / 10);  // random contigs: nearly all distinct
}

TEST(AssignRead, PicksComponentWithMostSharedKmers) {
  Fixture f = build_fixture(2, 0, 7);
  const auto map = build_bundle_kmer_map(f.contigs, f.components, kTestK);
  // A chimeric read: 40 bases of contig 0 then 20 of contig 1 -> more
  // k-mers from contig 0.
  seq::Sequence read{"chimera", f.contigs[0].bases.substr(0, 40) + f.contigs[1].bases.substr(0, 20)};
  const auto a = detail::assign_read(read, 0, map, kTestK);
  EXPECT_EQ(a.component, 0);
  EXPECT_GT(a.shared_kmers, 0u);
}

TEST(AssignRead, RegionCoversContributingKmers) {
  Fixture f = build_fixture(1, 0, 9);
  const auto map = build_bundle_kmer_map(f.contigs, f.components, kTestK);
  const seq::Sequence read{"r", f.contigs[0].bases.substr(100, 60)};
  const auto a = detail::assign_read(read, 42, map, kTestK);
  EXPECT_EQ(a.read_index, 42);
  EXPECT_EQ(a.component, 0);
  EXPECT_EQ(a.region_begin, 0u);
  EXPECT_EQ(a.region_end, 60u);  // whole read contributes
  EXPECT_EQ(a.shared_kmers, 60u - kTestK + 1);
}

TEST(AssignRead, UnmatchedReadGetsMinusOne) {
  Fixture f = build_fixture(1, 0, 11);
  const auto map = build_bundle_kmer_map(f.contigs, f.components, kTestK);
  const auto a = detail::assign_read({"noise", random_dna(60, 4242)}, 0, map, kTestK);
  EXPECT_EQ(a.component, -1);
  EXPECT_EQ(a.shared_kmers, 0u);
}

TEST(R2TShared, AssignsReadsToTrueComponents) {
  const TempDir dir("r2t_shared");
  Fixture f = build_fixture(4, 10, 13);
  seq::write_fasta(dir.file("reads.fa"), f.reads);

  const auto result =
      run_shared(f.contigs, f.components, dir.file("reads.fa"), test_options(), dir.str());
  ASSERT_EQ(result.assignments.size(), f.reads.size());
  for (std::size_t i = 0; i < f.reads.size(); ++i) {
    EXPECT_EQ(result.assignments[i].read_index, static_cast<std::int64_t>(i));
    EXPECT_EQ(result.assignments[i].component, f.true_component[i]) << "read " << i;
  }
  EXPECT_FALSE(result.merged_output_path.empty());
  std::ifstream merged(result.merged_output_path);
  EXPECT_TRUE(merged.good());
}

TEST(R2TShared, ChunkSizeDoesNotChangeResult) {
  const TempDir dir("r2t_chunks");
  Fixture f = build_fixture(3, 9, 17);
  seq::write_fasta(dir.file("reads.fa"), f.reads);

  const auto a = run_shared(f.contigs, f.components, dir.file("reads.fa"), test_options(1));
  const auto b = run_shared(f.contigs, f.components, dir.file("reads.fa"), test_options(1000));
  ASSERT_EQ(a.assignments.size(), b.assignments.size());
  for (std::size_t i = 0; i < a.assignments.size(); ++i) {
    EXPECT_EQ(a.assignments[i].component, b.assignments[i].component);
    EXPECT_EQ(a.assignments[i].shared_kmers, b.assignments[i].shared_kmers);
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

bool same_assignments(const std::vector<ReadAssignment>& a,
                      const std::vector<ReadAssignment>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(ReadAssignment)) == 0);
}

/// The merged readsToComponents.out.tsv of a `nranks` world: each rank's
/// chunks (chunk c belongs to rank c mod nranks) in rank order, written
/// from the shared-memory run's assignments.
std::string rank_ordered_tsv(const std::vector<ReadAssignment>& shared, std::size_t chunk,
                             int nranks, const TempDir& dir) {
  std::vector<ReadAssignment> ordered;
  for (int r = 0; r < nranks; ++r) {
    for (const auto& a : shared) {
      if ((static_cast<std::size_t>(a.read_index) / chunk) % static_cast<std::size_t>(nranks) ==
          static_cast<std::size_t>(r)) {
        ordered.push_back(a);
      }
    }
  }
  detail::write_assignments(dir.file("expected.tsv"), ordered);
  return read_file(dir.file("expected.tsv"));
}

struct HybridCase {
  int nranks;
  R2TStrategy strategy;
};

class R2THybrid : public ::testing::TestWithParam<HybridCase> {};

TEST_P(R2THybrid, MatchesSharedMemoryRun) {
  // The one chunk loop over every chunk size that matters: one read per
  // chunk, a remainder chunk (51 = 7 x 7 + 2), an exact multiple (3 x 17),
  // the whole file in one chunk, and one more than the file. Rank 0 must
  // return run_shared's assignments and every other rank none; the merged
  // file must hold run_shared's rows in rank order, under both outputs.
  const auto [nranks, strategy] = GetParam();
  const TempDir dir("r2t_hybrid");
  Fixture f = build_fixture(4, 12, 19);
  seq::write_fasta(dir.file("reads.fa"), f.reads);
  const std::size_t n = f.reads.size();
  ASSERT_EQ(n, 51u);

  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{17}, n, n + 1}) {
    auto options = test_options(chunk);
    const TempDir shared_dir("r2t_hybrid_shared");
    const auto expected =
        run_shared(f.contigs, f.components, dir.file("reads.fa"), options, shared_dir.str());
    ASSERT_EQ(expected.assignments.size(), n);
    const std::string expected_tsv = rank_ordered_tsv(expected.assignments, chunk, nranks, dir);
    if (nranks == 1) {
      EXPECT_EQ(expected_tsv, read_file(expected.merged_output_path));
    }
    const std::uint64_t chunks = (n + chunk - 1) / chunk;

    options.strategy = strategy;
    for (const auto output : {R2TOutputMode::kPerRankConcat, R2TOutputMode::kCollective}) {
      SCOPED_TRACE("max_mem_reads " + std::to_string(chunk) + ", " +
                   (output == R2TOutputMode::kCollective ? "collective" : "concat"));
      options.output_mode = output;
      const TempDir out("r2t_hybrid_out");
      std::vector<std::uint64_t> rank_reads;
      const auto ranks = simpi::run(nranks, [&](simpi::Context& ctx) {
        const auto result =
            run_hybrid(ctx, f.contigs, f.components, dir.file("reads.fa"), options, out.str());
        if (ctx.rank() == 0) rank_reads = result.timing.rank_reads;
        if (ctx.rank() == 0) {
          EXPECT_TRUE(same_assignments(result.assignments, expected.assignments));
        } else {
          EXPECT_TRUE(result.assignments.empty());
        }
        ASSERT_EQ(result.timing.main_loop.seconds.size(), static_cast<std::size_t>(nranks));
        std::uint64_t classified = 0;
        for (const auto c : result.timing.rank_chunks) classified += c;
        EXPECT_EQ(classified, chunks);
      });
      // Every read is gathered to rank 0 exactly once, on the stage's one
      // gatherv: a non-root rank's gatherv bytes are its assignment records.
      std::uint64_t gathered = rank_reads.at(0);
      for (int r = 1; r < nranks; ++r) {
        const auto& comm = ranks[static_cast<std::size_t>(r)].comm;
        EXPECT_EQ(comm.of(simpi::CommOp::kGatherv).calls, 1u) << "rank " << r;
        const std::uint64_t records = comm.of(simpi::CommOp::kGatherv).bytes_sent;
        EXPECT_EQ(records, rank_reads.at(static_cast<std::size_t>(r)) * sizeof(ReadAssignment))
            << "rank " << r;
        gathered += rank_reads.at(static_cast<std::size_t>(r));
      }
      EXPECT_EQ(gathered, n);
      EXPECT_EQ(read_file(out.file("readsToComponents.out.tsv")), expected_tsv);
      // The merged file is the only output: no per-rank part survives it.
      std::vector<std::string> left;
      for (const auto& entry : std::filesystem::directory_iterator(out.str())) {
        left.push_back(entry.path().filename().string());
      }
      EXPECT_EQ(left, std::vector<std::string>{"readsToComponents.out.tsv"});
    }
  }
}

TEST_P(R2THybrid, EmptyReadsFileYieldsNoAssignments) {
  const auto [nranks, strategy] = GetParam();
  const TempDir dir("r2t_hybrid_empty");
  Fixture f = build_fixture(2, 0, 29);
  std::ofstream(dir.file("reads.fa")).close();
  auto options = test_options();
  options.strategy = strategy;
  for (const auto output : {R2TOutputMode::kPerRankConcat, R2TOutputMode::kCollective}) {
    options.output_mode = output;
    const TempDir out("r2t_hybrid_empty_out");
    simpi::run(nranks, [&](simpi::Context& ctx) {
      const auto result =
          run_hybrid(ctx, f.contigs, f.components, dir.file("reads.fa"), options, out.str());
      EXPECT_TRUE(result.assignments.empty());
      for (const auto c : result.timing.rank_chunks) EXPECT_EQ(c, 0u);
    });
    std::ifstream merged(out.file("readsToComponents.out.tsv"));
    EXPECT_TRUE(merged.good());
    EXPECT_EQ(read_file(out.file("readsToComponents.out.tsv")), "");
  }
}

// The first six cases keep their original order; ranks 1-5 are covered
// under both strategies.
INSTANTIATE_TEST_SUITE_P(
    Cases, R2THybrid,
    ::testing::Values(HybridCase{1, R2TStrategy::kRedundantStreaming},
                      HybridCase{2, R2TStrategy::kRedundantStreaming},
                      HybridCase{3, R2TStrategy::kRedundantStreaming},
                      HybridCase{5, R2TStrategy::kRedundantStreaming},
                      HybridCase{2, R2TStrategy::kMasterSlave},
                      HybridCase{4, R2TStrategy::kMasterSlave},
                      HybridCase{4, R2TStrategy::kRedundantStreaming},
                      HybridCase{1, R2TStrategy::kMasterSlave},
                      HybridCase{3, R2TStrategy::kMasterSlave},
                      HybridCase{5, R2TStrategy::kMasterSlave}));

TEST(R2THybrid2, ConcatenatedFileHoldsAllReads) {
  const TempDir dir("r2t_concat");
  Fixture f = build_fixture(3, 8, 23);
  seq::write_fasta(dir.file("reads.fa"), f.reads);

  simpi::run(3, [&](simpi::Context& ctx) {
    const auto result = run_hybrid(ctx, f.contigs, f.components, dir.file("reads.fa"),
                                   test_options(), dir.str());
    if (ctx.rank() == 0) {
      std::ifstream in(result.merged_output_path);
      std::size_t lines = 0;
      std::string line;
      while (std::getline(in, line)) ++lines;
      EXPECT_EQ(lines, f.reads.size());
      EXPECT_GE(result.timing.concat_seconds, 0.0);
    }
  });
}

TEST(R2TEdge, EmptyReadsFile) {
  const TempDir dir("r2t_empty");
  Fixture f = build_fixture(2, 0, 29);
  std::ofstream(dir.file("reads.fa")).close();
  const auto result = run_shared(f.contigs, f.components, dir.file("reads.fa"), test_options());
  EXPECT_TRUE(result.assignments.empty());
}

TEST(R2TEdge, MissingReadsFileThrows) {
  Fixture f = build_fixture(1, 0, 31);
  EXPECT_THROW(run_shared(f.contigs, f.components, "/no/such/file.fa", test_options()),
               std::runtime_error);
}

TEST(R2TEdge, IndexModeIsRejected) {
  // The vote map is the only engine: a caller still selecting the removed
  // index mode gets a typed error from both drivers, not a vote-mode run.
  const TempDir dir("r2t_index_mode");
  Fixture f = build_fixture(2, 3, 41);
  seq::write_fasta(dir.file("reads.fa"), f.reads);
  auto options = test_options();
  options.mode = R2TMode::kIndex;
  EXPECT_THROW(run_shared(f.contigs, f.components, dir.file("reads.fa"), options, dir.str()),
               std::invalid_argument);
  simpi::run(2, [&](simpi::Context& ctx) {
    EXPECT_THROW(run_hybrid(ctx, f.contigs, f.components, dir.file("reads.fa"), options,
                            dir.str()),
                 std::invalid_argument);
  });
  EXPECT_FALSE(std::filesystem::exists(dir.file("readsToComponents.out.tsv")));
}

TEST(R2TEdge, MultiContigComponentAttractsReadsFromBothContigs) {
  const TempDir dir("r2t_multi");
  util::Rng rng(37);
  std::vector<seq::Sequence> contigs{{"a", random_dna(300, rng())},
                                     {"b", random_dna(300, rng())}};
  const auto components = cluster_contigs(2, {{0, 1}});  // one bundle
  std::vector<seq::Sequence> reads{{"ra", contigs[0].bases.substr(50, 60)},
                                   {"rb", contigs[1].bases.substr(100, 60)}};
  seq::write_fasta(dir.file("reads.fa"), reads);
  const auto result = run_shared(contigs, components, dir.file("reads.fa"), test_options());
  ASSERT_EQ(result.assignments.size(), 2u);
  EXPECT_EQ(result.assignments[0].component, 0);
  EXPECT_EQ(result.assignments[1].component, 0);
}

}  // namespace
}  // namespace trinity::chrysalis
