// Tests for ReadsToTranscripts: assignment correctness, streaming
// chunking, per-rank output concatenation, and equivalence of the hybrid
// run (both the redundant-streaming scheme and the master/slave ablation)
// with the shared-memory run.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>

#include "chrysalis/components.hpp"
#include "chrysalis/reads_to_transcripts.hpp"
#include "io/error.hpp"
#include "seq/dna.hpp"
#include "seq/fasta.hpp"
#include "simpi/context.hpp"
#include "simpi/fault.hpp"
#include "test_helpers.hpp"
#include "trace/span_recorder.hpp"

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

TEST(R2TShared, TeamSizeAndChunkSizeGiveByteIdenticalOutput) {
  // The chunk loop with a team of one (classify, then parse) and of 2-4
  // (parse the next chunk while the team classifies), over chunks of one
  // read, a remainder chunk, the pipeline's 5,000 and more than the file:
  // the assignments and readsToComponents.out.tsv equal the 1-thread run's.
  const TempDir dir("r2t_teams");
  Fixture f = build_fixture(4, 1300, 43);
  seq::write_fasta(dir.file("reads.fa"), f.reads);
  std::ofstream(dir.file("empty.fa")).close();
  const std::size_t n = f.reads.size();
  ASSERT_GT(n, 5000u);

  const TempDir ref_dir("r2t_teams_ref");
  auto ref_options = test_options();
  ref_options.omp_threads = 1;
  const auto reference =
      run_shared(f.contigs, f.components, dir.file("reads.fa"), ref_options, ref_dir.str());
  ASSERT_EQ(reference.assignments.size(), n);
  const std::string reference_tsv = read_file(reference.merged_output_path);

  for (const int threads : {1, 2, 3, 4}) {
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{5000}, n + 1}) {
      SCOPED_TRACE("threads " + std::to_string(threads) + ", max_mem_reads " +
                   std::to_string(chunk));
      auto options = test_options(chunk);
      options.omp_threads = threads;
      const TempDir out("r2t_teams_out");
      const auto result =
          run_shared(f.contigs, f.components, dir.file("reads.fa"), options, out.str());
      EXPECT_TRUE(same_assignments(result.assignments, reference.assignments));
      EXPECT_EQ(read_file(result.merged_output_path), reference_tsv);
      EXPECT_EQ(result.timing.rank_chunks, std::vector<std::uint64_t>{(n + chunk - 1) / chunk});
      EXPECT_EQ(result.parse.records_ok, n);

      const TempDir empty_out("r2t_teams_empty");
      const auto empty =
          run_shared(f.contigs, f.components, dir.file("empty.fa"), options, empty_out.str());
      EXPECT_TRUE(empty.assignments.empty());
      EXPECT_EQ(empty.timing.rank_chunks, std::vector<std::uint64_t>{0});
      EXPECT_EQ(read_file(empty.merged_output_path), "");
    }
  }
}

TEST(R2TShared, HugeChunkLimitMatchesSmallChunks) {
  // max_mem_reads accepts any value >= 1; the largest is one chunk holding
  // the whole file, not an allocation failure before the first read.
  const TempDir dir("r2t_huge_chunk");
  Fixture f = build_fixture(3, 9, 47);
  seq::write_fasta(dir.file("reads.fa"), f.reads);
  const TempDir small_dir("r2t_huge_chunk_small");
  const TempDir huge_dir("r2t_huge_chunk_huge");
  const auto small =
      run_shared(f.contigs, f.components, dir.file("reads.fa"), test_options(7), small_dir.str());
  const auto huge = run_shared(
      f.contigs, f.components, dir.file("reads.fa"),
      test_options(static_cast<std::size_t>(std::numeric_limits<std::int64_t>::max())),
      huge_dir.str());
  EXPECT_TRUE(same_assignments(huge.assignments, small.assignments));
  EXPECT_EQ(read_file(huge.merged_output_path), read_file(small.merged_output_path));
  EXPECT_EQ(huge.timing.rank_chunks, std::vector<std::uint64_t>{1});
}

/// `reads` as FASTA text, with a '!' in the sequence of each read listed
/// in `bad`.
std::string fasta_with_bad_reads(const std::vector<seq::Sequence>& reads,
                                 const std::vector<std::size_t>& bad) {
  std::string body;
  for (std::size_t i = 0; i < reads.size(); ++i) {
    std::string bases = reads[i].bases;
    if (std::find(bad.begin(), bad.end(), i) != bad.end()) bases[10] = '!';
    body += ">" + reads[i].name + "\n" + bases + "\n";
  }
  return body;
}

TEST(R2TShared, StrictParseErrorInThirdChunkSurfacesFromEveryTeamSize) {
  // Read 16 is in chunk 2 (chunks of 7): the team is classifying chunk 1
  // while its master parses chunk 2. The ParseError must leave run_shared
  // (not std::terminate) with the location a 1-thread run reports.
  const TempDir dir("r2t_strict_chunk");
  Fixture f = build_fixture(4, 12, 53);
  std::ofstream(dir.file("reads.fa"), std::ios::binary) << fasta_with_bad_reads(f.reads, {16});
  std::optional<io::ParseError> first;
  for (const int threads : {1, 2, 3, 4}) {
    auto options = test_options(7);
    options.omp_threads = threads;
    try {
      static_cast<void>(run_shared(f.contigs, f.components, dir.file("reads.fa"), options));
      ADD_FAILURE() << "expected ParseError at " << threads << " threads";
    } catch (const io::ParseError& e) {
      EXPECT_EQ(e.category(), io::ParseCategory::kInvalidCharacter);
      EXPECT_EQ(e.path(), dir.file("reads.fa"));
      EXPECT_EQ(e.line(), 34u);  // read 16's sequence line
      if (!first) first = e;
      EXPECT_EQ(e.line(), first->line()) << threads << " threads";
      EXPECT_EQ(e.byte_offset(), first->byte_offset()) << threads << " threads";
    }
  }
}

TEST(R2TShared, TolerantParseCountsMatchAcrossTeamSizes) {
  // Four quarantined reads across chunks 0, 2 and 5, and a leading blank
  // line: R2TResult::parse and the assignments equal the 1-thread run's.
  const TempDir dir("r2t_tolerant");
  Fixture f = build_fixture(4, 12, 59);
  std::ofstream(dir.file("reads.fa"), std::ios::binary)
      << "\n" << fasta_with_bad_reads(f.reads, {0, 16, 17, 40});
  std::optional<R2TResult> reference;
  for (const int threads : {1, 2, 3, 4}) {
    auto options = test_options(7);
    options.omp_threads = threads;
    options.parse_policy = seq::ParsePolicy::kTolerant;
    const auto result = run_shared(f.contigs, f.components, dir.file("reads.fa"), options);
    EXPECT_EQ(result.parse.of(io::ParseCategory::kInvalidCharacter), 4u);
    EXPECT_EQ(result.parse.records_ok, f.reads.size() - 4);
    EXPECT_EQ(result.parse.blank_lines, 1u);
    if (!reference) {
      reference = result;
      continue;
    }
    EXPECT_EQ(result.parse.quarantined, reference->parse.quarantined) << threads;
    EXPECT_EQ(result.parse.records_ok, reference->parse.records_ok) << threads;
    EXPECT_EQ(result.parse.crlf_lines, reference->parse.crlf_lines) << threads;
    EXPECT_TRUE(same_assignments(result.assignments, reference->assignments)) << threads;
  }
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
  // file must hold run_shared's rows in rank order.
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
    SCOPED_TRACE("max_mem_reads " + std::to_string(chunk));
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

TEST_P(R2THybrid, EmptyReadsFileYieldsNoAssignments) {
  const auto [nranks, strategy] = GetParam();
  const TempDir dir("r2t_hybrid_empty");
  Fixture f = build_fixture(2, 0, 29);
  std::ofstream(dir.file("reads.fa")).close();
  auto options = test_options();
  options.strategy = strategy;
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

TEST(R2THybrid2, EveryChunkSpanCarriesChunkAndItems) {
  // One r2t.chunk span per chunk per OpenMP thread: summed over every
  // rank's spans, the items are the reads, each classified once.
  const TempDir dir("r2t_trace");
  Fixture f = build_fixture(4, 12, 61);
  seq::write_fasta(dir.file("reads.fa"), f.reads);
  for (const auto strategy : {R2TStrategy::kRedundantStreaming, R2TStrategy::kMasterSlave}) {
    auto options = test_options(7);
    options.strategy = strategy;
    options.omp_threads = 2;
    trace::SpanRecorder recorder;
    {
      trace::ScopedRecording recording(&recorder);
      simpi::run(3, [&](simpi::Context& ctx) {
        (void)run_hybrid(ctx, f.contigs, f.components, dir.file("reads.fa"), options);
      });
    }
    double items = 0.0;
    for (const auto& ev : recorder.drain()) {
      if (ev.category != trace::kCatLoop) continue;
      EXPECT_EQ(ev.name, "r2t.chunk");
      ASSERT_EQ(ev.args.size(), 2u);
      EXPECT_EQ(ev.args[0].name, "chunk");
      EXPECT_EQ(ev.args[1].name, "items");
      items += ev.args[1].value;
    }
    EXPECT_EQ(items, static_cast<double>(f.reads.size()));
  }
}

TEST(R2THybrid2, SlaveRecvFaultSurfacesAsRankFault) {
  // Master/slave at two OpenMP threads: a slave's first receive runs before
  // the team forks, the later ones on its master while the team classifies.
  // A rank fault on any of them must leave simpi::run as the typed
  // RankFaultError, not std::terminate from inside the OpenMP region.
  const TempDir dir("r2t_slave_fault");
  Fixture f = build_fixture(4, 12, 67);
  seq::write_fasta(dir.file("reads.fa"), f.reads);
  auto options = test_options(7);  // 51 reads: chunks 1, 3, 5 and 7 go to rank 1
  options.strategy = R2TStrategy::kMasterSlave;
  options.omp_threads = 2;
  for (int entry = 1; entry <= 5; ++entry) {  // four chunks and the end sentinel
    SCOPED_TRACE("recv entry " + std::to_string(entry));
    simpi::FaultPlan plan;
    plan.rank = 1;
    plan.op = simpi::CommOp::kRecv;
    plan.at_entry = entry;
    EXPECT_THROW(simpi::run(
                     2,
                     [&](simpi::Context& ctx) {
                       (void)run_hybrid(ctx, f.contigs, f.components, dir.file("reads.fa"),
                                        options);
                     },
                     {}, std::move(plan)),
                 simpi::RankFaultError);
  }
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
