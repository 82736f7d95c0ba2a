// Tests for TranscriptIndex, the mmap image of the vote map: vote-parity
// of index-mode assignments across the whole R2T scheduling matrix,
// serialize -> mmap-load round-trips (byte-identical files and
// assignments), typed rejection of every truncation and byte flip of an
// index file, and the build/load/auto lifecycle.

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <sstream>

#include "chrysalis/components.hpp"
#include "chrysalis/reads_to_transcripts.hpp"
#include "chrysalis/transcript_index.hpp"
#include "io/error.hpp"
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
};

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
    }
  }
  for (int i = 0; i < 3; ++i) {
    f.reads.push_back({"noise" + std::to_string(i), random_dna(60, 90000 + i)});
  }
  return f;
}

ReadsToTranscriptsOptions test_options(R2TMode mode = R2TMode::kVote) {
  ReadsToTranscriptsOptions o;
  o.k = kTestK;
  o.max_mem_reads = 7;
  o.model_threads_per_rank = 4;
  o.mode = mode;
  return o;
}

bool same_assignments(const std::vector<ReadAssignment>& a,
                      const std::vector<ReadAssignment>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(ReadAssignment)) == 0);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void patch_file(const std::string& path, std::streamoff offset, const void* bytes,
                std::size_t len) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  f.seekp(offset);
  f.write(static_cast<const char*>(bytes), static_cast<std::streamsize>(len));
}

/// Every contig k-mer (hits) and a sample of random codes (mostly misses)
/// answer the same in `got` as in `want`.
void expect_same_lookups(const TranscriptIndex& got, const TranscriptIndex& want,
                         const std::vector<seq::Sequence>& contigs) {
  const auto same = [&](seq::KmerCode code) {
    const std::int32_t* a = got.lookup(code);
    const std::int32_t* b = want.lookup(code);
    return (a == nullptr) == (b == nullptr) && (a == nullptr || *a == *b);
  };
  const seq::KmerCodec codec(kTestK);
  for (const auto& contig : contigs) {
    for (const auto code : codec.distinct_canonical(contig.bases)) {
      EXPECT_TRUE(same(code)) << "k-mer " << code;
    }
  }
  util::Rng rng(3);
  for (int i = 0; i < 64; ++i) EXPECT_TRUE(same(rng() & ((1ULL << (2 * kTestK)) - 1)));
}

TEST(TranscriptIndex, LookupMatchesVotingMap) {
  Fixture f = build_fixture(4, 0, 5);
  const auto map = build_bundle_kmer_map(f.contigs, f.components, kTestK);
  const auto index = TranscriptIndex::build(f.contigs, f.components, kTestK);
  EXPECT_EQ(index.num_kmers(), map.size());
  EXPECT_EQ(index.k(), kTestK);
  EXPECT_EQ(index.num_components(), f.components.num_components());
  for (const auto& [code, component] : map) {
    const std::int32_t* hit = index.lookup(code);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(*hit, component);
  }
  // Random codes miss in both.
  util::Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const seq::KmerCode code = rng() & ((seq::KmerCode{1} << (2 * kTestK)) - 1);
    EXPECT_EQ(index.lookup(code) == nullptr, map.lookup(code) == nullptr);
  }
}

TEST(TranscriptIndex, IndexModeAssignmentsIdenticalToVote) {
  const TempDir dir("tix_parity");
  Fixture f = build_fixture(4, 10, 13);
  seq::write_fasta(dir.file("reads.fa"), f.reads);

  const auto vote =
      run_shared(f.contigs, f.components, dir.file("reads.fa"), test_options());
  auto options = test_options(R2TMode::kIndex);
  options.index_path = dir.file("transcript_index.bin");
  const auto indexed =
      run_shared(f.contigs, f.components, dir.file("reads.fa"), options, dir.str());
  EXPECT_TRUE(same_assignments(vote.assignments, indexed.assignments));
  EXPECT_EQ(indexed.timing.index_source, "built");
  EXPECT_GT(indexed.timing.index_build_seconds, 0.0);
  EXPECT_EQ(indexed.timing.index_load_seconds, 0.0);
  // Vote mode reports no index accounting.
  EXPECT_EQ(vote.timing.index_source, "");
}

TEST(TranscriptIndex, SaveLoadRoundTripIsByteIdentical) {
  const TempDir dir("tix_roundtrip");
  Fixture f = build_fixture(3, 0, 7);
  const auto built = TranscriptIndex::build(f.contigs, f.components, kTestK);
  built.save(dir.file("a.bin"));

  const auto loaded = TranscriptIndex::load(dir.file("a.bin"));
  EXPECT_TRUE(loaded.mmap_backed());
  EXPECT_FALSE(built.mmap_backed());
  EXPECT_EQ(loaded.k(), built.k());
  EXPECT_EQ(loaded.num_kmers(), built.num_kmers());
  EXPECT_EQ(loaded.num_components(), built.num_components());
  EXPECT_EQ(loaded.image_bytes(), built.image_bytes());

  // save(load(p)) writes a byte-identical file.
  loaded.save(dir.file("b.bin"));
  EXPECT_EQ(read_file(dir.file("a.bin")), read_file(dir.file("b.bin")));

  expect_same_lookups(loaded, built, f.contigs);
}

TEST(TranscriptIndex, WarmAutoRunLoadsViaMmapAndSkipsBuild) {
  const TempDir dir("tix_warm");
  Fixture f = build_fixture(3, 8, 17);
  seq::write_fasta(dir.file("reads.fa"), f.reads);
  auto options = test_options(R2TMode::kIndex);
  options.index_path = dir.file("transcript_index.bin");

  const auto cold =
      run_shared(f.contigs, f.components, dir.file("reads.fa"), options);
  EXPECT_EQ(cold.timing.index_source, "built");

  const auto warm =
      run_shared(f.contigs, f.components, dir.file("reads.fa"), options);
  EXPECT_EQ(warm.timing.index_source, "mmap");
  EXPECT_EQ(warm.timing.index_build_seconds, 0.0);
  EXPECT_GT(warm.timing.index_load_seconds, 0.0);
  EXPECT_TRUE(same_assignments(cold.assignments, warm.assignments));

  // Lifecycle kBuild ignores the existing file and rebuilds.
  options.index_lifecycle = IndexLifecycle::kBuild;
  const auto rebuilt =
      run_shared(f.contigs, f.components, dir.file("reads.fa"), options);
  EXPECT_EQ(rebuilt.timing.index_source, "built");
}

TEST(TranscriptIndex, HybridIndexModeMatchesVote) {
  const TempDir dir("tix_hybrid");
  Fixture f = build_fixture(4, 12, 19);
  seq::write_fasta(dir.file("reads.fa"), f.reads);
  const auto vote =
      run_shared(f.contigs, f.components, dir.file("reads.fa"), test_options());

  auto options = test_options(R2TMode::kIndex);
  options.index_path = dir.file("transcript_index.bin");
  simpi::run(3, [&](simpi::Context& ctx) {
    const auto result =
        run_hybrid(ctx, f.contigs, f.components, dir.file("reads.fa"), options, dir.str());
    if (ctx.rank() == 0) {
      EXPECT_TRUE(same_assignments(vote.assignments, result.assignments));
    }
    EXPECT_EQ(result.timing.index_source, "built");
  });

  // Second hybrid run over the same work dir warm-loads on every rank.
  simpi::run(3, [&](simpi::Context& ctx) {
    const auto result =
        run_hybrid(ctx, f.contigs, f.components, dir.file("reads.fa"), options, dir.str());
    if (ctx.rank() == 0) {
      EXPECT_TRUE(same_assignments(vote.assignments, result.assignments));
    }
    EXPECT_EQ(result.timing.index_source, "mmap");
    EXPECT_EQ(result.timing.index_build_seconds, 0.0);
  });
}

TEST(TranscriptIndexErrors, TruncatedFileIsTypedParseError) {
  const TempDir dir("tix_trunc");
  Fixture f = build_fixture(2, 0, 29);
  TranscriptIndex::build(f.contigs, f.components, kTestK).save(dir.file("ix.bin"));
  const std::string full = read_file(dir.file("ix.bin"));
  std::ofstream(dir.file("ix.bin"), std::ios::binary)
      .write(full.data(), static_cast<std::streamsize>(full.size() - 128));
  try {
    TranscriptIndex::load(dir.file("ix.bin"));
    FAIL() << "truncated index loaded";
  } catch (const io::ParseError& e) {
    EXPECT_EQ(e.category(), io::ParseCategory::kTruncatedRecord);
    EXPECT_EQ(e.byte_offset(), full.size());  // expected size
  }
}

TEST(TranscriptIndexErrors, FileSmallerThanHeaderIsMissingHeader) {
  const TempDir dir("tix_small");
  std::ofstream(dir.file("ix.bin"), std::ios::binary).write("short", 5);
  try {
    TranscriptIndex::load(dir.file("ix.bin"));
    FAIL() << "tiny file loaded";
  } catch (const io::ParseError& e) {
    EXPECT_EQ(e.category(), io::ParseCategory::kMissingHeader);
  }
}

TEST(TranscriptIndexErrors, BadMagicIsMissingHeader) {
  const TempDir dir("tix_magic");
  Fixture f = build_fixture(2, 0, 31);
  TranscriptIndex::build(f.contigs, f.components, kTestK).save(dir.file("ix.bin"));
  const char garbage[8] = {'N', 'O', 'T', 'A', 'N', 'I', 'D', 'X'};
  patch_file(dir.file("ix.bin"), 0, garbage, sizeof(garbage));
  try {
    TranscriptIndex::load(dir.file("ix.bin"));
    FAIL() << "bad-magic file loaded";
  } catch (const io::ParseError& e) {
    EXPECT_EQ(e.category(), io::ParseCategory::kMissingHeader);
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos);
  }
}

TEST(TranscriptIndexErrors, VersionMismatchNamesBothVersions) {
  const TempDir dir("tix_version");
  Fixture f = build_fixture(2, 0, 37);
  TranscriptIndex::build(f.contigs, f.components, kTestK).save(dir.file("ix.bin"));
  const std::uint32_t future = kTranscriptIndexFormatVersion + 1;
  patch_file(dir.file("ix.bin"), 8, &future, sizeof(future));  // version field
  try {
    TranscriptIndex::load(dir.file("ix.bin"));
    FAIL() << "version-mismatched file loaded";
  } catch (const io::ParseError& e) {
    EXPECT_EQ(e.category(), io::ParseCategory::kMissingHeader);
    const std::string what = e.what();
    EXPECT_NE(what.find("format version " + std::to_string(future)), std::string::npos)
        << what;
    EXPECT_NE(what.find(std::to_string(kTranscriptIndexFormatVersion)), std::string::npos)
        << what;
  }
}

TEST(TranscriptIndexErrors, CorruptedPayloadFailsChecksum) {
  const TempDir dir("tix_corrupt");
  Fixture f = build_fixture(2, 0, 41);
  TranscriptIndex::build(f.contigs, f.components, kTestK).save(dir.file("ix.bin"));
  const std::string full = read_file(dir.file("ix.bin"));
  char flipped = static_cast<char>(full[full.size() / 2] ^ 0x5a);
  patch_file(dir.file("ix.bin"), static_cast<std::streamoff>(full.size() / 2), &flipped, 1);
  try {
    TranscriptIndex::load(dir.file("ix.bin"));
    FAIL() << "corrupted index loaded";
  } catch (const io::ParseError& e) {
    EXPECT_EQ(e.category(), io::ParseCategory::kInvalidCharacter);
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }
}

TEST(TranscriptIndexErrors, EveryTruncationIsTypedParseError) {
  // A tiny index (two 24-base contigs: 20 k-mers in 32 slots) keeps the
  // sweep over every prefix length cheap, also under ASan.
  const TempDir dir("tix_trunc_sweep");
  std::vector<seq::Sequence> contigs{{"a", random_dna(24, 61)}, {"b", random_dna(24, 62)}};
  TranscriptIndex::build(contigs, cluster_contigs(2, {}), kTestK).save(dir.file("ix.bin"));
  const std::string full = read_file(dir.file("ix.bin"));
  for (std::size_t length = 0; length < full.size(); ++length) {
    std::ofstream(dir.file("cut.bin"), std::ios::binary | std::ios::trunc)
        .write(full.data(), static_cast<std::streamsize>(length));
    try {
      TranscriptIndex::load(dir.file("cut.bin"));
      ADD_FAILURE() << "index cut to " << length << " bytes loaded";
    } catch (const io::ParseError& e) {
      EXPECT_EQ(e.category(), length < 64 ? io::ParseCategory::kMissingHeader
                                          : io::ParseCategory::kTruncatedRecord)
          << "length " << length;
    }
  }
}

TEST(TranscriptIndexErrors, EveryByteFlipIsRejectedOrHarmless) {
  const TempDir dir("tix_flip_sweep");
  std::vector<seq::Sequence> contigs{{"a", random_dna(24, 63)}, {"b", random_dna(24, 64)}};
  const auto original = TranscriptIndex::build(contigs, cluster_contigs(2, {}), kTestK);
  original.save(dir.file("ix.bin"));
  const std::string full = read_file(dir.file("ix.bin"));
  for (std::size_t i = 0; i < full.size(); ++i) {
    std::string flipped = full;
    flipped[i] = static_cast<char>(flipped[i] ^ 0xff);
    std::ofstream(dir.file("flip.bin"), std::ios::binary | std::ios::trunc)
        .write(flipped.data(), static_cast<std::streamsize>(flipped.size()));
    try {
      const auto loaded = TranscriptIndex::load(dir.file("flip.bin"));
      SCOPED_TRACE("byte " + std::to_string(i) + " flipped and loaded");
      expect_same_lookups(loaded, original, contigs);
    } catch (const io::ParseError&) {
      // Rejected with the typed error: fine.
    }
  }
}

TEST(TranscriptIndexErrors, MissingFileIsTypedIoError) {
  EXPECT_THROW(TranscriptIndex::load("/no/such/transcript_index.bin"), io::IoError);
  // Lifecycle kLoad surfaces the same typed error through the run.
  const TempDir dir("tix_load_missing");
  Fixture f = build_fixture(2, 2, 43);
  seq::write_fasta(dir.file("reads.fa"), f.reads);
  auto options = test_options(R2TMode::kIndex);
  options.index_lifecycle = IndexLifecycle::kLoad;
  options.index_path = dir.file("absent.bin");
  EXPECT_THROW(run_shared(f.contigs, f.components, dir.file("reads.fa"), options),
               io::IoError);
}

TEST(TranscriptIndexErrors, StaleKRebuildsUnderAutoAndRefusesUnderLoad) {
  const TempDir dir("tix_stale_k");
  Fixture f = build_fixture(2, 4, 47);
  seq::write_fasta(dir.file("reads.fa"), f.reads);
  TranscriptIndex::build(f.contigs, f.components, kTestK + 2).save(dir.file("ix.bin"));

  auto options = test_options(R2TMode::kIndex);
  options.index_path = dir.file("ix.bin");
  // kAuto: the k-mismatched index is ignored and rebuilt (then persisted).
  const auto rebuilt = run_shared(f.contigs, f.components, dir.file("reads.fa"), options);
  EXPECT_EQ(rebuilt.timing.index_source, "built");
  EXPECT_EQ(TranscriptIndex::load(dir.file("ix.bin")).k(), kTestK);

  // kLoad: a k mismatch is a hard error naming both k values.
  TranscriptIndex::build(f.contigs, f.components, kTestK + 2).save(dir.file("ix.bin"));
  options.index_lifecycle = IndexLifecycle::kLoad;
  try {
    run_shared(f.contigs, f.components, dir.file("reads.fa"), options);
    FAIL() << "k-mismatched index accepted under kLoad";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("k=" + std::to_string(kTestK + 2)), std::string::npos) << what;
    EXPECT_NE(what.find("k=" + std::to_string(kTestK)), std::string::npos) << what;
  }
}

TEST(TranscriptIndexErrors, OtherVersionRebuildsUnderAutoAndRefusesUnderLoad) {
  const TempDir dir("tix_old_version");
  Fixture f = build_fixture(2, 4, 53);
  seq::write_fasta(dir.file("reads.fa"), f.reads);
  TranscriptIndex::build(f.contigs, f.components, kTestK).save(dir.file("ix.bin"));
  const std::uint32_t old_version = 1;
  patch_file(dir.file("ix.bin"), 8, &old_version, sizeof(old_version));

  auto options = test_options(R2TMode::kIndex);
  options.index_path = dir.file("ix.bin");
  options.index_lifecycle = IndexLifecycle::kLoad;
  EXPECT_THROW(run_shared(f.contigs, f.components, dir.file("reads.fa"), options),
               io::ParseError);

  // kAuto: the unreadable file is rebuilt and overwritten with a valid one.
  options.index_lifecycle = IndexLifecycle::kAuto;
  const auto rebuilt = run_shared(f.contigs, f.components, dir.file("reads.fa"), options);
  EXPECT_EQ(rebuilt.timing.index_source, "built");
  EXPECT_EQ(rebuilt.timing.index_load_seconds, 0.0);
  EXPECT_EQ(TranscriptIndex::load(dir.file("ix.bin")).num_kmers(),
            build_bundle_kmer_map(f.contigs, f.components, kTestK).size());
}

// --- the R2T scheduling matrix ------------------------------------------------------

TEST(R2TEngineParity, EveryScheduleWritesTheVoteOutput) {
  // Vote mode, a cold index build and a warm mmap load, over ranks 1-4,
  // both chunk strategies and both output merges: rank 0 must return the
  // shared-memory assignments and every other rank none. The merged file
  // lists each rank's chunks in rank order, so it depends on the rank
  // count only: every run at one rank count must write the same bytes as
  // the first, and at one rank the bytes run_shared writes.
  const TempDir dir("tix_matrix");
  Fixture f = build_fixture(4, 9, 67);
  const std::string reads = dir.file("reads.fa");
  seq::write_fasta(reads, f.reads);
  const auto reference = run_shared(f.contigs, f.components, reads, test_options(), dir.str());
  const std::string shared_tsv = read_file(reference.merged_output_path);
  ASSERT_FALSE(shared_tsv.empty());

  int case_id = 0;
  for (const int nranks : {1, 2, 3, 4}) {
    std::string rank_tsv = nranks == 1 ? shared_tsv : "";
    for (const auto strategy : {R2TStrategy::kRedundantStreaming, R2TStrategy::kMasterSlave}) {
      for (const auto output : {R2TOutputMode::kPerRankConcat, R2TOutputMode::kCollective}) {
        const std::string index_path = dir.file("ix" + std::to_string(case_id++) + ".bin");
        for (const std::string engine : {"vote", "cold", "warm"}) {
          SCOPED_TRACE(std::to_string(nranks) + " ranks, " +
                       (strategy == R2TStrategy::kMasterSlave ? "master/slave" : "redundant") +
                       ", " + (output == R2TOutputMode::kCollective ? "collective" : "concat") +
                       ", " + engine);
          auto options = test_options(engine == "vote" ? R2TMode::kVote : R2TMode::kIndex);
          options.strategy = strategy;
          options.output_mode = output;
          options.index_path = index_path;
          const TempDir out("tix_matrix_out");
          simpi::run(nranks, [&](simpi::Context& ctx) {
            const auto result = run_hybrid(ctx, f.contigs, f.components, reads, options,
                                           out.str());
            if (ctx.rank() == 0) {
              EXPECT_TRUE(same_assignments(result.assignments, reference.assignments));
            } else {
              EXPECT_TRUE(result.assignments.empty());
            }
            const std::string expected_source = engine == "vote"   ? ""
                                                : engine == "cold" ? "built"
                                                                   : "mmap";
            EXPECT_EQ(result.timing.index_source, expected_source);
          });
          const std::string tsv = read_file(out.file("readsToComponents.out.tsv"));
          if (rank_tsv.empty()) rank_tsv = tsv;
          EXPECT_EQ(tsv, rank_tsv);
        }
      }
    }
    EXPECT_EQ(rank_tsv.size(), shared_tsv.size());  // the same rows, rank-ordered
  }
}

}  // namespace
}  // namespace trinity::chrysalis
