// Tests for the Jellyfish substitute: counting correctness against a brute
// force oracle, canonical semantics, dump formats, and results (dump order
// included) that do not depend on the thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>

#include "io/error.hpp"
#include "kmer/counter.hpp"
#include "seq/dna.hpp"
#include "test_helpers.hpp"

namespace trinity::kmer {
namespace {

using trinity::testing::TempDir;
using trinity::testing::random_dna;

/// Brute-force canonical k-mer counts over a set of sequences.
std::map<seq::KmerCode, std::uint32_t> oracle_counts(const std::vector<seq::Sequence>& seqs,
                                                     int k, bool canonical) {
  const seq::KmerCodec codec(k);
  std::map<seq::KmerCode, std::uint32_t> out;
  for (const auto& s : seqs) {
    for (std::size_t i = 0; i + static_cast<std::size_t>(k) <= s.bases.size(); ++i) {
      const auto code = codec.encode(std::string_view(s.bases).substr(i));
      if (!code) continue;
      out[canonical ? codec.canonical(*code) : *code] += 1;
    }
  }
  return out;
}

CounterOptions opts(int k, bool canonical = true) {
  CounterOptions o;
  o.k = k;
  o.canonical = canonical;
  return o;
}

TEST(KmerCounterTest, MatchesBruteForceOracle) {
  std::vector<seq::Sequence> seqs;
  for (int i = 0; i < 10; ++i) {
    seqs.push_back({"s" + std::to_string(i), random_dna(300, static_cast<std::uint64_t>(i + 1))});
  }
  for (const int k : {5, 15, 25}) {
    KmerCounter counter(opts(k));
    counter.add_sequences(seqs);
    const auto expected = oracle_counts(seqs, k, true);

    std::uint64_t expected_total = 0;
    for (const auto& [code, count] : expected) expected_total += count;
    EXPECT_EQ(counter.distinct(), expected.size()) << "k=" << k;
    EXPECT_EQ(counter.total(), expected_total) << "k=" << k;
    for (const auto& [code, count] : expected) {
      EXPECT_EQ(counter.count_of(code), count) << "k=" << k;
    }
  }
}

TEST(KmerCounterTest, CanonicalMergesStrands) {
  const std::string fwd = random_dna(100, 44);
  std::vector<seq::Sequence> both{{"f", fwd}, {"r", seq::reverse_complement(fwd)}};
  KmerCounter counter(opts(21));
  counter.add_sequences(both);
  // Every canonical k-mer should have an even count (each window appears on
  // both strands) unless it is its own reverse complement (impossible for
  // odd k).
  for (const auto& kc : counter.dump()) {
    EXPECT_EQ(kc.count % 2, 0u) << "k-mer counted asymmetrically across strands";
  }
}

TEST(KmerCounterTest, NonCanonicalKeepsStrandsApart) {
  KmerCounter counter(opts(4, /*canonical=*/false));
  counter.add_sequences({{"s", "AAAA"}});
  const seq::KmerCodec codec(4);
  EXPECT_EQ(counter.count_of(*codec.encode("AAAA")), 1u);
  EXPECT_EQ(counter.count_of(*codec.encode("TTTT")), 0u);
}

TEST(KmerCounterTest, CountOfCanonicalizesQueries) {
  KmerCounter counter(opts(5));
  counter.add_sequences({{"s", "ACGTC"}});
  const seq::KmerCodec codec(5);
  // Query by the reverse complement; the canonical counter must find it.
  EXPECT_EQ(counter.count_of(*codec.encode("GACGT")), 1u);
}

TEST(KmerCounterTest, SequencesWithNsSkipThoseWindows) {
  KmerCounter counter(opts(3));
  counter.add_sequences({{"s", "ACGNACG"}});
  EXPECT_EQ(counter.total(), 2u);  // "ACG" twice, nothing across the N
}

TEST(KmerCounterTest, AccumulatesAcrossCalls) {
  KmerCounter counter(opts(3));
  counter.add_sequences({{"a", "AAAA"}});
  counter.add_sequences({{"b", "AAAA"}});
  const seq::KmerCodec codec(3);
  EXPECT_EQ(counter.count_of(*codec.encode("AAA")), 4u);
}

TEST(KmerCounterTest, MinCountFiltersDump) {
  KmerCounter counter(opts(3));
  counter.add_sequences({{"s", "AAAAACG"}});  // AAA x3, AAC, ACG once each
  const auto all = counter.dump(1);
  const auto frequent = counter.dump(2);
  EXPECT_GT(all.size(), frequent.size());
  for (const auto& kc : frequent) EXPECT_GE(kc.count, 2u);
}

/// Random reads of 20-120 bases in which about one base in eight is an N,
/// so many windows are skipped.
std::vector<seq::Sequence> n_rich_reads(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<seq::Sequence> reads;
  for (std::size_t i = 0; i < n; ++i) {
    std::string bases = random_dna(20 + rng.uniform_below(101), rng());
    for (auto& c : bases) {
      if (rng.uniform_below(8) == 0) c = 'N';
    }
    reads.push_back({"r" + std::to_string(i), std::move(bases)});
  }
  return reads;
}

CounterOptions opts_threads(int k, int threads) {
  CounterOptions o = opts(k);
  o.num_threads = threads;
  return o;
}

/// The dump of `reads` counted at k = 21 with `threads` threads.
std::vector<KmerCount> dump_with_threads(const std::vector<seq::Sequence>& reads, int threads) {
  KmerCounter counter(opts_threads(21, threads));
  counter.add_sequences(reads);
  return counter.dump();
}

bool same_records(const std::vector<KmerCount>& a, const std::vector<KmerCount>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const KmerCount& x, const KmerCount& y) {
                      return x.code == y.code && x.count == y.count;
                    });
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(KmerCounterTest, ThreadCountDoesNotChangeTheResult) {
  // More reads than one counting block, so the block loop runs twice.
  const auto reads = n_rich_reads(20000, 7);
  KmerCounter reference(opts_threads(21, 1));
  reference.add_sequences(reads);
  const auto expected = reference.dump();
  for (const int threads : {2, 4, 8}) {
    KmerCounter counter(opts_threads(21, threads));
    counter.add_sequences(reads);
    EXPECT_EQ(counter.total(), reference.total()) << threads << " threads";
    EXPECT_TRUE(same_records(counter.dump(), expected)) << threads << " threads";
  }
}

TEST(KmerCounterTest, BinaryDumpIsByteIdenticalAcrossThreadsRunsAndResume) {
  const TempDir dir("order");
  const auto reads = n_rich_reads(3000, 11);
  const std::string reference_path = dir.file("ref.bin");
  write_dump_binary(reference_path, dump_with_threads(reads, 1), 21);
  const std::string expected = read_bytes(reference_path);
  for (const int threads : {1, 2, 4, 8}) {
    for (int run = 0; run < 2; ++run) {
      const std::string path = dir.file("t" + std::to_string(threads) + ".bin");
      write_dump_binary(path, dump_with_threads(reads, threads), 21);
      EXPECT_EQ(read_bytes(path), expected) << threads << " threads, run " << run;
    }
  }
  // A resume rebuilds the counter from the dump file, records shuffled
  // here; its dump must still be the same bytes.
  auto records = read_dump_binary(reference_path, 21);
  std::reverse(records.begin(), records.end());
  KmerCounter resumed(opts_threads(21, 4));
  resumed.add_counts(records);
  write_dump_binary(dir.file("resumed.bin"), resumed.dump(), 21);
  EXPECT_EQ(read_bytes(dir.file("resumed.bin")), expected);
}

TEST(KmerCounterTest, DumpOrderDependsOnlyOnTheKmerSet) {
  auto reads = n_rich_reads(500, 5);
  const auto forward = dump_with_threads(reads, 4);
  std::reverse(reads.begin(), reads.end());
  EXPECT_TRUE(same_records(dump_with_threads(reads, 4), forward));
}

TEST(KmerCounterTest, ParityAgainstMapOnRandomCorpora) {
  for (const int k : {1, 25, 31, 32}) {
    for (const bool canonical : {true, false}) {
      SCOPED_TRACE("k=" + std::to_string(k) + (canonical ? " canonical" : " strand-aware"));
      const auto reads = n_rich_reads(400, static_cast<std::uint64_t>(k) * 2 + canonical);
      const auto expected = oracle_counts(reads, k, canonical);
      CounterOptions o = opts(k, canonical);
      o.num_threads = 3;
      KmerCounter counter(o);
      counter.add_sequences(reads);

      std::map<seq::KmerCode, std::uint32_t> dumped;
      for (const auto& kc : counter.dump()) {
        EXPECT_TRUE(dumped.emplace(kc.code, kc.count).second) << "duplicate record";
      }
      EXPECT_EQ(dumped, expected);
      std::uint64_t expected_total = 0;
      for (const auto& [code, count] : expected) expected_total += count;
      EXPECT_EQ(counter.total(), expected_total);
      EXPECT_EQ(counter.distinct(), expected.size());

      const seq::KmerCodec codec(k);
      for (const auto& [code, count] : expected) {
        ASSERT_EQ(counter.count_of(code), count);
        // A reverse-complement query finds the same canonical k-mer; a
        // strand-aware counter looks up the other strand.
        const seq::KmerCode rc = codec.reverse_complement(code);
        const auto other = expected.find(rc);
        const std::uint32_t rc_count =
            canonical ? count : (other == expected.end() ? 0u : other->second);
        ASSERT_EQ(counter.count_of(rc), rc_count);
      }
      // Absent k-mers count 0.
      util::Rng rng(99);
      const seq::KmerCode mask = k == 32 ? ~0ULL : (1ULL << (2 * k)) - 1;
      for (int i = 0; i < 200; ++i) {
        const seq::KmerCode code = rng() & mask;
        const seq::KmerCode key = canonical ? codec.canonical(code) : code;
        if (expected.count(key) == 0) {
          EXPECT_EQ(counter.count_of(code), 0u);
        }
      }
    }
  }
}

TEST(KmerCounterTest, RepeatedAddsAndAddCountsAccumulate) {
  const auto reads = n_rich_reads(300, 13);
  KmerCounter counter(opts_threads(25, 2));
  counter.add_sequences(reads);
  const auto once = counter.dump();
  counter.add_sequences(reads);
  counter.add_counts(once);
  EXPECT_EQ(counter.distinct(), once.size());
  for (const auto& kc : once) EXPECT_EQ(counter.count_of(kc.code), 3 * kc.count);
}

/// Reads of 40-100 bases drawn from a few random transcripts, either
/// strand, one base in fifty substituted: k-mer counts from 1 to a few
/// hundred, as in an RNA-seq read set.
std::vector<seq::Sequence> sampled_reads(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::string> transcripts;
  for (int t = 0; t < 6; ++t) transcripts.push_back(random_dna(300 + rng.uniform_below(400), rng()));
  std::vector<seq::Sequence> reads;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& source = transcripts[rng.uniform_below(transcripts.size())];
    const std::size_t length = 40 + rng.uniform_below(61);
    std::string bases = source.substr(rng.uniform_below(source.size() - length + 1), length);
    if (rng.uniform_below(2) == 0) bases = seq::reverse_complement(bases);
    for (auto& c : bases) {
      if (rng.uniform_below(50) == 0) c = "ACGT"[rng.uniform_below(4)];
    }
    reads.push_back({"r" + std::to_string(i), std::move(bases)});
  }
  return reads;
}

TEST(KmerCounterTest, SolidCountMatchesTheThresholdedFullCount) {
  // More reads than one counting block, so both passes walk two blocks.
  const auto reads = sampled_reads(20000, 17);
  for (const bool canonical : {true, false}) {
    CounterOptions o = opts(21, canonical);
    o.num_threads = 1;
    KmerCounter full(o);
    full.add_sequences(reads);
    for (const std::uint32_t t : {2u, 3u, 5u}) {
      const auto expected = full.dump(t);
      ASSERT_FALSE(expected.empty());
      ASSERT_LT(expected.size(), full.distinct());
      for (int threads = 1; threads <= 4; ++threads) {
        SCOPED_TRACE((canonical ? "canonical, t=" : "strand-aware, t=") + std::to_string(t) +
                     ", " + std::to_string(threads) + " threads");
        o.num_threads = threads;
        KmerCounter solid(o);
        solid.count_solid(reads, t);
        EXPECT_TRUE(same_records(solid.dump(t), expected));
        // Nothing below the threshold is kept, so the full dump is the same.
        EXPECT_TRUE(same_records(solid.dump(), expected));
        EXPECT_EQ(solid.distinct(), expected.size());
        for (const auto& [code, count] : full.dump()) {
          ASSERT_EQ(solid.count_of(code), count >= t ? count : 0u);
        }
      }
    }
  }
}

TEST(KmerCounterTest, AllDistinctKmersLeaveNothingSolid) {
  // Every window distinct: the Bloom filter passes its false positives to
  // the table, and pass 2 finds each of them only once.
  std::vector<seq::Sequence> reads;
  for (int i = 0; i < 3000; ++i) {
    reads.push_back({"r" + std::to_string(i), random_dna(100, 1000 + static_cast<std::uint64_t>(i))});
  }
  KmerCounter full(opts(25));
  full.add_sequences(reads);
  ASSERT_TRUE(full.dump(2).empty());
  KmerCounter solid(opts_threads(25, 4));
  solid.count_solid(reads, 2);
  EXPECT_TRUE(solid.dump().empty());
  EXPECT_EQ(solid.distinct(), 0u);
  EXPECT_EQ(solid.total(), 0u);
}

TEST(KmerCounterTest, SolidCountReplacesTheContents) {
  const auto reads = sampled_reads(2000, 23);
  KmerCounter full(opts_threads(21, 2));
  full.add_sequences(reads);
  KmerCounter counter(opts_threads(21, 2));
  counter.add_sequences(reads);
  counter.count_solid(reads, 2);  // a retry of a stage counts afresh
  counter.count_solid(reads, 2);
  EXPECT_TRUE(same_records(counter.dump(), full.dump(2)));
  // A threshold of 1 (or 0) keeps every k-mer: the plain count.
  for (const std::uint32_t t : {0u, 1u}) {
    counter.count_solid(reads, t);
    EXPECT_TRUE(same_records(counter.dump(), full.dump()));
  }
}

TEST(KmerDumpTest, BinaryRoundTrip) {
  const TempDir dir("bdump");
  KmerCounter counter(opts(25));
  counter.add_sequences({{"s", random_dna(400, 10)}});
  const auto counts = counter.dump();
  write_dump_binary(dir.file("k.bin"), counts, 25);
  const auto got = read_dump_binary(dir.file("k.bin"), 25);
  ASSERT_EQ(got.size(), counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(got[i].code, counts[i].code);
    EXPECT_EQ(got[i].count, counts[i].count);
  }
}

TEST(KmerDumpTest, BinaryKMismatchThrows) {
  const TempDir dir("kmis");
  write_dump_binary(dir.file("k.bin"), {}, 25);
  try {
    read_dump_binary(dir.file("k.bin"), 21);
    FAIL() << "k-mismatched dump loaded";
  } catch (const io::ParseError& e) {
    EXPECT_EQ(e.category(), io::ParseCategory::kMissingHeader);
    EXPECT_EQ(e.path(), dir.file("k.bin"));
    EXPECT_NE(std::string(e.what()).find("k=25"), std::string::npos) << e.what();
  }
}

TEST(KmerDumpTest, TruncatedBinaryThrows) {
  const TempDir dir("trunc");
  KmerCounter counter(opts(11));
  counter.add_sequences({{"s", random_dna(100, 2)}});
  const auto counts = counter.dump();
  write_dump_binary(dir.file("k.bin"), counts, 11);
  // Chop the file mid-record: the last record loses 5 of its 12 bytes.
  const auto path = dir.file("k.bin");
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 5);
  try {
    read_dump_binary(path, 11);
    FAIL() << "truncated dump loaded";
  } catch (const io::ParseError& e) {
    EXPECT_EQ(e.category(), io::ParseCategory::kTruncatedRecord);
    EXPECT_EQ(e.path(), path);
    EXPECT_EQ(e.byte_offset(), 12 + (counts.size() - 1) * 12);  // the torn record
  }
}

TEST(KmerDumpTest, HugeRecordCountIsBoundedByFileSize) {
  // A header claiming 2^60 records over a one-record file must fail typed
  // before anything is allocated for the claim.
  const TempDir dir("huge");
  const auto path = dir.file("k.bin");
  write_dump_binary(path, {KmerCount{7, 3}}, 11);
  const std::uint64_t claimed = std::uint64_t{1} << 60;
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(4);
    f.write(reinterpret_cast<const char*>(&claimed), sizeof(claimed));
  }
  try {
    read_dump_binary(path, 11);
    FAIL() << "over-claiming dump loaded";
  } catch (const io::ParseError& e) {
    EXPECT_EQ(e.category(), io::ParseCategory::kTruncatedRecord);
    EXPECT_EQ(e.byte_offset(), 24u);  // header + the one whole record
  }
}

TEST(KmerDumpTest, CodeWiderThanKIsRejected) {
  // Codes above the k=25 mask are no k-mer of that k, and Inchworm would
  // decode their low bits into contigs. Each fails at its own record.
  const TempDir dir("wide");
  const auto path = dir.file("k.bin");
  for (const seq::KmerCode bad : {(seq::KmerCode{1} << 60) | 12345u, ~seq::KmerCode{0}}) {
    write_dump_binary(path, {KmerCount{7, 3}, KmerCount{bad, 2}}, 25);
    try {
      read_dump_binary(path, 25);
      FAIL() << "code " << bad << " loaded";
    } catch (const io::ParseError& e) {
      EXPECT_EQ(e.category(), io::ParseCategory::kInvalidCharacter);
      EXPECT_EQ(e.path(), path);
      EXPECT_EQ(e.byte_offset(), 24u);  // header + the one good record
    }
  }
  // The widest valid code of k=25 still loads.
  const seq::KmerCode top = (seq::KmerCode{1} << 50) - 1;
  write_dump_binary(path, {KmerCount{top, 1}}, 25);
  EXPECT_EQ(read_dump_binary(path, 25).front().code, top);
}

}  // namespace
}  // namespace trinity::kmer
