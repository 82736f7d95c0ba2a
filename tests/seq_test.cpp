// Tests for trinity::seq — DNA primitives, packed k-mers (parameterized
// over k), and FASTA/FASTQ I/O including malformed-input handling.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <limits>
#include <optional>
#include <vector>

#include "io/error.hpp"
#include "seq/dna.hpp"
#include "seq/fasta.hpp"
#include "seq/kmer.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace trinity::seq {
namespace {

using trinity::testing::TempDir;
using trinity::testing::random_dna;

// --- dna ---------------------------------------------------------------------------

TEST(DnaTest, BaseCodesRoundTrip) {
  for (const char c : {'A', 'C', 'G', 'T'}) {
    EXPECT_EQ(code_to_base(base_to_code(c)), c);
  }
}

TEST(DnaTest, LowercaseAccepted) {
  EXPECT_EQ(base_to_code('a'), base_to_code('A'));
  EXPECT_EQ(base_to_code('t'), base_to_code('T'));
}

TEST(DnaTest, InvalidBasesFlagged) {
  EXPECT_EQ(base_to_code('N'), kInvalidBase);
  EXPECT_EQ(base_to_code('x'), kInvalidBase);
  EXPECT_EQ(base_to_code(' '), kInvalidBase);
}

TEST(DnaTest, ReverseComplementKnownValue) {
  EXPECT_EQ(reverse_complement("ACGT"), "ACGT");  // palindrome
  EXPECT_EQ(reverse_complement("AACC"), "GGTT");
  EXPECT_EQ(reverse_complement(""), "");
}

TEST(DnaTest, ReverseComplementIsInvolution) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const std::string s = random_dna(137, seed);
    EXPECT_EQ(reverse_complement(reverse_complement(s)), s);
  }
}

// --- kmer codec, parameterized over k --------------------------------------------------

class KmerCodecTest : public ::testing::TestWithParam<int> {};

TEST_P(KmerCodecTest, EncodeDecodeRoundTrip) {
  const int k = GetParam();
  const KmerCodec codec(k);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const std::string s = random_dna(static_cast<std::size_t>(k), seed * 31);
    const auto code = codec.encode(s);
    ASSERT_TRUE(code.has_value());
    EXPECT_EQ(codec.decode(*code), s);
  }
}

TEST_P(KmerCodecTest, ReverseComplementMatchesStringForm) {
  const int k = GetParam();
  const KmerCodec codec(k);
  const std::string s = random_dna(static_cast<std::size_t>(k), 99);
  const auto code = codec.encode(s);
  ASSERT_TRUE(code.has_value());
  EXPECT_EQ(codec.decode(codec.reverse_complement(*code)), reverse_complement(s));
}

TEST_P(KmerCodecTest, CanonicalIsStrandNeutral) {
  const int k = GetParam();
  const KmerCodec codec(k);
  const std::string s = random_dna(static_cast<std::size_t>(k), 7);
  const auto fwd = codec.encode(s);
  const auto rev = codec.encode(reverse_complement(s));
  ASSERT_TRUE(fwd && rev);
  EXPECT_EQ(codec.canonical(*fwd), codec.canonical(*rev));
}

TEST_P(KmerCodecTest, RollRightMatchesReencoding) {
  const int k = GetParam();
  const KmerCodec codec(k);
  const std::string s = random_dna(static_cast<std::size_t>(k) + 1, 55);
  const auto first = codec.encode(s);
  const auto second = codec.encode(std::string_view(s).substr(1));
  ASSERT_TRUE(first && second);
  EXPECT_EQ(codec.roll_right(*first, base_to_code(s.back())), *second);
}

TEST_P(KmerCodecTest, ExtractCountsAllWindows) {
  const int k = GetParam();
  const KmerCodec codec(k);
  const std::string s = random_dna(200, 3);
  const auto occ = codec.extract(s);
  ASSERT_EQ(occ.size(), s.size() - static_cast<std::size_t>(k) + 1);
  for (std::size_t i = 0; i < occ.size(); ++i) {
    EXPECT_EQ(occ[i].position, i);
    EXPECT_EQ(codec.decode(occ[i].code), s.substr(i, static_cast<std::size_t>(k)));
  }
}

TEST_P(KmerCodecTest, PrefixSuffixOverlapInvariant) {
  const int k = GetParam();
  if (k < 2) return;
  const KmerCodec codec(k);
  const std::string s = random_dna(static_cast<std::size_t>(k) + 1, 77);
  std::vector<KmerCodec::Window> w;
  codec.for_each(s, [&](const KmerCodec::Window& window) { w.push_back(window); });
  ASSERT_EQ(w.size(), 2u);
  // Consecutive k-mers overlap by k-1 bases: the forward suffix of the
  // first is the forward prefix of the second, and on the reverse strand
  // the second's suffix is the first's prefix.
  const KmerCode low = (KmerCode{1} << (2 * (k - 1))) - 1;
  EXPECT_EQ(w[0].code & low, w[1].code >> 2);
  EXPECT_EQ(w[1].rc & low, w[0].rc >> 2);
}

// for_each on random ACGT/N strings: every window it reports is exactly
// encode() of its substring on the forward strand and of the substring's
// string reverse complement on the other, at exactly the positions
// encode() accepts, and the loop-free reverse_complement(code) agrees
// with the rolled rc.
TEST_P(KmerCodecTest, ForEachMatchesEncodeOnBothStrands) {
  const int k = GetParam();
  const auto ku = static_cast<std::size_t>(k);
  const KmerCodec codec(k);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    std::string s = random_dna(3 * ku + seed * 7, seed * 1009 + static_cast<std::uint64_t>(k));
    util::Rng rng(seed);
    for (char& c : s) {
      if (rng.uniform_below(4 * ku) == 0) c = 'N';
    }
    std::vector<std::size_t> valid;  // every window encode() accepts
    for (std::size_t i = 0; i + ku <= s.size(); ++i) {
      if (codec.encode(std::string_view(s).substr(i, ku))) valid.push_back(i);
    }
    std::vector<std::size_t> seen;
    codec.for_each(s, [&](const KmerCodec::Window& w) {
      seen.push_back(w.position);
      const std::string_view sub = std::string_view(s).substr(w.position, ku);
      EXPECT_EQ(codec.encode(sub), std::optional<KmerCode>(w.code));
      EXPECT_EQ(codec.encode(reverse_complement(sub)), std::optional<KmerCode>(w.rc));
      EXPECT_EQ(codec.reverse_complement(w.code), w.rc);
      EXPECT_EQ(w.canonical(), codec.canonical(w.code));
    });
    EXPECT_EQ(seen, valid) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(AllK, KmerCodecTest, ::testing::Range(1, 33));

TEST(KmerCodecEdge, RejectsBadK) {
  EXPECT_THROW(KmerCodec(0), std::invalid_argument);
  EXPECT_THROW(KmerCodec(33), std::invalid_argument);
  EXPECT_THROW(KmerCodec(-1), std::invalid_argument);
}

TEST(KmerCodecEdge, EncodeRejectsInvalidBase) {
  const KmerCodec codec(4);
  EXPECT_FALSE(codec.encode("ACNT").has_value());
  EXPECT_FALSE(codec.encode("ACG").has_value());  // too short
}

TEST(KmerCodecEdge, ExtractSkipsWindowsWithN) {
  const KmerCodec codec(3);
  // ACGTNACG: windows touching the N (start positions 2, 3, 4) are skipped.
  const auto occ = codec.extract("ACGTNACG");
  ASSERT_EQ(occ.size(), 3u);
  EXPECT_EQ(occ[0].position, 0u);
  EXPECT_EQ(occ[1].position, 1u);
  EXPECT_EQ(occ[2].position, 5u);
}

TEST(KmerCodecEdge, ExtractOnShortStringEmpty) {
  const KmerCodec codec(10);
  EXPECT_TRUE(codec.extract("ACGT").empty());
}

TEST(KmerCodecEdge, K32UsesFullWidth) {
  const KmerCodec codec(32);
  const std::string all_t(32, 'T');
  const auto code = codec.encode(all_t);
  ASSERT_TRUE(code.has_value());
  EXPECT_EQ(*code, ~KmerCode{0});
  EXPECT_EQ(codec.decode(*code), all_t);
}

// --- FASTA / FASTQ I/O ------------------------------------------------------------------

TEST(FastaIO, WriteReadRoundTrip) {
  const TempDir dir("fasta");
  std::vector<Sequence> seqs{{"s1", "ACGTACGT"}, {"s2", "TTTT"}, {"s3", ""}};
  write_fasta(dir.file("x.fa"), seqs);
  const auto got = read_all(dir.file("x.fa"));
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].name, "s1");
  EXPECT_EQ(got[0].bases, "ACGTACGT");
  EXPECT_EQ(got[2].bases, "");
}

TEST(FastaIO, WrappedOutputReadsBack) {
  const TempDir dir("wrap");
  std::vector<Sequence> seqs{{"long", random_dna(250, 5)}};
  write_fasta(dir.file("w.fa"), seqs, 60);
  const auto got = read_all(dir.file("w.fa"));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].bases, seqs[0].bases);
}

TEST(FastaIO, OutputSpanningSeveralBuffersIsByteExact) {
  // More than one io::BufferedWriter flush: the streamed file must equal
  // the whole-file rendering, wrapped and unwrapped, with an empty record.
  const TempDir dir("fasta_stream");
  std::vector<Sequence> seqs{{"empty", ""}};
  for (std::uint64_t i = 0; i < 3000; ++i) {
    seqs.push_back({"s" + std::to_string(i), random_dna(401, i)});
  }
  for (const std::size_t wrap : {std::size_t{0}, std::size_t{60}}) {
    std::string expected;
    for (const auto& s : seqs) {
      expected += ">" + s.name + "\n";
      if (wrap == 0 || s.bases.empty()) {
        expected += s.bases + "\n";
        continue;
      }
      for (std::size_t i = 0; i < s.bases.size(); i += wrap) {
        expected += s.bases.substr(i, wrap) + "\n";
      }
    }
    ASSERT_GT(expected.size(), std::size_t{1} << 20);
    write_fasta(dir.file("s.fa"), seqs, wrap);
    std::ifstream in(dir.file("s.fa"), std::ios::binary);
    const std::string got((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    EXPECT_EQ(got, expected) << "wrap " << wrap;
  }
}

TEST(FastaIO, HeaderNameStopsAtWhitespace) {
  const TempDir dir("hdr");
  std::ofstream out(dir.file("h.fa"));
  out << ">read42 length=100 extra\nACGT\n";
  out.close();
  const auto got = read_all(dir.file("h.fa"));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].name, "read42");
}

TEST(FastaIO, MultiLineRecordsConcatenate) {
  const TempDir dir("ml");
  std::ofstream out(dir.file("m.fa"));
  out << ">a\nACGT\nTTTT\n\n>b\nGG\n";
  out.close();
  const auto got = read_all(dir.file("m.fa"));
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].bases, "ACGTTTTT");
  EXPECT_EQ(got[1].bases, "GG");
}

TEST(FastaIO, FastqParses) {
  const TempDir dir("fq");
  std::ofstream out(dir.file("r.fq"));
  out << "@r1\nACGT\n+\nIIII\n@r2\nTT\n+r2\nII\n";
  out.close();
  const auto got = read_all(dir.file("r.fq"));
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].name, "r1");
  EXPECT_EQ(got[0].bases, "ACGT");
  EXPECT_EQ(got[1].bases, "TT");
}

TEST(FastaIO, FastqQualityLengthMismatchThrows) {
  const TempDir dir("fqbad");
  std::ofstream out(dir.file("bad.fq"));
  out << "@r1\nACGT\n+\nII\n";
  out.close();
  FastaReader reader(dir.file("bad.fq"));
  EXPECT_THROW(reader.next(), std::runtime_error);
}

TEST(FastaIO, TruncatedFastqThrows) {
  const TempDir dir("fqtrunc");
  std::ofstream out(dir.file("t.fq"));
  out << "@r1\nACGT\n";
  out.close();
  FastaReader reader(dir.file("t.fq"));
  EXPECT_THROW(reader.next(), std::runtime_error);
}

TEST(FastaIO, GarbageLeadingContentThrows) {
  const TempDir dir("garbage");
  std::ofstream out(dir.file("g.fa"));
  out << "not a fasta file\n";
  out.close();
  FastaReader reader(dir.file("g.fa"));
  EXPECT_THROW(reader.next(), std::runtime_error);
}

TEST(FastaIO, MissingFileThrowsOnOpen) {
  EXPECT_THROW(FastaReader("/nonexistent/path/reads.fa"), std::runtime_error);
}

TEST(FastaIO, EmptyFileYieldsNoRecords) {
  const TempDir dir("empty");
  std::ofstream(dir.file("e.fa")).close();
  FastaReader reader(dir.file("e.fa"));
  EXPECT_FALSE(reader.next().has_value());
}

TEST(FastaIO, ChunkedReadingMatchesWholeFile) {
  const TempDir dir("chunk");
  std::vector<Sequence> seqs;
  for (int i = 0; i < 25; ++i) {
    seqs.push_back({"r" + std::to_string(i), random_dna(50, static_cast<std::uint64_t>(i + 1))});
  }
  write_fasta(dir.file("c.fa"), seqs);

  FastaReader reader(dir.file("c.fa"));
  std::vector<Sequence> streamed;
  for (;;) {
    auto chunk = reader.read_chunk(7);  // deliberately not a divisor of 25
    if (chunk.empty()) break;
    EXPECT_LE(chunk.size(), 7u);
    streamed.insert(streamed.end(), chunk.begin(), chunk.end());
  }
  ASSERT_EQ(streamed.size(), seqs.size());
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    EXPECT_EQ(streamed[i].name, seqs[i].name);
    EXPECT_EQ(streamed[i].bases, seqs[i].bases);
  }
  EXPECT_EQ(reader.diagnostics().records_ok, 25u);
}

TEST(FastaIO, CrlfLineEndingsHandled) {
  const TempDir dir("crlf");
  std::ofstream out(dir.file("c.fa"), std::ios::binary);
  out << ">a\r\nACGT\r\n";
  out.close();
  const auto got = read_all(dir.file("c.fa"));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].bases, "ACGT");
}

TEST(FastqIO, QualityRoundTrips) {
  const TempDir dir("fqq");
  std::ofstream(dir.file("q.fq")) << "@r1\nACGT\n+\nFF#F\n@r2\nTT\n+\n##\n";
  const auto got = read_all(dir.file("q.fq"));
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].bases, "ACGT");
  EXPECT_EQ(got[0].quality, "FF#F");
  EXPECT_EQ(got[1].quality, "##");
  EXPECT_FALSE(got[0].quality.empty());
}

TEST(FastaIO, FastaRecordsHaveNoQuality) {
  const TempDir dir("noq");
  write_fasta(dir.file("f.fa"), {{"a", "ACGT"}});
  const auto got = read_all(dir.file("f.fa"));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_TRUE(got[0].quality.empty());
}

TEST(FastaIO, TotalBasesSums) {
  const std::vector<Sequence> seqs{{"a", "ACGT"}, {"b", "GG"}};
  EXPECT_EQ(total_bases(seqs), 6u);
}

TEST(FastaIO, HugeChunkLimitReadsWholeFile) {
  // Any max_mem_reads the config accepts is a valid limit: read_chunk must
  // not size its vector from the limit before a record is read.
  const TempDir dir("huge_chunk");
  write_fasta(dir.file("h.fa"), {{"a", "ACGT"}, {"b", "GG"}});
  FastaReader reader(dir.file("h.fa"));
  const auto chunk = reader.read_chunk(std::numeric_limits<std::size_t>::max());
  ASSERT_EQ(chunk.size(), 2u);
  EXPECT_EQ(chunk[0].bases, "ACGT");
  EXPECT_EQ(chunk[1].bases, "GG");
  EXPECT_TRUE(reader.read_chunk(std::numeric_limits<std::size_t>::max()).empty());
}

// --- reading across block edges ------------------------------------------------------
//
// The reader pulls FastaReader::kBlockSize bytes at a time. Every file below
// is larger than one block, so lines, CRLF pairs and records straddle its
// edges.

constexpr std::size_t kBlock = FastaReader::kBlockSize;

std::string write_text(const TempDir& dir, const std::string& name, const std::string& body) {
  const std::string path = dir.file(name);
  std::ofstream(path, std::ios::binary) << body;
  return path;
}

TEST(FastaBlocks, SequenceLineLongerThanABlock) {
  const TempDir dir("block_long");
  const std::string long_bases = random_dna(2 * kBlock + 123, 5);
  const auto path = write_text(
      dir, "l.fa", ">long x\n" + long_bases + "\n>short\nAC\n>tail\n" + long_bases + "\n");
  io::ParseDiagnostics diag;
  const auto got = read_all(path, ParsePolicy::kStrict, &diag);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].name, "long");
  EXPECT_EQ(got[0].bases, long_bases);
  EXPECT_EQ(got[1].name, "short");
  EXPECT_EQ(got[1].bases, "AC");
  EXPECT_EQ(got[2].bases, long_bases);
  EXPECT_EQ(diag.records_ok, 3u);
}

TEST(FastaBlocks, CrlfSplitAcrossBlocksIsOneLine) {
  // The first sequence line's '\r' is the block's last byte and its '\n'
  // the next block's first: one CRLF line, and every later line is
  // numbered and located as if there were no edge.
  const TempDir dir("block_crlf");
  const std::string first = random_dna(kBlock - 5, 6);
  const std::string body = ">a\r\n" + first + "\r\n>b\r\nACGT\r\n>c\r\nAC!T\r\n";
  ASSERT_EQ(body[kBlock - 1], '\r');
  ASSERT_EQ(body[kBlock], '\n');
  const auto path = write_text(dir, "c.fa", body);

  io::ParseDiagnostics diag;
  const auto got = read_all(path, ParsePolicy::kTolerant, &diag);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].bases, first);
  EXPECT_EQ(got[1].bases, "ACGT");
  EXPECT_EQ(diag.crlf_lines, 6u);
  EXPECT_EQ(diag.blank_lines, 0u);
  EXPECT_EQ(diag.of(io::ParseCategory::kInvalidCharacter), 1u);

  try {
    static_cast<void>(read_all(path));
    FAIL() << "expected ParseError";
  } catch (const io::ParseError& e) {
    EXPECT_EQ(e.line(), 6u);
    EXPECT_EQ(e.byte_offset(), kBlock + 15);  // after "\n>b\r\nACGT\r\n>c\r\n"
  }
}

TEST(FastaBlocks, LastLineWithoutNewline) {
  const TempDir dir("block_nonl");
  const std::string bases = random_dna(kBlock + 10, 7);
  const auto fa = read_all(write_text(dir, "n.fa", ">a\nAC\n>b\n" + bases));
  ASSERT_EQ(fa.size(), 2u);
  EXPECT_EQ(fa[1].bases, bases);

  const std::string quality(bases.size(), 'F');
  const auto fq = read_all(write_text(dir, "n.fq", "@a\n" + bases + "\n+\n" + quality));
  ASSERT_EQ(fq.size(), 1u);
  EXPECT_EQ(fq[0].bases, bases);
  EXPECT_EQ(fq[0].quality, quality);
}

TEST(FastaBlocks, FastqRecordsStraddleBlockEdges) {
  // Records of every length from 1 to 300 bases cycle over more than two
  // blocks, so each of the four record lines lands on an edge somewhere.
  const TempDir dir("block_fq");
  util::Rng rng(8);
  std::vector<Sequence> expected;
  std::string body;
  for (std::size_t i = 0; body.size() < 2 * kBlock + 1000; ++i) {
    Sequence rec{std::to_string(i), random_dna(1 + i % 300, i)};
    rec.quality.resize(rec.bases.size());
    for (char& q : rec.quality) q = static_cast<char>('!' + rng.uniform_below(40));
    body += "@" + rec.name + " extra\n" + rec.bases + "\n+\n" + rec.quality + "\n";
    expected.push_back(std::move(rec));
  }
  io::ParseDiagnostics diag;
  const auto got = read_all(write_text(dir, "s.fq", body), ParsePolicy::kStrict, &diag);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].name, expected[i].name);
    EXPECT_EQ(got[i].bases, expected[i].bases) << i;
    EXPECT_EQ(got[i].quality, expected[i].quality) << i;
  }
  EXPECT_EQ(diag.records_ok, expected.size());
}

/// `count` FASTA records ">r%05d" of 100 bases, 109 bytes each; record
/// `bad` carries a '!' in its sequence line.
std::string fixed_width_fasta(std::size_t count, std::size_t bad) {
  std::string body;
  for (std::size_t i = 0; i < count; ++i) {
    char name[16];
    std::snprintf(name, sizeof(name), ">r%05zu\n", i);
    std::string bases = random_dna(100, i + 1);
    if (i == bad) bases[50] = '!';
    body += name + bases + "\n";
  }
  return body;
}

TEST(FastaBlocks, StrictErrorPastTheFirstBlockIsLocated) {
  // Record 12000's sequence line: line 2 * 12000 + 2, offset 12000 * 109 + 8
  // (the location the getline reader reported).
  const TempDir dir("block_strict");
  const auto path = write_text(dir, "s.fa", fixed_width_fasta(12100, 12000));
  try {
    static_cast<void>(read_all(path));
    FAIL() << "expected ParseError";
  } catch (const io::ParseError& e) {
    EXPECT_EQ(e.category(), io::ParseCategory::kInvalidCharacter);
    EXPECT_EQ(e.path(), path);
    EXPECT_EQ(e.line(), 24002u);
    EXPECT_EQ(e.byte_offset(), 1308008u);
    EXPECT_GT(e.byte_offset(), kBlock);
    EXPECT_NE(std::string(e.what()).find("invalid character '!' in sequence data"),
              std::string::npos);
  }
}

TEST(FastaBlocks, CorruptedFastqCountsUnderEveryPolicy) {
  // bench_parse_tolerance's corrupted-file shape: every 100th record is
  // damaged, rotating through a flipped header, a bad separator, an
  // invalid base and a short quality line. 4,000 records of 150 bases
  // span several blocks; the counts are the getline reader's.
  const TempDir dir("block_corrupt");
  std::string body;
  for (std::size_t i = 0; i < 4000; ++i) {
    std::string header = "@read" + std::to_string(i);
    std::string bases = random_dna(150, i + 11);
    char sep = '+';
    std::string quality(bases.size(), 'F');
    if (i % 100 == 99) {
      switch ((i / 100) % 4) {
        case 0: header[0] = 'B'; break;
        case 1: sep = 'x'; break;
        case 2: bases[bases.size() / 2] = '!'; break;
        case 3: quality.pop_back(); break;
      }
    }
    body += header + "\n" + bases + "\n" + sep + "\n" + quality + "\n";
  }
  ASSERT_GT(body.size(), 4 * kBlock);
  const auto path = write_text(dir, "c.fq", body);

  io::ParseDiagnostics tolerant;
  EXPECT_EQ(read_all(path, ParsePolicy::kTolerant, &tolerant).size(), 3960u);
  EXPECT_EQ(tolerant.records_ok, 3960u);
  EXPECT_EQ(tolerant.records_repaired, 0u);
  for (const auto category :
       {io::ParseCategory::kMissingHeader, io::ParseCategory::kBadSeparator,
        io::ParseCategory::kInvalidCharacter, io::ParseCategory::kQualityLengthMismatch}) {
    EXPECT_EQ(tolerant.of(category), 10u) << io::to_string(category);
  }
  EXPECT_EQ(tolerant.of(io::ParseCategory::kTruncatedRecord), 0u);

  io::ParseDiagnostics repair;
  EXPECT_EQ(read_all(path, ParsePolicy::kRepair, &repair).size(), 3980u);
  EXPECT_EQ(repair.records_ok, 3980u);
  EXPECT_EQ(repair.records_repaired, 20u);
  EXPECT_EQ(repair.of(io::ParseCategory::kMissingHeader), 10u);
  EXPECT_EQ(repair.of(io::ParseCategory::kBadSeparator), 10u);
  EXPECT_EQ(repair.records_quarantined(), 20u);
}

TEST(FastaBlocks, ReadFailureIsATypedIoError) {
  // A path that opens but cannot be read (a directory) fails on the first
  // read with a typed error instead of reading as an empty file.
  const TempDir dir("block_dir");
  FastaReader reader(dir.str());
  try {
    static_cast<void>(reader.next());
    FAIL() << "expected IoError";
  } catch (const io::IoError& e) {
    EXPECT_EQ(e.op(), "read");
    EXPECT_EQ(e.path(), dir.str());
    EXPECT_FALSE(e.transient());
  }
}

}  // namespace
}  // namespace trinity::seq
