// Corruption-corpus tests for the FASTA/FASTQ parse policies: strict mode
// throws io::ParseError with the exact path/line/byte-offset, tolerant
// mode quarantines per category and keeps going, repair mode fixes what is
// mechanically fixable. Includes exhaustive truncation sweeps (every byte
// offset of a well-formed file) and bit-flipped headers.

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "io/error.hpp"
#include "seq/fasta.hpp"
#include "test_helpers.hpp"

namespace trinity::seq {
namespace {

using trinity::testing::TempDir;

std::string write(const TempDir& dir, const std::string& name, const std::string& body) {
  const std::string path = dir.file(name);
  std::ofstream out(path, std::ios::binary);
  out << body;
  return path;
}

// --- clean parsing and formatting noise -------------------------------------------

TEST(ParsePolicy, NamesRoundTrip) {
  for (const ParsePolicy p : {ParsePolicy::kStrict, ParsePolicy::kTolerant, ParsePolicy::kRepair}) {
    EXPECT_EQ(parse_policy_from_string(to_string(p)), p);
  }
  EXPECT_THROW(static_cast<void>(parse_policy_from_string("lenient")), std::invalid_argument);
}

TEST(ParsePolicy, OpenFailureIsATypedIoError) {
  try {
    FastaReader reader("/nonexistent/dir/reads.fa");
    FAIL() << "expected IoError";
  } catch (const io::IoError& e) {
    EXPECT_FALSE(e.transient());
    EXPECT_EQ(e.op(), "open");
    EXPECT_EQ(e.path(), "/nonexistent/dir/reads.fa");
  }
}

TEST(ParsePolicy, CrlfBlankAndTrailingWhitespaceAreAbsorbedEverywhere) {
  const TempDir dir("parse_crlf");
  const auto path = write(dir, "reads.fa", ">r1\r\nAC \t\r\n\r\nGT\r\n\n>r2  \nTTTT\n");
  for (const ParsePolicy p : {ParsePolicy::kStrict, ParsePolicy::kTolerant, ParsePolicy::kRepair}) {
    io::ParseDiagnostics diag;
    const auto seqs = read_all(path, p, &diag);
    ASSERT_EQ(seqs.size(), 2u) << to_string(p);
    EXPECT_EQ(seqs[0].name, "r1");
    EXPECT_EQ(seqs[0].bases, "ACGT");
    EXPECT_EQ(seqs[1].name, "r2");
    EXPECT_EQ(seqs[1].bases, "TTTT");
    EXPECT_EQ(diag.records_ok, 2u);
    EXPECT_EQ(diag.records_quarantined(), 0u);
    EXPECT_EQ(diag.blank_lines, 2u);
    EXPECT_EQ(diag.crlf_lines, 4u);
  }
}

TEST(ParsePolicy, CleanFastqParsesUnderEveryPolicy) {
  const TempDir dir("parse_fq");
  const auto path = write(dir, "reads.fq", "@r1\nACGT\n+\nFFFF\n@r2 desc\nCC\n+r2\nGG\n");
  for (const ParsePolicy p : {ParsePolicy::kStrict, ParsePolicy::kTolerant, ParsePolicy::kRepair}) {
    io::ParseDiagnostics diag;
    const auto seqs = read_all(path, p, &diag);
    ASSERT_EQ(seqs.size(), 2u);
    EXPECT_EQ(seqs[0].name, "r1");
    EXPECT_EQ(seqs[0].quality, "FFFF");
    EXPECT_EQ(seqs[1].name, "r2");
    EXPECT_EQ(seqs[1].bases, "CC");
    EXPECT_EQ(diag.records_quarantined(), 0u);
  }
}

// --- strict mode: exact locations -------------------------------------------------

TEST(ParsePolicyStrict, InvalidCharacterReportsLineAndByteOffset) {
  const TempDir dir("strict_invalid");
  // Offsets: line 1 ">r1\n" starts at 0, line 2 "ACGT\n" at 4, line 3 at 9.
  const auto path = write(dir, "reads.fa", ">r1\nACGT\nAC!T\n");
  try {
    read_all(path, ParsePolicy::kStrict);
    FAIL() << "expected ParseError";
  } catch (const io::ParseError& e) {
    EXPECT_EQ(e.category(), io::ParseCategory::kInvalidCharacter);
    EXPECT_EQ(e.path(), path);
    EXPECT_EQ(e.line(), 3u);
    EXPECT_EQ(e.byte_offset(), 9u);
    EXPECT_NE(std::string(e.what()).find("'!'"), std::string::npos) << e.what();
  }
}

TEST(ParsePolicyStrict, MissingHeaderReportsTheFirstGarbageLine) {
  const TempDir dir("strict_nohdr");
  const auto path = write(dir, "reads.fa", "garbage\n>r1\nACGT\n");
  try {
    read_all(path, ParsePolicy::kStrict);
    FAIL() << "expected ParseError";
  } catch (const io::ParseError& e) {
    EXPECT_EQ(e.category(), io::ParseCategory::kMissingHeader);
    EXPECT_EQ(e.line(), 1u);
    EXPECT_EQ(e.byte_offset(), 0u);
  }
}

TEST(ParsePolicyStrict, BadSeparatorReportsTheSeparatorLine) {
  const TempDir dir("strict_sep");
  // Line 3 "X\n" starts at byte 9 ("@r1\n" = 4, "ACGT\n" = 5 more).
  const auto path = write(dir, "reads.fq", "@r1\nACGT\nX\nFFFF\n");
  try {
    read_all(path, ParsePolicy::kStrict);
    FAIL() << "expected ParseError";
  } catch (const io::ParseError& e) {
    EXPECT_EQ(e.category(), io::ParseCategory::kBadSeparator);
    EXPECT_EQ(e.line(), 3u);
    EXPECT_EQ(e.byte_offset(), 9u);
  }
}

TEST(ParsePolicyStrict, QualityMismatchReportsTheQualityLine) {
  const TempDir dir("strict_qual");
  const auto path = write(dir, "reads.fq", "@r1\nACGT\n+\nFFF\n");
  try {
    read_all(path, ParsePolicy::kStrict);
    FAIL() << "expected ParseError";
  } catch (const io::ParseError& e) {
    EXPECT_EQ(e.category(), io::ParseCategory::kQualityLengthMismatch);
    EXPECT_EQ(e.line(), 4u);
    EXPECT_EQ(e.byte_offset(), 11u);  // "@r1\n" + "ACGT\n" + "+\n"
  }
}

TEST(ParsePolicyStrict, TruncatedFastqReportsTheRecordHeader) {
  const TempDir dir("strict_trunc");
  // Record r2's header is line 5; "@r1\nACGT\n+\nFFFF\n" is 16 bytes.
  const auto path = write(dir, "reads.fq", "@r1\nACGT\n+\nFFFF\n@r2\nAC\n");
  try {
    read_all(path, ParsePolicy::kStrict);
    FAIL() << "expected ParseError";
  } catch (const io::ParseError& e) {
    EXPECT_EQ(e.category(), io::ParseCategory::kTruncatedRecord);
    EXPECT_EQ(e.line(), 5u);
    EXPECT_EQ(e.byte_offset(), 16u);
    EXPECT_NE(std::string(e.what()).find("r2"), std::string::npos);
  }
}

// --- tolerant mode: quarantine and continue ---------------------------------------

TEST(ParsePolicyTolerant, QuarantinesBadFastaRecordAndKeepsGoing) {
  const TempDir dir("tol_fasta");
  const auto path = write(dir, "reads.fa", ">r1\nAC!T\nACGT\n>r2\nGGGG\n");
  io::ParseDiagnostics diag;
  const auto seqs = read_all(path, ParsePolicy::kTolerant, &diag);
  ASSERT_EQ(seqs.size(), 1u);  // all of r1 is dropped, not just the bad line
  EXPECT_EQ(seqs[0].name, "r2");
  EXPECT_EQ(diag.of(io::ParseCategory::kInvalidCharacter), 1u);
  EXPECT_EQ(diag.records_quarantined(), 1u);
  EXPECT_EQ(diag.records_ok, 1u);
}

TEST(ParsePolicyTolerant, ResynchronizesAfterABadSeparator) {
  const TempDir dir("tol_sep");
  const auto path = write(dir, "reads.fq", "@r1\nACGT\nX\nFFFF\n@r2\nCCCC\n+\nFFFF\n");
  io::ParseDiagnostics diag;
  const auto seqs = read_all(path, ParsePolicy::kTolerant, &diag);
  ASSERT_EQ(seqs.size(), 1u);
  EXPECT_EQ(seqs[0].name, "r2");
  EXPECT_EQ(diag.of(io::ParseCategory::kBadSeparator), 1u);
  EXPECT_EQ(diag.records_quarantined(), 1u);
}

TEST(ParsePolicyTolerant, LeadingGarbageCountsOneMissingHeader) {
  const TempDir dir("tol_lead");
  const auto path = write(dir, "reads.fa", "junk1\njunk2\njunk3\n>r1\nACGT\n");
  io::ParseDiagnostics diag;
  const auto seqs = read_all(path, ParsePolicy::kTolerant, &diag);
  ASSERT_EQ(seqs.size(), 1u);
  // One destroyed leading record, however many lines it spans.
  EXPECT_EQ(diag.of(io::ParseCategory::kMissingHeader), 1u);
}

TEST(ParsePolicyTolerant, BitFlippedFastqHeaderDropsExactlyThatRecord) {
  const TempDir dir("tol_flip");
  // r2's '@' was bit-flipped to 'B': its whole record is one destroyed
  // missing_header run; r1 and r3 survive.
  const auto path = write(dir, "reads.fq",
                          "@r1\nACGT\n+\nFFFF\n"
                          "Br2\nCCCC\n+\nFFFF\n"
                          "@r3\nGGGG\n+\nFFFF\n");
  io::ParseDiagnostics diag;
  const auto seqs = read_all(path, ParsePolicy::kTolerant, &diag);
  ASSERT_EQ(seqs.size(), 2u);
  EXPECT_EQ(seqs[0].name, "r1");
  EXPECT_EQ(seqs[1].name, "r3");
  EXPECT_EQ(diag.of(io::ParseCategory::kMissingHeader), 1u);
}

TEST(ParsePolicyTolerant, AllCategoriesAccumulateInOneFile) {
  const TempDir dir("tol_all");
  const auto path = write(dir, "reads.fq",
                          "leading junk\n"                   // missing_header
                          "@r1\nACGT\n+\nFFFF\n"             // ok
                          "@r2\nAC!T\n+\nFFFF\n"             // invalid_character
                          "@r3\nACGT\nX\nFFFF\n"             // bad_separator
                          "@r4\nACGT\n+\nFFF\n"              // quality_length_mismatch
                          "@r5\nACGT\n+\nFFFF\n"             // ok
                          "@r6\nAC\n");                      // truncated_record
  io::ParseDiagnostics diag;
  const auto seqs = read_all(path, ParsePolicy::kTolerant, &diag);
  ASSERT_EQ(seqs.size(), 2u);
  EXPECT_EQ(seqs[0].name, "r1");
  EXPECT_EQ(seqs[1].name, "r5");
  EXPECT_EQ(diag.of(io::ParseCategory::kMissingHeader), 1u);
  EXPECT_EQ(diag.of(io::ParseCategory::kInvalidCharacter), 1u);
  EXPECT_EQ(diag.of(io::ParseCategory::kBadSeparator), 1u);
  EXPECT_EQ(diag.of(io::ParseCategory::kQualityLengthMismatch), 1u);
  EXPECT_EQ(diag.of(io::ParseCategory::kTruncatedRecord), 1u);
  EXPECT_EQ(diag.records_quarantined(), 5u);
  EXPECT_EQ(diag.records_ok, 2u);
}

// --- repair mode ------------------------------------------------------------------

TEST(ParsePolicyRepair, RewritesInvalidBasesToN) {
  const TempDir dir("rep_bases");
  const auto path = write(dir, "reads.fa", ">r1\nAC!T\n>r2\nGGGG\n");
  io::ParseDiagnostics diag;
  const auto seqs = read_all(path, ParsePolicy::kRepair, &diag);
  ASSERT_EQ(seqs.size(), 2u);
  EXPECT_EQ(seqs[0].bases, "ACNT");
  EXPECT_EQ(seqs[1].bases, "GGGG");
  EXPECT_EQ(diag.records_repaired, 1u);
  EXPECT_EQ(diag.records_quarantined(), 0u);
  EXPECT_EQ(diag.records_ok, 2u);
}

TEST(ParsePolicyRepair, PadsAndTrimsQualityToSequenceLength) {
  const TempDir dir("rep_qual");
  const auto path = write(dir, "reads.fq", "@r1\nACGT\n+\nFF\n@r2\nCC\n+\nFFFF\n");
  io::ParseDiagnostics diag;
  const auto seqs = read_all(path, ParsePolicy::kRepair, &diag);
  ASSERT_EQ(seqs.size(), 2u);
  EXPECT_EQ(seqs[0].quality, "FFFF");  // padded with 'F'
  EXPECT_EQ(seqs[1].quality, "FF");    // trimmed
  EXPECT_EQ(diag.records_repaired, 2u);
  EXPECT_EQ(diag.records_quarantined(), 0u);
}

TEST(ParsePolicyRepair, StillQuarantinesTheUnfixable) {
  const TempDir dir("rep_unfix");
  const auto path = write(dir, "reads.fq", "@r1\nACGT\nX\nFFFF\n@r2\nCCCC\n+\nFFFF\n");
  io::ParseDiagnostics diag;
  const auto seqs = read_all(path, ParsePolicy::kRepair, &diag);
  ASSERT_EQ(seqs.size(), 1u);
  EXPECT_EQ(seqs[0].name, "r2");
  EXPECT_EQ(diag.of(io::ParseCategory::kBadSeparator), 1u);
}

// --- truncation sweeps ------------------------------------------------------------

TEST(ParsePolicyCorpus, FastqTruncatedAtEveryByteOffset) {
  const TempDir dir("corpus_fq");
  const std::string full =
      "@r1\nACGT\n+\nFFFF\n"
      "@r2\nCCCCCC\n+\nIIIIII\n"
      "@r3\nGG\n+\nHH\n";
  const std::string path = dir.file("reads.fq");
  for (std::size_t len = 0; len <= full.size(); ++len) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << full.substr(0, len);

    // Tolerant must always finish, never throw, and every record it does
    // return must be an unmangled prefix record of the original file.
    io::ParseDiagnostics diag;
    const auto seqs = read_all(path, ParsePolicy::kTolerant, &diag);
    ASSERT_LE(seqs.size(), 3u) << "cut at " << len;
    const char* names[] = {"r1", "r2", "r3"};
    const char* bases[] = {"ACGT", "CCCCCC", "GG"};
    for (std::size_t i = 0; i < seqs.size(); ++i) {
      EXPECT_EQ(seqs[i].name, names[i]) << "cut at " << len;
      EXPECT_EQ(seqs[i].bases, bases[i]) << "cut at " << len;
    }
    EXPECT_EQ(diag.records_ok, seqs.size()) << "cut at " << len;

    // Strict must either parse a clean prefix or throw a located ParseError
    // pointing into this file — never a bare exception.
    try {
      const auto strict = read_all(path, ParsePolicy::kStrict);
      EXPECT_LE(strict.size(), 3u) << "cut at " << len;
    } catch (const io::ParseError& e) {
      EXPECT_EQ(e.path(), path);
      EXPECT_GE(e.line(), 1u) << "cut at " << len;
      EXPECT_LT(e.byte_offset(), full.size()) << "cut at " << len;
    }
  }
}

TEST(ParsePolicyCorpus, FastaTruncatedAtEveryByteOffset) {
  const TempDir dir("corpus_fa");
  const std::string full = ">r1\nACGTACGT\nTTTT\n>r2\nCCCC\n>r3\nGGGGGGGG\n";
  const std::string path = dir.file("reads.fa");
  for (std::size_t len = 0; len <= full.size(); ++len) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << full.substr(0, len);
    // Truncating well-formed FASTA can shorten records but never produces
    // malformed ones: strict must not throw at any cut point.
    const auto seqs = read_all(path, ParsePolicy::kStrict);
    ASSERT_LE(seqs.size(), 3u) << "cut at " << len;
    if (len == full.size()) {
      ASSERT_EQ(seqs.size(), 3u);
      EXPECT_EQ(seqs[0].bases, "ACGTACGTTTTT");
      EXPECT_EQ(seqs[1].bases, "CCCC");
      EXPECT_EQ(seqs[2].bases, "GGGGGGGG");
    }
  }
}

TEST(ParsePolicyCorpus, BitFlippedHeadersNeverCrashTolerantParsing) {
  const TempDir dir("corpus_flip");
  const std::string full = "@r1\nACGT\n+\nFFFF\n@r2\nCCCC\n+\nFFFF\n@r3\nGGGG\n+\nFFFF\n";
  const std::string path = dir.file("reads.fq");
  // Flip every header byte in turn (positions of '@'): each corruption
  // must cost records, not the run.
  for (const std::size_t pos : {std::size_t{0}, std::size_t{16}, std::size_t{32}}) {
    std::string corrupted = full;
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ 0x02);  // '@' -> 'B'
    std::ofstream(path, std::ios::binary | std::ios::trunc) << corrupted;
    io::ParseDiagnostics diag;
    const auto seqs = read_all(path, ParsePolicy::kTolerant, &diag);
    EXPECT_EQ(seqs.size(), 2u) << "flip at " << pos;
    EXPECT_GE(diag.of(io::ParseCategory::kMissingHeader), 1u) << "flip at " << pos;
  }
}

}  // namespace
}  // namespace trinity::seq
