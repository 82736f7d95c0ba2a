// Tests for the checkpoint subsystem: manifest JSON-line round-trips,
// tolerant loading of damaged manifests, atomic commits, stage validation
// against the run's artifact table and the on-disk outputs, the options
// fingerprint builder, the retry/backoff policy, and the content hash all
// of them rest on.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "checkpoint/fingerprint.hpp"
#include "checkpoint/manifest.hpp"
#include "checkpoint/retry.hpp"
#include "test_helpers.hpp"
#include "util/hash.hpp"

namespace trinity::checkpoint {
namespace {

using testing::TempDir;

StageRecord sample_record() {
  StageRecord r;
  r.stage = "chrysalis.bowtie";
  r.fingerprint = 0xdeadbeefcafef00dULL;
  r.complete = true;
  r.attempt = 2;
  r.wall_seconds = 1.25;
  r.checkpoint_seconds = 0.03125;
  r.inputs.push_back({"inchworm.fa", 123, 0x1111222233334444ULL});
  r.inputs.push_back({"reads.fa", 456, 0x5555666677778888ULL});
  r.outputs.push_back({"bowtie.sam", 789, 0x9999aaaabbbbccccULL});
  return r;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
}

// --- JSON line round-trip --------------------------------------------------------

TEST(ManifestJson, RecordRoundTrips) {
  const StageRecord r = sample_record();
  const auto parsed = parse_json_line(to_json_line(r));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->stage, r.stage);
  EXPECT_EQ(parsed->fingerprint, r.fingerprint);
  EXPECT_EQ(parsed->complete, r.complete);
  EXPECT_EQ(parsed->attempt, r.attempt);
  EXPECT_DOUBLE_EQ(parsed->wall_seconds, r.wall_seconds);
  EXPECT_DOUBLE_EQ(parsed->checkpoint_seconds, r.checkpoint_seconds);
  EXPECT_EQ(parsed->inputs, r.inputs);
  EXPECT_EQ(parsed->outputs, r.outputs);
}

TEST(ManifestJson, HashesSurviveAsFullSixtyFourBit) {
  // Hashes near 2^64 - 1 cannot survive a double round-trip; the format
  // must carry them as strings.
  StageRecord r;
  r.stage = "jellyfish";
  r.fingerprint = 0xffffffffffffffffULL;
  r.outputs.push_back({"kmers.bin", 1, 0xfffffffffffffffeULL});
  const auto parsed = parse_json_line(to_json_line(r));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->fingerprint, 0xffffffffffffffffULL);
  EXPECT_EQ(parsed->outputs.at(0).hash, 0xfffffffffffffffeULL);
}

TEST(ManifestJson, EscapesSpecialCharactersInPaths) {
  StageRecord r;
  r.stage = "weird \"stage\"\n\t\\name";
  r.fingerprint = 7;
  r.inputs.push_back({"dir\\file \"x\".fa", 2, 3});
  const auto parsed = parse_json_line(to_json_line(r));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->stage, r.stage);
  EXPECT_EQ(parsed->inputs.at(0).path, r.inputs.at(0).path);
}

TEST(ManifestJson, TraceFieldIsOptionalAndRoundTrips) {
  // With a trace, the field round-trips.
  StageRecord r = sample_record();
  r.trace = "run_report.json";
  const auto parsed = parse_json_line(to_json_line(r));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->trace, "run_report.json");

  // Without one, the key is omitted entirely — the line matches what the
  // pre-trace format wrote, so old manifests keep parsing byte-identically.
  r.trace.clear();
  const std::string line = to_json_line(r);
  EXPECT_EQ(line.find("\"trace\""), std::string::npos);
  const auto bare = parse_json_line(line);
  ASSERT_TRUE(bare.has_value());
  EXPECT_TRUE(bare->trace.empty());
}

TEST(ManifestJson, RejectsMalformedLines) {
  const std::string good = to_json_line(sample_record());
  // Truncations at every prefix length must fail, never crash.
  for (std::size_t len = 0; len < good.size(); ++len) {
    EXPECT_FALSE(parse_json_line(good.substr(0, len)).has_value())
        << "prefix of length " << len << " parsed";
  }
  EXPECT_FALSE(parse_json_line(good + "garbage").has_value());
  EXPECT_FALSE(parse_json_line("not json at all").has_value());
  EXPECT_FALSE(parse_json_line("{}").has_value());  // missing required fields
  EXPECT_FALSE(parse_json_line("{\"stage\":\"x\"}").has_value());  // no fingerprint
  EXPECT_FALSE(parse_json_line("{\"fingerprint\":\"01\"}").has_value());  // no stage
  EXPECT_FALSE(parse_json_line(R"({"stage":"x","fingerprint":"01","retries":2})").has_value());
  EXPECT_FALSE(parse_json_line(
                   R"({"stage":"x","fingerprint":"01","inputs":[{"path":"a","mode":1}]})")
                   .has_value());  // unknown artifact key
  for (const char* hex : {"", "0x1f", "-1", "+1", " 1", "12345678901234567", "xyz"}) {
    EXPECT_FALSE(parse_json_line(std::string(R"({"stage":"x","fingerprint":")") + hex + "\"}")
                     .has_value())
        << "fingerprint '" << hex << "' parsed";
  }
  EXPECT_FALSE(parse_json_line(R"({"stage":"x","fingerprint":1})").has_value());  // not a string
}

TEST(ManifestJson, LinesFromTheHandRolledWriterStillParse) {
  // Verbatim output of the writer that predates the util::Json codec:
  // manifests already on disk must resume unchanged.
  const std::string golden =
      R"json({"stage":"chrysalis.graph_from_fasta","fingerprint":"9e3779b97f4a7c15",)json"
      R"json("complete":true,"attempt":2,"wall_seconds":1.23457,"checkpoint_seconds":0.000125,)json"
      R"json("trace":"run_report.json","inputs":[{"path":"inchworm.fa","bytes":123456,)json"
      R"json("hash":"cbf29ce484222325"},{"path":"dir \"q\"\\x\t.fa","bytes":0,)json"
      R"json("hash":"0000000000000000"}],"outputs":[{"path":"components.txt","bytes":42,)json"
      R"json("hash":"00000000000000ff"}]})json";
  const auto parsed = parse_json_line(golden);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->stage, "chrysalis.graph_from_fasta");
  EXPECT_EQ(parsed->fingerprint, 0x9e3779b97f4a7c15ULL);
  EXPECT_TRUE(parsed->complete);
  EXPECT_EQ(parsed->attempt, 2);
  EXPECT_DOUBLE_EQ(parsed->wall_seconds, 1.23457);
  EXPECT_DOUBLE_EQ(parsed->checkpoint_seconds, 0.000125);
  EXPECT_EQ(parsed->trace, "run_report.json");
  const std::vector<ArtifactRecord> inputs = {{"inchworm.fa", 123456, 0xcbf29ce484222325ULL},
                                              {"dir \"q\"\\x\t.fa", 0, 0}};
  EXPECT_EQ(parsed->inputs, inputs);
  EXPECT_EQ(parsed->outputs,
            (std::vector<ArtifactRecord>{{"components.txt", 42, 0xffULL}}));
  // Values with at most six significant digits re-serialize byte-identically.
  EXPECT_EQ(to_json_line(*parsed), golden);

  const std::string bare =
      R"({"stage":"jellyfish","fingerprint":"0000000000000001","complete":false,)"
      R"("attempt":1,"wall_seconds":3,"checkpoint_seconds":0,"inputs":[],"outputs":[]})";
  const auto minimal = parse_json_line(bare);
  ASSERT_TRUE(minimal.has_value());
  EXPECT_EQ(minimal->fingerprint, 1u);
  EXPECT_FALSE(minimal->complete);
  EXPECT_DOUBLE_EQ(minimal->wall_seconds, 3.0);
  EXPECT_TRUE(minimal->trace.empty());
  EXPECT_EQ(to_json_line(*minimal), bare);
}

// --- RunManifest load/commit -----------------------------------------------------

TEST(RunManifest, LoadOfMissingFileIsEmpty) {
  TempDir dir("manifest_missing");
  const auto m = RunManifest::load(dir.file("absent.jsonl"));
  EXPECT_TRUE(m.records().empty());
  EXPECT_EQ(m.dropped_lines(), 0u);
}

TEST(RunManifest, CommitThenLoadRoundTrips) {
  TempDir dir("manifest_roundtrip");
  RunManifest m(dir.file("run_manifest.jsonl"));
  StageRecord first = sample_record();
  StageRecord second;
  second.stage = "inchworm";
  second.fingerprint = first.fingerprint;
  second.complete = true;
  m.upsert(first);
  m.upsert(second);
  m.commit();

  const auto loaded = RunManifest::load(m.path());
  ASSERT_EQ(loaded.records().size(), 2u);
  EXPECT_EQ(loaded.records()[0].stage, "chrysalis.bowtie");
  EXPECT_EQ(loaded.records()[1].stage, "inchworm");
  EXPECT_EQ(loaded.dropped_lines(), 0u);
  // No leftover temporary from the atomic rename.
  EXPECT_FALSE(std::filesystem::exists(m.path() + ".tmp"));
}

TEST(RunManifest, UpsertReplacesInPlace) {
  RunManifest m("unused");
  StageRecord r = sample_record();
  m.upsert(r);
  r.attempt = 5;
  m.upsert(r);
  ASSERT_EQ(m.records().size(), 1u);
  EXPECT_EQ(m.records()[0].attempt, 5);
  ASSERT_NE(m.find("chrysalis.bowtie"), nullptr);
  EXPECT_EQ(m.find("chrysalis.bowtie")->attempt, 5);
  EXPECT_EQ(m.find("nope"), nullptr);
}

TEST(RunManifest, TruncatedLineIsDroppedOthersSurvive) {
  TempDir dir("manifest_truncated");
  const std::string path = dir.file("run_manifest.jsonl");
  const std::string good = to_json_line(sample_record());
  // A crash mid-append leaves a final line cut off mid-object.
  write_file(path, good + "\n" + good.substr(0, good.size() / 2));
  const auto m = RunManifest::load(path);
  ASSERT_EQ(m.records().size(), 1u);
  EXPECT_EQ(m.dropped_lines(), 1u);
}

TEST(RunManifest, CommitIntoUnwritableDirectoryThrows) {
  RunManifest m("/nonexistent_dir_zzz/run_manifest.jsonl");
  m.upsert(sample_record());
  EXPECT_THROW(m.commit(), std::runtime_error);
}

// --- capture + validate ----------------------------------------------------------

TEST(ValidateStage, ValidRecordPasses) {
  TempDir dir("validate_ok");
  write_file(dir.file("a.fa"), ">r0\nACGT\n");
  write_file(dir.file("b.sam"), "@HD\n");
  StageRecord r;
  r.stage = "s";
  r.fingerprint = 42;
  r.complete = true;
  r.inputs.push_back(capture_artifact(dir.str(), "a.fa"));
  r.outputs.push_back(capture_artifact(dir.str(), "b.sam"));
  const ArtifactTable hashed{{"a.fa", r.inputs[0]}};
  EXPECT_EQ(validate_stage(r, dir.str(), 42, hashed), StageCheck::kValid);
}

TEST(ValidateStage, InputsAreCheckedAgainstTheTableNotTheDisk) {
  TempDir dir("validate_inputs");
  write_file(dir.file("a.fa"), ">r0\nACGT\n");
  StageRecord r;
  r.stage = "s";
  r.fingerprint = 42;
  r.complete = true;
  r.inputs.push_back(capture_artifact(dir.str(), "a.fa"));

  // The input's file is gone, but the run already holds its record.
  std::filesystem::remove(dir.file("a.fa"));
  EXPECT_EQ(validate_stage(r, dir.str(), 42, {{"a.fa", r.inputs[0]}}), StageCheck::kValid);
  // An input no earlier stage produced this run cannot be vouched for.
  EXPECT_EQ(validate_stage(r, dir.str(), 42, {}), StageCheck::kArtifactMissing);
  // The producer's current output differs from what this stage consumed.
  ArtifactRecord changed = r.inputs[0];
  changed.hash ^= 1;
  EXPECT_EQ(validate_stage(r, dir.str(), 42, {{"a.fa", changed}}),
            StageCheck::kArtifactModified);
}

TEST(ValidateStage, ReportsEveryFailureReason) {
  TempDir dir("validate_fail");
  write_file(dir.file("a.fa"), ">r0\nACGT\n");
  StageRecord r;
  r.stage = "s";
  r.fingerprint = 42;
  r.complete = true;
  r.outputs.push_back(capture_artifact(dir.str(), "a.fa"));

  EXPECT_EQ(validate_stage(r, dir.str(), 43, {}), StageCheck::kFingerprintMismatch);

  StageRecord incomplete = r;
  incomplete.complete = false;
  EXPECT_EQ(validate_stage(incomplete, dir.str(), 42, {}), StageCheck::kIncomplete);

  // Same size, different bytes: only the hash catches it.
  write_file(dir.file("a.fa"), ">r0\nACGA\n");
  EXPECT_EQ(validate_stage(r, dir.str(), 42, {}), StageCheck::kArtifactModified);

  std::filesystem::remove(dir.file("a.fa"));
  EXPECT_EQ(validate_stage(r, dir.str(), 42, {}), StageCheck::kArtifactMissing);
}

TEST(ValidateStage, CaptureOfMissingFileThrows) {
  TempDir dir("capture_missing");
  EXPECT_THROW((void)capture_artifact(dir.str(), "ghost.fa"), std::runtime_error);
}

TEST(ValidateStage, CaptureMatchesContentHash) {
  TempDir dir("capture_hash");
  const std::string content = "some stage artifact bytes";
  write_file(dir.file("x"), content);
  const ArtifactRecord a = capture_artifact(dir.str(), "x");
  EXPECT_EQ(a.bytes, content.size());
  EXPECT_EQ(a.hash, util::ContentHash().update(content).digest());
}

// --- fingerprint -----------------------------------------------------------------

TEST(Fingerprint, SensitiveToNameValueAndOrder) {
  const auto base = FingerprintBuilder().add("k", std::int64_t{25}).add("seed", true).digest();
  EXPECT_EQ(FingerprintBuilder().add("k", std::int64_t{25}).add("seed", true).digest(), base);
  EXPECT_NE(FingerprintBuilder().add("k", std::int64_t{26}).add("seed", true).digest(), base);
  EXPECT_NE(FingerprintBuilder().add("q", std::int64_t{25}).add("seed", true).digest(), base);
  EXPECT_NE(FingerprintBuilder().add("seed", true).add("k", std::int64_t{25}).digest(), base);
  EXPECT_NE(FingerprintBuilder().add("k", std::int64_t{25}).add("seed", false).digest(), base);
}

TEST(Fingerprint, DoubleUsesBitPattern) {
  const auto a = FingerprintBuilder().add("x", 0.1).digest();
  const auto b = FingerprintBuilder().add("x", 0.1 + 1e-18).digest();  // same double
  const auto c = FingerprintBuilder().add("x", 0.2).digest();
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

// --- retry policy ----------------------------------------------------------------

TEST(RetryPolicy, BackoffGrowsExponentiallyAndCaps) {
  RetryPolicy p;
  p.initial_backoff_seconds = 1.0;
  p.backoff_multiplier = 4.0;
  p.max_backoff_seconds = 10.0;
  EXPECT_DOUBLE_EQ(p.backoff_for(1), 1.0);
  EXPECT_DOUBLE_EQ(p.backoff_for(2), 4.0);
  EXPECT_DOUBLE_EQ(p.backoff_for(3), 10.0);  // 16 capped
}

TEST(RetryPolicy, DefaultBackoffIsZero) {
  RetryPolicy p;
  EXPECT_DOUBLE_EQ(p.backoff_for(1), 0.0);
  EXPECT_DOUBLE_EQ(p.backoff_for(10), 0.0);
}

// --- content hash ----------------------------------------------------------------

std::string random_bytes(std::size_t n, std::uint64_t seed) {
  std::string out(n, '\0');
  for (auto& c : out) {
    seed = util::mix64(seed + util::kGoldenGamma);
    c = static_cast<char>(seed);
  }
  return out;
}

std::uint64_t content_hash(std::string_view s) { return util::ContentHash().update(s).digest(); }

TEST(ContentHash, EverySplitPointGivesTheSameDigest) {
  const std::string buf = random_bytes(203, 1);
  const std::uint64_t whole = content_hash(buf);
  for (std::size_t cut = 0; cut <= buf.size(); ++cut) {
    util::ContentHash h;
    h.update(buf.data(), cut).update(buf.data() + cut, buf.size() - cut);
    EXPECT_EQ(h.digest(), whole) << "cut at " << cut;
  }
  // Byte-at-a-time streaming too, with digest() read midway (it is const).
  util::ContentHash h;
  for (std::size_t i = 0; i < buf.size(); ++i) {
    h.update(buf.data() + i, 1);
    if (i == 100) {
      EXPECT_EQ(h.digest(), content_hash(std::string_view(buf).substr(0, 101)));
    }
  }
  EXPECT_EQ(h.digest(), whole);
}

TEST(ContentHash, TailLengthsAndTrailingZerosAreDistinct) {
  // Lengths 0-64 cover every tail a stripe can leave; the zero-padding of
  // a short stripe must not make "x" and "x\0" collide.
  const std::string zeros(64, '\0');
  std::vector<std::uint64_t> seen;
  for (std::size_t n = 0; n <= 64; ++n) {
    const std::uint64_t d = content_hash(std::string_view(zeros).substr(0, n));
    EXPECT_EQ(std::count(seen.begin(), seen.end(), d), 0) << "length " << n;
    seen.push_back(d);
    const std::string buf = random_bytes(n, n);
    for (std::size_t cut = 0; cut <= n; ++cut) {
      util::ContentHash split;
      split.update(buf.data(), cut).update(buf.data() + cut, n - cut);
      EXPECT_EQ(split.digest(), content_hash(buf)) << "length " << n << " cut " << cut;
    }
  }
}

TEST(ContentHash, OneFlippedByteAnywhereChangesTheDigest) {
  std::string buf = random_bytes(131, 7);
  const std::uint64_t base = content_hash(buf);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    for (const unsigned char bit : {0x01, 0x80}) {
      buf[i] = static_cast<char>(buf[i] ^ bit);
      EXPECT_NE(content_hash(buf), base) << "byte " << i << " bit " << int{bit};
      buf[i] = static_cast<char>(buf[i] ^ bit);
    }
  }
}

TEST(ContentHash, ManifestsFromEarlierRunsKeepValidating) {
  // run_manifest.jsonl records each artifact's content hash, so the digest
  // of a fixed input may never change: if it did, every manifest an
  // earlier run wrote would fail validation and --resume would redo its
  // stages. Three 64-byte-multiple buffers with bytes 56-63 zeroed.
  const auto image = [](std::size_t n) {
    std::string buf(n, '\0');
    for (std::size_t i = 0; i < n; ++i) buf[i] = static_cast<char>((i * 131 + 7) & 0xff);
    std::fill(buf.begin() + 56, buf.begin() + 64, '\0');
    return buf;
  };
  EXPECT_EQ(content_hash(image(64)), 0xdd7243a0ea5d7f10ULL);
  EXPECT_EQ(content_hash(image(192)), 0x1390fa61aea44204ULL);
  EXPECT_EQ(content_hash(image(4096)), 0xd695f3bb87e82c6eULL);
}

TEST(ContentHash, FileHashMatchesInMemory) {
  TempDir dir("hash_file");
  // Larger than the 64 KiB read block, and not a multiple of it or of a
  // stripe, so block and stripe boundaries both fall mid-stream.
  const std::string content = random_bytes((1 << 16) * 2 + 77, 3);
  write_file(dir.file("big"), content);
  EXPECT_EQ(util::hash_file(dir.file("big")), content_hash(content));
  EXPECT_THROW((void)util::hash_file(dir.file("ghost")), std::runtime_error);
}

}  // namespace
}  // namespace trinity::checkpoint
