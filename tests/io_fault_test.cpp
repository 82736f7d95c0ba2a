// Unit tests for the fault-injecting I/O layer: the typed error taxonomy,
// glob/plan matching and parsing, the IoFile fault semantics (ENOSPC, EIO,
// short write, torn rename), atomic-commit behavior under injected
// failures, and manifest truncation tolerance.

#include <gtest/gtest.h>

#include <cerrno>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "checkpoint/manifest.hpp"
#include "io/error.hpp"
#include "io/fault_plan.hpp"
#include "io/io_file.hpp"
#include "test_helpers.hpp"

namespace trinity::io {
namespace {

using trinity::testing::TempDir;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// --- taxonomy ---------------------------------------------------------------------

TEST(IoErrorTaxonomy, ClassifiesErrnos) {
  EXPECT_EQ(classify_errno(EIO), IoErrorKind::kTransient);
  EXPECT_EQ(classify_errno(EINTR), IoErrorKind::kTransient);
  EXPECT_EQ(classify_errno(EAGAIN), IoErrorKind::kTransient);
  EXPECT_EQ(classify_errno(ENOSPC), IoErrorKind::kPermanent);
  EXPECT_EQ(classify_errno(ENOENT), IoErrorKind::kPermanent);
  EXPECT_EQ(classify_errno(EACCES), IoErrorKind::kPermanent);
  // Unknown codes fail fast rather than retry blindly.
  EXPECT_EQ(classify_errno(0), IoErrorKind::kPermanent);
}

TEST(IoErrorTaxonomy, MessageCarriesOpPathAndKind) {
  const IoError e(IoErrorKind::kTransient, "write", "/tmp/x.bin", EIO, "boom");
  EXPECT_TRUE(e.transient());
  EXPECT_EQ(e.op(), "write");
  EXPECT_EQ(e.path(), "/tmp/x.bin");
  EXPECT_EQ(e.error_code(), EIO);
  const std::string what = e.what();
  EXPECT_NE(what.find("write"), std::string::npos);
  EXPECT_NE(what.find("/tmp/x.bin"), std::string::npos);
  EXPECT_NE(what.find("transient"), std::string::npos);
}

TEST(IoErrorTaxonomy, ParseErrorCarriesLocation) {
  const ParseError e(ParseCategory::kBadSeparator, "reads.fq", 7, 123, "bad '+'");
  EXPECT_EQ(e.category(), ParseCategory::kBadSeparator);
  EXPECT_EQ(e.path(), "reads.fq");
  EXPECT_EQ(e.line(), 7u);
  EXPECT_EQ(e.byte_offset(), 123u);
  const std::string what = e.what();
  EXPECT_NE(what.find("reads.fq:7:"), std::string::npos);
  EXPECT_NE(what.find("byte offset 123"), std::string::npos);
  EXPECT_NE(what.find("bad_separator"), std::string::npos);
}

// --- plan matching ----------------------------------------------------------------

TEST(IoFaultPlan, GlobMatching) {
  EXPECT_TRUE(glob_match("*", "anything/at/all"));
  EXPECT_TRUE(glob_match("*.tmp", "/work/run_manifest.jsonl.tmp"));
  EXPECT_FALSE(glob_match("*.tmp", "/work/run_manifest.jsonl"));
  EXPECT_TRUE(glob_match("*kmer_part_*.bin", "/t/kmer_part_3.bin"));
  EXPECT_TRUE(glob_match("ab?", "abc"));
  EXPECT_FALSE(glob_match("ab?", "ab"));
  EXPECT_TRUE(glob_match("a*b*c", "a-x-b-y-c"));
  EXPECT_FALSE(glob_match("a*b*c", "a-x-c"));
}

TEST(IoFaultPlan, ParsesSpecStrings) {
  const auto plan = IoFaultPlan::parse("write:*run_manifest.jsonl.tmp:1:enospc");
  EXPECT_EQ(plan.op, IoOp::kWrite);
  EXPECT_EQ(plan.path_glob, "*run_manifest.jsonl.tmp");
  EXPECT_EQ(plan.at_op, 1);
  EXPECT_EQ(plan.kind, IoFaultKind::kEnospc);
  EXPECT_EQ(plan.max_fires, 1);

  const auto multi = IoFaultPlan::parse("rename:*.jsonl:3:torn_rename:2");
  EXPECT_EQ(multi.op, IoOp::kRename);
  EXPECT_EQ(multi.at_op, 3);
  EXPECT_EQ(multi.kind, IoFaultKind::kTornRename);
  EXPECT_EQ(multi.max_fires, 2);

  EXPECT_THROW(IoFaultPlan::parse("write:*"), std::invalid_argument);
  EXPECT_THROW(IoFaultPlan::parse("frobnicate:*:1:eio"), std::invalid_argument);
  EXPECT_THROW(IoFaultPlan::parse("write:*:0:eio"), std::invalid_argument);
  EXPECT_THROW(IoFaultPlan::parse("write:*:1:nope"), std::invalid_argument);
}

TEST(IoFaultPlan, FireBudgetIsSharedAcrossCopies) {
  IoFaultPlan plan;
  plan.op = IoOp::kWrite;
  plan.path_glob = "*";
  plan.kind = IoFaultKind::kEio;
  plan.arm();
  IoFaultPlan copy = plan;  // shares the budget atomics
  EXPECT_TRUE(copy.should_fire(IoOp::kWrite, "a"));
  EXPECT_FALSE(plan.should_fire(IoOp::kWrite, "b"));  // budget consumed via the copy
}

TEST(IoFaultPlan, FiresOnTheNthMatchingOpOnly) {
  IoFaultPlan plan;
  plan.op = IoOp::kWrite;
  plan.path_glob = "*target*";
  plan.at_op = 3;
  plan.kind = IoFaultKind::kEio;
  plan.arm();
  EXPECT_FALSE(plan.should_fire(IoOp::kOpen, "target"));     // wrong op
  EXPECT_FALSE(plan.should_fire(IoOp::kWrite, "other"));     // wrong path
  EXPECT_FALSE(plan.should_fire(IoOp::kWrite, "target"));    // match #1
  EXPECT_FALSE(plan.should_fire(IoOp::kWrite, "target"));    // match #2
  EXPECT_TRUE(plan.should_fire(IoOp::kWrite, "target"));     // match #3 fires
  EXPECT_FALSE(plan.should_fire(IoOp::kWrite, "target"));    // budget gone
}

// --- IoFile fault semantics -------------------------------------------------------

TEST(IoFileFaults, NoPlanWritesNormally) {
  const TempDir dir("io_plain");
  const std::string path = dir.file("out.txt");
  write_file(path, "hello");
  EXPECT_EQ(slurp(path), "hello");
  EXPECT_EQ(file_size(path), 5u);
}

TEST(IoFileFaults, EnospcThrowsPermanent) {
  const TempDir dir("io_enospc");
  const std::string path = dir.file("out.txt");
  ScopedFaultInjection fault(IoFaultPlan::parse("write:*out.txt:1:enospc"));
  try {
    write_file(path, "payload");
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_FALSE(e.transient());
    EXPECT_EQ(e.error_code(), ENOSPC);
    EXPECT_EQ(e.path(), path);
  }
  // Budget consumed: the retry succeeds.
  write_file(path, "payload");
  EXPECT_EQ(slurp(path), "payload");
}

TEST(IoFileFaults, ShortWriteLandsHalfThenThrowsTransient) {
  const TempDir dir("io_short");
  const std::string path = dir.file("out.bin");
  ScopedFaultInjection fault(IoFaultPlan::parse("write:*out.bin:1:short_write"));
  try {
    write_file(path, "0123456789");
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_TRUE(e.transient());
  }
  // The partial prefix is on disk — exactly the hazard a consumer must
  // never read as complete.
  EXPECT_EQ(slurp(path), "01234");
  // A retry rewrites the file whole.
  write_file(path, "0123456789");
  EXPECT_EQ(slurp(path), "0123456789");
}

TEST(IoFileFaults, TornRenameLeavesTruncatedDestination) {
  const TempDir dir("io_torn");
  const std::string path = dir.file("data.txt");
  ScopedFaultInjection fault(IoFaultPlan::parse("rename:*data.txt:1:torn_rename"));
  try {
    write_file_atomic(path, "ABCDEFGHIJ");
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_FALSE(e.transient());
    EXPECT_EQ(e.op(), "rename");
  }
  // The crash model: the destination holds only a prefix of the commit.
  EXPECT_EQ(slurp(path), "ABCDE");
}

TEST(IoFileFaults, AtomicWritePreservesOldContentWhenTmpWriteFails) {
  const TempDir dir("io_atomic");
  const std::string path = dir.file("state.txt");
  write_file(path, "old-state");
  ScopedFaultInjection fault(IoFaultPlan::parse("write:*state.txt.tmp:1:enospc"));
  EXPECT_THROW(write_file_atomic(path, "new-state"), IoError);
  EXPECT_EQ(slurp(path), "old-state");  // the commit primitive's guarantee
}

TEST(IoFileFaults, ScopedInjectionRestoresThePreviousPlan) {
  IoFaultPlan outer;
  outer.op = IoOp::kFsync;
  outer.path_glob = "*outer*";
  outer.kind = IoFaultKind::kEio;
  set_fault_plan(outer);
  {
    ScopedFaultInjection inner(IoFaultPlan::parse("write:*inner*:1:enospc"));
    EXPECT_EQ(current_fault_plan().path_glob, "*inner*");
  }
  EXPECT_EQ(current_fault_plan().path_glob, "*outer*");
  clear_fault_plan();
  EXPECT_FALSE(current_fault_plan().enabled());
}

// --- production writers under faults ----------------------------------------------

TEST(ManifestFaults, EnospcOnCommitKeepsThePreviousManifest) {
  const TempDir dir("manifest_enospc");
  const std::string path = dir.file("run_manifest.jsonl");
  checkpoint::RunManifest manifest(path);
  checkpoint::StageRecord rec;
  rec.stage = "alpha";
  rec.fingerprint = 1;
  rec.complete = true;
  manifest.upsert(rec);
  manifest.commit();

  rec.stage = "beta";
  manifest.upsert(rec);
  ScopedFaultInjection fault(IoFaultPlan::parse("write:*run_manifest.jsonl.tmp:1:enospc"));
  EXPECT_THROW(manifest.commit(), IoError);
  const auto reloaded = checkpoint::RunManifest::load(path);
  ASSERT_EQ(reloaded.records().size(), 1u);  // old content intact
  EXPECT_EQ(reloaded.records()[0].stage, "alpha");
}

TEST(ManifestFaults, TornRenameTailIsDroppedByTheLoader) {
  const TempDir dir("manifest_torn");
  const std::string path = dir.file("run_manifest.jsonl");
  checkpoint::RunManifest manifest(path);
  checkpoint::StageRecord rec;
  rec.complete = true;
  rec.fingerprint = 42;
  for (const char* stage : {"alpha", "beta", "gamma"}) {
    rec.stage = stage;
    manifest.upsert(rec);
  }
  ScopedFaultInjection fault(IoFaultPlan::parse("rename:*run_manifest.jsonl:1:torn_rename"));
  EXPECT_THROW(manifest.commit(), IoError);

  // The torn commit left a half-written manifest; the tolerant loader keeps
  // the complete prefix lines and drops the torn tail instead of crashing.
  const auto reloaded = checkpoint::RunManifest::load(path);
  EXPECT_LT(reloaded.records().size(), 3u);
  for (const auto& r : reloaded.records()) EXPECT_EQ(r.fingerprint, 42u);
}

TEST(ManifestFaults, TruncationCorpusNeverCrashesTheLoader) {
  const TempDir dir("manifest_corpus");
  const std::string path = dir.file("run_manifest.jsonl");
  checkpoint::RunManifest manifest(path);
  checkpoint::StageRecord rec;
  rec.complete = true;
  for (const char* stage : {"alpha", "beta", "gamma"}) {
    rec.stage = stage;
    manifest.upsert(rec);
  }
  manifest.commit();
  const std::string full = slurp(path);

  // Truncate at every byte offset: the loader must never throw, and every
  // record it does return must be one of the committed ones.
  std::size_t line_boundaries = 0;
  for (std::size_t len = 0; len <= full.size(); ++len) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << full.substr(0, len);
    const auto loaded = checkpoint::RunManifest::load(path);
    for (const auto& r : loaded.records()) {
      EXPECT_TRUE(r.stage == "alpha" || r.stage == "beta" || r.stage == "gamma") << r.stage;
    }
    if (len > 0 && full[len - 1] == '\n') {
      ++line_boundaries;
      EXPECT_EQ(loaded.dropped_lines(), 0u) << "clean cut at " << len;
    }
  }
  EXPECT_EQ(line_boundaries, 3u);
}

}  // namespace
}  // namespace trinity::io
