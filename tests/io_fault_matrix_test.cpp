// The pipeline-level fault matrix: injected storage failures against the
// real stage writers. Transient faults (EIO mid-spill, a short write on the
// final transcripts) are retried in process; permanent ones (ENOSPC or a
// torn rename at the manifest commit) fail the run with a typed IoError
// whose checkpoints make a `resume` re-launch byte-identical to an
// uninterrupted run. Plus graceful degradation: a tolerant run over a
// corrupted read file completes and reports exact quarantine counts in
// run_report.json (schema v2), while strict mode throws a located
// ParseError.

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "io/error.hpp"
#include "io/fault_plan.hpp"
#include "pipeline/run_report.hpp"
#include "pipeline/trinity_pipeline.hpp"
#include "sim/transcriptome.hpp"
#include "test_helpers.hpp"

namespace trinity::pipeline {
namespace {

using trinity::testing::TempDir;

PipelineOptions small_options(const std::string& work_dir) {
  PipelineOptions o;
  o.k = 15;
  o.nranks = 1;
  o.work_dir = work_dir;
  o.model_threads_per_rank = 4;
  o.max_mem_reads = 500;
  o.trace_sample_interval_ms = 0;
  // Single OpenMP thread keeps stage outputs bit-reproducible across runs,
  // which the byte-identity assertions below rely on.
  o.omp_threads = 1;
  return o;
}

sim::Dataset tiny_dataset() {
  auto p = sim::preset("tiny");
  p.reads.error_rate = 0.002;
  p.reads.coverage = 30.0;
  p.reads.expression_sigma = 0.7;
  return sim::simulate_dataset(p);
}

const sim::Dataset& shared_dataset() {
  static const sim::Dataset data = tiny_dataset();
  return data;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Reference transcripts from one clean run, computed once.
const std::string& baseline_transcripts() {
  static const std::string fasta = [] {
    const TempDir dir("matrix_baseline");
    run_pipeline(shared_dataset().reads.reads, small_options(dir.str()));
    return slurp(dir.file("Trinity.fa"));
  }();
  return fasta;
}

bool trace_has_phase(const PipelineResult& result, const std::string& name) {
  return std::any_of(result.trace.begin(), result.trace.end(),
                     [&](const auto& r) { return r.name == name; });
}

// --- transient faults: retried in process -----------------------------------------

TEST(IoFaultMatrix, EioOnKmerDumpIsRetriedInProcess) {
  const TempDir dir("matrix_eio");
  auto options = small_options(dir.str());
  options.io_fault = io::IoFaultPlan::parse("write:*kmers.bin:1:eio");
  const auto result = run_pipeline(shared_dataset().reads.reads, options);

  EXPECT_EQ(result.io_retries, 1);
  EXPECT_EQ(result.stage_retries, 1);
  EXPECT_TRUE(trace_has_phase(result, "jellyfish.retry2"));
  EXPECT_EQ(slurp(dir.file("Trinity.fa")), baseline_transcripts());
}

TEST(IoFaultMatrix, ShortWriteOnTranscriptsIsRetriedAndRewritesWhole) {
  const TempDir dir("matrix_short");
  auto options = small_options(dir.str());
  options.io_fault = io::IoFaultPlan::parse("write:*Trinity.fa:1:short_write");
  const auto result = run_pipeline(shared_dataset().reads.reads, options);

  EXPECT_EQ(result.io_retries, 1);
  EXPECT_TRUE(trace_has_phase(result, "butterfly.retry2"));
  // The retry must overwrite the torn half, not append to it.
  EXPECT_EQ(slurp(dir.file("Trinity.fa")), baseline_transcripts());
}

/// One transient EIO on the first write of `file`: `stage`, which writes
/// it, must retry in process and the run must end byte-identical.
void expect_eio_retried(const std::string& file, const std::string& stage) {
  const TempDir dir("matrix_eio_" + stage);
  auto options = small_options(dir.str());
  options.io_fault = io::IoFaultPlan::parse("write:*" + file + ":1:eio");
  const auto result = run_pipeline(shared_dataset().reads.reads, options);

  EXPECT_EQ(result.io_retries, 1);
  EXPECT_EQ(result.stage_retries, 1);
  EXPECT_TRUE(trace_has_phase(result, stage + ".retry2"));
  EXPECT_EQ(slurp(dir.file("Trinity.fa")), baseline_transcripts());
}

TEST(IoFaultMatrix, EioOnSamIsRetriedInProcess) {
  expect_eio_retried("bowtie.sam", "chrysalis.bowtie");
}

TEST(IoFaultMatrix, EioOnComponentsIsRetriedInProcess) {
  expect_eio_retried("components.txt", "chrysalis.graph_from_fasta");
}

TEST(IoFaultMatrix, EioOnAssignmentsIsRetriedInProcess) {
  expect_eio_retried("readsToComponents.out.tsv", "chrysalis.reads_to_transcripts");
}

TEST(IoFaultMatrix, ExhaustedRetryBudgetSurfacesTheTypedError) {
  const TempDir dir("matrix_budget");
  auto options = small_options(dir.str());
  // No retry budget: even a transient fault must surface as the typed
  // error instead of being swallowed.
  options.retry.max_attempts = 1;
  options.io_fault = io::IoFaultPlan::parse("write:*kmers.bin:1:eio");
  try {
    run_pipeline(shared_dataset().reads.reads, options);
    FAIL() << "expected IoError";
  } catch (const io::IoError& e) {
    EXPECT_TRUE(e.transient());
    EXPECT_NE(std::string(e.what()).find("kmers.bin"), std::string::npos);
  }
}

// --- permanent faults: fail fast, recover via resume ------------------------------

TEST(IoFaultMatrix, EnospcOnManifestCommitFailsFastThenResumes) {
  const TempDir dir("matrix_enospc");
  auto options = small_options(dir.str());
  // The third commit (after the inchworm stage) hits a full disk.
  options.io_fault = io::IoFaultPlan::parse("write:*run_manifest.jsonl.tmp:3:enospc");
  try {
    run_pipeline(shared_dataset().reads.reads, options);
    FAIL() << "expected IoError";
  } catch (const io::IoError& e) {
    EXPECT_FALSE(e.transient());
    EXPECT_EQ(e.error_code(), ENOSPC);
  }

  // The atomic commit preserved the previous manifest: two stages recorded.
  const auto manifest = checkpoint::RunManifest::load(dir.file(kManifestFileName));
  ASSERT_EQ(manifest.records().size(), 2u);
  EXPECT_EQ(manifest.records()[0].stage, "write_input");
  EXPECT_EQ(manifest.records()[1].stage, "jellyfish");

  // Re-launch with resume (the disk "has space again"): the recorded
  // stages are skipped and the result is byte-identical.
  auto resume_options = small_options(dir.str());
  resume_options.resume = true;
  const auto result = run_pipeline(shared_dataset().reads.reads, resume_options);
  EXPECT_EQ(result.stages_resumed, (std::vector<std::string>{"write_input", "jellyfish"}));
  EXPECT_EQ(slurp(dir.file("Trinity.fa")), baseline_transcripts());
}

TEST(IoFaultMatrix, TornManifestRenameIsAbsorbedByResume) {
  const TempDir dir("matrix_torn");
  auto options = small_options(dir.str());
  // The third manifest commit crashes mid-rename: the manifest on disk is
  // a torn half of the three-stage document.
  options.io_fault = io::IoFaultPlan::parse("rename:*run_manifest.jsonl:3:torn_rename");
  try {
    run_pipeline(shared_dataset().reads.reads, options);
    FAIL() << "expected IoError";
  } catch (const io::IoError& e) {
    EXPECT_FALSE(e.transient());
    EXPECT_EQ(e.op(), "rename");
  }

  // The loader drops the torn tail instead of crashing; whatever complete
  // prefix survived is what resume can reuse.
  const auto manifest = checkpoint::RunManifest::load(dir.file(kManifestFileName));
  EXPECT_LT(manifest.records().size(), 3u);

  auto resume_options = small_options(dir.str());
  resume_options.resume = true;
  const auto result = run_pipeline(shared_dataset().reads.reads, resume_options);
  EXPECT_FALSE(result.stages_executed.empty());
  EXPECT_EQ(slurp(dir.file("Trinity.fa")), baseline_transcripts());
}

// --- graceful degradation over a corrupted read file ------------------------------

/// Writes the dataset's reads as FASTA with injected corruption: a junk
/// leading line (missing_header) and two records with bad sequence bytes
/// (invalid_character).
std::string write_corrupted_reads(const TempDir& dir) {
  const std::string path = dir.file("corrupted_reads.fa");
  std::ofstream out(path, std::ios::binary);
  out << "junk leading line\n";  // quarantined: missing_header
  for (const auto& r : shared_dataset().reads.reads) {
    out << '>' << r.name << '\n' << r.bases << '\n';
  }
  out << ">bad_record_1\nAC!TACGT\n";  // quarantined: invalid_character
  out << ">bad_record_2\nACGT#CGT\n";  // quarantined: invalid_character
  return path;
}

TEST(IoFaultMatrix, TolerantRunOverCorruptedReadsCompletesAndReportsCounts) {
  const TempDir dir("matrix_tolerant");
  const auto reads_path = write_corrupted_reads(dir);
  auto options = small_options(dir.str());
  options.parse_policy = seq::ParsePolicy::kTolerant;
  const auto result = run_pipeline_from_file(reads_path, options);

  // Quarantining dropped exactly the three corrupt records; the surviving
  // read set is the clean dataset, so the transcripts are byte-identical
  // to the clean baseline.
  const auto n_reads = shared_dataset().reads.reads.size();
  EXPECT_EQ(result.parse.of(io::ParseCategory::kMissingHeader), 1u);
  EXPECT_EQ(result.parse.of(io::ParseCategory::kInvalidCharacter), 2u);
  EXPECT_EQ(result.parse.records_quarantined(), 3u);
  // records_ok covers both the input-file read and the r2t re-stream of
  // the clean rewritten reads.fa.
  EXPECT_GE(result.parse.records_ok, n_reads);
  EXPECT_EQ(slurp(dir.file("Trinity.fa")), baseline_transcripts());

  // The quarantine counts are in the v2 run report, per category.
  const auto report = load_run_report(result.report_path);
  EXPECT_EQ(report.at("schema_version").as_int(), kReportSchemaVersion);
  const auto& parse = report.at("parse");
  EXPECT_EQ(parse.at("policy").as_string(), "tolerant");
  EXPECT_EQ(parse.at("records_quarantined").as_int(), 3);
  EXPECT_EQ(parse.at("quarantined").at("missing_header").as_int(), 1);
  EXPECT_EQ(parse.at("quarantined").at("invalid_character").as_int(), 2);
  EXPECT_EQ(parse.at("quarantined").at("truncated_record").as_int(), 0);
}

TEST(IoFaultMatrix, StrictRunOverCorruptedReadsThrowsLocatedParseError) {
  const TempDir dir("matrix_strict");
  const auto reads_path = write_corrupted_reads(dir);
  auto options = small_options(dir.str());
  try {
    run_pipeline_from_file(reads_path, options);
    FAIL() << "expected ParseError";
  } catch (const io::ParseError& e) {
    EXPECT_EQ(e.category(), io::ParseCategory::kMissingHeader);
    EXPECT_EQ(e.path(), reads_path);
    EXPECT_EQ(e.line(), 1u);
    EXPECT_EQ(e.byte_offset(), 0u);
  }
}

TEST(IoFaultMatrix, RepairRunKeepsTheRepairedRecords) {
  const TempDir dir("matrix_repair");
  const auto reads_path = write_corrupted_reads(dir);
  auto options = small_options(dir.str());
  options.parse_policy = seq::ParsePolicy::kRepair;
  const auto result = run_pipeline_from_file(reads_path, options);

  // The two bad-base records are repaired (kept, with 'N's), so the read
  // set differs from the clean baseline — the run must still complete and
  // account for every record.
  EXPECT_EQ(result.parse.records_repaired, 2u);
  EXPECT_EQ(result.parse.of(io::ParseCategory::kMissingHeader), 1u);
  EXPECT_EQ(result.parse.records_quarantined(), 1u);
  EXPECT_TRUE(std::filesystem::exists(dir.file("Trinity.fa")));
}

}  // namespace
}  // namespace trinity::pipeline
