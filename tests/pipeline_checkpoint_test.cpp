// Integration tests for pipeline checkpoint/restart: manifest recording,
// stage-level resume, invalidation (corrupt manifest, stale options,
// damaged artifacts), the in-process retry driver, and the paper-style
// fault-then-relaunch scenario producing byte-identical transcripts.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "checkpoint/manifest.hpp"
#include "pipeline/trinity_pipeline.hpp"
#include "sim/transcriptome.hpp"
#include "test_helpers.hpp"

namespace trinity::pipeline {
namespace {

using trinity::testing::TempDir;

const std::vector<std::string> kAllStages = {
    "write_input",        "jellyfish",
    "inchworm",           "chrysalis.bowtie",
    "chrysalis.graph_from_fasta", "chrysalis.reads_to_transcripts",
    "butterfly"};

PipelineOptions small_options(const std::string& work_dir, int nranks = 1) {
  PipelineOptions o;
  o.k = 15;
  o.nranks = nranks;
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

/// A FaultPlan that kills `rank` at its first simpi call of the targeted
/// stage (virtual-time trigger at 0 so it is independent of which
/// collectives the stage happens to use).
simpi::FaultPlan kill_rank(int rank) {
  simpi::FaultPlan plan;
  plan.rank = rank;
  plan.after_virtual_seconds = 0.0;
  return plan;
}

std::vector<std::string> stages_from(const std::vector<std::string>& all, std::size_t first) {
  return {all.begin() + static_cast<std::ptrdiff_t>(first), all.end()};
}

std::vector<std::string> stages_until(const std::vector<std::string>& all, std::size_t end) {
  return {all.begin(), all.begin() + static_cast<std::ptrdiff_t>(end)};
}

// --- recording -------------------------------------------------------------------

TEST(PipelineCheckpoint, FreshRunRecordsEveryStage) {
  const TempDir dir("ckpt_record");
  const auto& data = shared_dataset();
  const auto result = run_pipeline(data.reads.reads, small_options(dir.str()));

  EXPECT_EQ(result.stages_executed, kAllStages);
  EXPECT_TRUE(result.stages_resumed.empty());
  EXPECT_EQ(result.stage_retries, 0);

  const auto manifest = checkpoint::RunManifest::load(dir.file(kManifestFileName));
  ASSERT_EQ(manifest.records().size(), kAllStages.size());
  for (std::size_t i = 0; i < kAllStages.size(); ++i) {
    const auto& rec = manifest.records()[i];
    EXPECT_EQ(rec.stage, kAllStages[i]);
    EXPECT_TRUE(rec.complete);
    EXPECT_EQ(rec.fingerprint, result.options_fingerprint);
    EXPECT_EQ(rec.attempt, 1);
    for (const auto& artifact : rec.outputs) {
      EXPECT_EQ(checkpoint::capture_artifact(dir.str(), artifact.path), artifact)
          << rec.stage << " output " << artifact.path << " drifted from its record";
    }
  }

  // Checkpoint overhead is traced per stage.
  std::vector<std::string> phases;
  for (const auto& r : result.trace) phases.push_back(r.name);
  for (const auto& stage : kAllStages) {
    EXPECT_NE(std::find(phases.begin(), phases.end(), stage + ".checkpoint"), phases.end())
        << stage;
  }
}

TEST(PipelineCheckpoint, EachArtifactIsHashedOnce) {
  const TempDir dir("ckpt_bytes");
  const auto result = run_pipeline(shared_dataset().reads.reads, small_options(dir.str()));

  // Every stage input is an earlier stage's output, so the bytes hashed
  // across the .checkpoint phases are exactly the seven artifacts' sizes.
  double hashed = 0.0;
  for (const auto& phase : result.trace) {
    if (const auto* c = phase.counter("checkpoint_bytes")) hashed += c->value;
  }
  std::uintmax_t artifacts = 0;
  for (const char* name : {"reads.fa", "kmers.bin", "inchworm.fa", "bowtie.sam",
                           "components.txt", "readsToComponents.out.tsv", "Trinity.fa"}) {
    artifacts += std::filesystem::file_size(dir.file(name));
  }
  EXPECT_EQ(hashed, static_cast<double>(artifacts));
}

TEST(PipelineCheckpoint, CheckpointOffWritesNoManifest) {
  const TempDir dir("ckpt_off");
  auto options = small_options(dir.str());
  options.checkpoint = false;
  const auto result = run_pipeline(shared_dataset().reads.reads, options);
  EXPECT_FALSE(std::filesystem::exists(dir.file(kManifestFileName)));
  EXPECT_EQ(result.stages_executed, kAllStages);
  for (const auto& r : result.trace) {
    EXPECT_EQ(r.name.find(".checkpoint"), std::string::npos) << r.name;
  }
}

// --- resume ----------------------------------------------------------------------

TEST(PipelineCheckpoint, ResumeSkipsEveryValidStage) {
  const TempDir dir("ckpt_resume_all");
  const auto& data = shared_dataset();
  auto options = small_options(dir.str());
  const auto first = run_pipeline(data.reads.reads, options);
  const std::string transcripts = slurp(dir.file("Trinity.fa"));

  options.resume = true;
  const auto second = run_pipeline(data.reads.reads, options);
  EXPECT_TRUE(second.stages_executed.empty());
  EXPECT_EQ(second.stages_resumed, kAllStages);

  // The resumed run reconstructs the full in-memory result from artifacts.
  ASSERT_EQ(second.transcripts.size(), first.transcripts.size());
  for (std::size_t i = 0; i < first.transcripts.size(); ++i) {
    EXPECT_EQ(second.transcripts[i].name, first.transcripts[i].name);
    EXPECT_EQ(second.transcripts[i].bases, first.transcripts[i].bases);
  }
  EXPECT_EQ(second.contigs.size(), first.contigs.size());
  EXPECT_EQ(second.assignments.size(), first.assignments.size());
  EXPECT_EQ(slurp(dir.file("Trinity.fa")), transcripts);
}

TEST(PipelineCheckpoint, FullResumeReadsNoIntermediateProduct) {
  // A resumed stage loads nothing; only an executing reader loads its
  // inputs. Replace kmers.bin and bowtie.sam with files no loader accepts
  // (a dump cut mid-record, a SAM record naming an unknown contig) and
  // re-record their hashes: a fully resumed run must never read them.
  const TempDir dir("ckpt_resume_lazy");
  const auto& data = shared_dataset();
  auto options = small_options(dir.str());
  run_pipeline(data.reads.reads, options);
  const std::string transcripts = slurp(dir.file("Trinity.fa"));

  std::filesystem::resize_file(dir.file("kmers.bin"),
                               std::filesystem::file_size(dir.file("kmers.bin")) - 3);
  {
    std::ofstream sam(dir.file("bowtie.sam"), std::ios::app);
    sam << "r_unknown\t0\tno_such_contig\t1\t255\t10M\t*\t0\t0\t*\t*\tNM:i:0\n";
  }
  auto manifest = checkpoint::RunManifest::load(dir.file(kManifestFileName));
  for (const auto& stage : kAllStages) {
    auto record = *manifest.find(stage);
    for (auto* artifacts : {&record.inputs, &record.outputs}) {
      for (auto& a : *artifacts) {
        if (a.path == "kmers.bin" || a.path == "bowtie.sam") {
          a = checkpoint::capture_artifact(dir.str(), a.path);
        }
      }
    }
    manifest.upsert(record);
  }
  manifest.commit();

  options.resume = true;
  const auto result = run_pipeline(data.reads.reads, options);
  EXPECT_TRUE(result.stages_executed.empty());
  EXPECT_EQ(result.stages_resumed, kAllStages);
  EXPECT_EQ(slurp(dir.file("Trinity.fa")), transcripts);
}

TEST(PipelineCheckpoint, ResumeWithoutManifestRunsEverything) {
  const TempDir dir("ckpt_resume_cold");
  auto options = small_options(dir.str());
  options.resume = true;  // nothing to resume from: must behave like a fresh run
  const auto result = run_pipeline(shared_dataset().reads.reads, options);
  EXPECT_EQ(result.stages_executed, kAllStages);
  EXPECT_TRUE(result.stages_resumed.empty());
  EXPECT_FALSE(result.transcripts.empty());
}

TEST(PipelineCheckpoint, ModifiedArtifactRerunsFromThatStage) {
  const TempDir dir("ckpt_modified");
  const auto& data = shared_dataset();
  auto options = small_options(dir.str());
  run_pipeline(data.reads.reads, options);
  const std::string transcripts = slurp(dir.file("Trinity.fa"));

  // Same-size corruption of the Inchworm output: only the hash can see it.
  {
    std::fstream f(dir.file("inchworm.fa"),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(3);
    f.put('X');
  }

  options.resume = true;
  const auto result = run_pipeline(data.reads.reads, options);
  EXPECT_EQ(result.stages_resumed, stages_until(kAllStages, 2));
  EXPECT_EQ(result.stages_executed, stages_from(kAllStages, 2));
  // Recomputation from intact upstream artifacts restores the output.
  EXPECT_EQ(slurp(dir.file("Trinity.fa")), transcripts);
}

TEST(PipelineCheckpoint, MissingArtifactRerunsFromThatStage) {
  const TempDir dir("ckpt_missing");
  const auto& data = shared_dataset();
  auto options = small_options(dir.str());
  run_pipeline(data.reads.reads, options);
  std::filesystem::remove(dir.file("bowtie.sam"));

  options.resume = true;
  const auto result = run_pipeline(data.reads.reads, options);
  EXPECT_EQ(result.stages_resumed, stages_until(kAllStages, 3));
  EXPECT_EQ(result.stages_executed, stages_from(kAllStages, 3));
  EXPECT_TRUE(std::filesystem::exists(dir.file("bowtie.sam")));
}

TEST(PipelineCheckpoint, ConsumerInputDriftRerunsFromTheConsumer) {
  const TempDir dir("ckpt_input_drift");
  const auto& data = shared_dataset();
  auto options = small_options(dir.str());
  run_pipeline(data.reads.reads, options);

  // GraphFromFasta's record says it consumed a bowtie.sam other than the
  // one chrysalis.bowtie's record (and the disk) now hold: its stored
  // input record is what catches the drift.
  auto manifest = checkpoint::RunManifest::load(dir.file(kManifestFileName));
  auto record = *manifest.find("chrysalis.graph_from_fasta");
  const auto sam = std::find_if(record.inputs.begin(), record.inputs.end(),
                                [](const auto& a) { return a.path == "bowtie.sam"; });
  ASSERT_NE(sam, record.inputs.end());
  sam->hash ^= 1;
  manifest.upsert(record);
  manifest.commit();

  const std::string transcripts = slurp(dir.file("Trinity.fa"));
  options.resume = true;
  const auto result = run_pipeline(data.reads.reads, options);
  EXPECT_EQ(result.stages_resumed, stages_until(kAllStages, 4));
  EXPECT_EQ(result.stages_executed, stages_from(kAllStages, 4));
  // GraphFromFasta loaded the resumed stages' k-mer counts and alignments
  // from disk and clustered as the first run did.
  EXPECT_EQ(slurp(dir.file("Trinity.fa")), transcripts);
}

TEST(PipelineCheckpoint, RecordOmittingAnOutputRerunsThatStage) {
  const TempDir dir("ckpt_omitted_output");
  const auto& data = shared_dataset();
  auto options = small_options(dir.str());
  run_pipeline(data.reads.reads, options);
  const std::string transcripts = slurp(dir.file("Trinity.fa"));

  // Inchworm's record lists no outputs, and its output is corrupt: the
  // record vouches for nothing, so the stage must not resume.
  auto manifest = checkpoint::RunManifest::load(dir.file(kManifestFileName));
  auto record = *manifest.find("inchworm");
  record.outputs.clear();
  manifest.upsert(record);
  manifest.commit();
  {
    std::fstream f(dir.file("inchworm.fa"), std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(3);
    f.put('X');
  }

  options.resume = true;
  const auto result = run_pipeline(data.reads.reads, options);
  EXPECT_EQ(result.stages_resumed, stages_until(kAllStages, 2));
  EXPECT_EQ(result.stages_executed, stages_from(kAllStages, 2));
  EXPECT_EQ(slurp(dir.file("Trinity.fa")), transcripts);
}

TEST(PipelineCheckpoint, StaleOptionsFingerprintForcesFullRerun) {
  const TempDir dir("ckpt_stale");
  const auto& data = shared_dataset();
  auto options = small_options(dir.str());
  run_pipeline(data.reads.reads, options);

  options.resume = true;
  options.min_kmer_count = 3;  // output-affecting: every record is stale
  const auto result = run_pipeline(data.reads.reads, options);
  EXPECT_TRUE(result.stages_resumed.empty());
  EXPECT_EQ(result.stages_executed, kAllStages);
}

TEST(PipelineCheckpoint, SchedulingKnobsDoNotInvalidateCheckpoints) {
  const TempDir dir("ckpt_sched");
  const auto& data = shared_dataset();
  auto options = small_options(dir.str());
  run_pipeline(data.reads.reads, options);

  // Resuming a crashed 1-rank run on 2 ranks (or more model threads) is
  // legitimate: scheduling never changes results.
  options.resume = true;
  options.nranks = 2;
  options.model_threads_per_rank = 8;
  const auto result = run_pipeline(data.reads.reads, options);
  EXPECT_EQ(result.stages_resumed, kAllStages);
  EXPECT_TRUE(result.stages_executed.empty());
}

TEST(PipelineCheckpoint, TruncatedManifestLineRerunsOnlyThatStage) {
  const TempDir dir("ckpt_truncated");
  const auto& data = shared_dataset();
  auto options = small_options(dir.str());
  run_pipeline(data.reads.reads, options);

  // Chop the tail of the manifest: the final line (butterfly) becomes a
  // torn write, exactly what a crash mid-commit leaves behind.
  const std::string path = dir.file(kManifestFileName);
  std::string contents = slurp(path);
  contents.resize(contents.size() - 10);
  std::ofstream(path, std::ios::binary) << contents;

  options.resume = true;
  const auto result = run_pipeline(data.reads.reads, options);
  EXPECT_EQ(result.stages_resumed, stages_until(kAllStages, kAllStages.size() - 1));
  EXPECT_EQ(result.stages_executed,
            std::vector<std::string>{std::string("butterfly")});
}

TEST(PipelineCheckpoint, GarbageManifestNeverCrashes) {
  const TempDir dir("ckpt_garbage");
  const auto& data = shared_dataset();
  auto options = small_options(dir.str());
  std::ofstream(dir.file(kManifestFileName))
      << "this is not json\n{\"stage\":\n\x01\x02\x03\n";
  options.resume = true;
  const auto result = run_pipeline(data.reads.reads, options);
  EXPECT_EQ(result.stages_executed, kAllStages);
  EXPECT_FALSE(result.transcripts.empty());
}

// --- fault injection + retry -----------------------------------------------------

TEST(PipelineCheckpoint, InjectedFaultIsRetriedInProcess) {
  const TempDir dir("ckpt_retry");
  const TempDir baseline_dir("ckpt_retry_baseline");
  const auto& data = shared_dataset();

  auto baseline_options = small_options(baseline_dir.str(), /*nranks=*/3);
  const auto baseline = run_pipeline(data.reads.reads, baseline_options);

  auto options = small_options(dir.str(), /*nranks=*/3);
  options.fault = kill_rank(1);
  options.fault_stage = "chrysalis.graph_from_fasta";
  const auto result = run_pipeline(data.reads.reads, options);

  EXPECT_EQ(result.stage_retries, 1);
  EXPECT_EQ(result.stages_executed, kAllStages);
  // The retried attempt appears in the trace; the manifest records the
  // attempt number that finally succeeded.
  std::vector<std::string> phases;
  for (const auto& r : result.trace) phases.push_back(r.name);
  EXPECT_NE(std::find(phases.begin(), phases.end(),
                      "chrysalis.graph_from_fasta.retry2"),
            phases.end());
  const auto manifest = checkpoint::RunManifest::load(dir.file(kManifestFileName));
  ASSERT_NE(manifest.find("chrysalis.graph_from_fasta"), nullptr);
  EXPECT_EQ(manifest.find("chrysalis.graph_from_fasta")->attempt, 2);

  // A transient fault must not change the assembly.
  EXPECT_EQ(slurp(dir.file("Trinity.fa")), slurp(baseline_dir.file("Trinity.fa")));
}

TEST(PipelineCheckpoint, RetryExhaustionRethrowsTheFault) {
  const TempDir dir("ckpt_exhausted");
  auto options = small_options(dir.str(), /*nranks=*/3);
  options.fault = kill_rank(1);
  options.fault.max_fires = 100;  // persistent fault
  options.fault_stage = "chrysalis.graph_from_fasta";
  options.retry.max_attempts = 2;
  EXPECT_THROW(run_pipeline(shared_dataset().reads.reads, options),
               simpi::RankFaultError);
}

// The acceptance scenario: a run killed mid-Chrysalis, then re-launched
// with --resume, completes while skipping the stages that had finished,
// and its transcripts are byte-identical to an uninterrupted run.
TEST(PipelineCheckpoint, KilledRunResumesAndMatchesUninterruptedRun) {
  const TempDir dir("ckpt_relaunch");
  const TempDir baseline_dir("ckpt_relaunch_baseline");
  const auto& data = shared_dataset();

  auto baseline_options = small_options(baseline_dir.str(), /*nranks=*/3);
  const auto baseline = run_pipeline(data.reads.reads, baseline_options);

  auto options = small_options(dir.str(), /*nranks=*/3);
  options.fault = kill_rank(1);
  options.fault_stage = "chrysalis.graph_from_fasta";
  options.retry.max_attempts = 1;  // no in-process recovery: the run dies
  EXPECT_THROW(run_pipeline(data.reads.reads, options), simpi::RankFaultError);

  // Everything up to the fault is checkpointed...
  const auto manifest = checkpoint::RunManifest::load(dir.file(kManifestFileName));
  EXPECT_EQ(manifest.records().size(), 4u);
  EXPECT_EQ(manifest.records().back().stage, "chrysalis.bowtie");

  // ...so the relaunch resumes past it and finishes the rest.
  auto relaunch = small_options(dir.str(), /*nranks=*/3);
  relaunch.resume = true;
  const auto result = run_pipeline(data.reads.reads, relaunch);
  EXPECT_EQ(result.stages_resumed, stages_until(kAllStages, 4));
  EXPECT_EQ(result.stages_executed, stages_from(kAllStages, 4));

  ASSERT_EQ(result.transcripts.size(), baseline.transcripts.size());
  EXPECT_EQ(slurp(dir.file("Trinity.fa")), slurp(baseline_dir.file("Trinity.fa")));
}

// The read k-mer counter, the k-mer dump and the SAM records are dropped
// once GraphFromFasta is done, so a ReadsToTranscripts failure meets a run
// that no longer holds them. Both recoveries — the in-process retry and a
// relaunch with resume — must still reproduce the uninterrupted run.
TEST(PipelineCheckpoint, KilledInReadsToTranscriptsResumesByteIdentical) {
  const TempDir dir("ckpt_r2t_kill");
  const TempDir retry_dir("ckpt_r2t_retry");
  const TempDir baseline_dir("ckpt_r2t_baseline");
  const auto& data = shared_dataset();
  (void)run_pipeline(data.reads.reads, small_options(baseline_dir.str(), /*nranks=*/3));
  const std::vector<std::string> outputs = {"Trinity.fa", "readsToComponents.out.tsv",
                                            "components.txt", "bowtie.sam", "kmers.bin"};

  auto retried = small_options(retry_dir.str(), /*nranks=*/3);
  retried.fault = kill_rank(1);
  retried.fault_stage = "chrysalis.reads_to_transcripts";
  const auto retry_result = run_pipeline(data.reads.reads, retried);
  EXPECT_EQ(retry_result.stage_retries, 1);
  for (const auto& name : outputs) {
    EXPECT_EQ(slurp(retry_dir.file(name)), slurp(baseline_dir.file(name))) << name;
  }

  auto options = small_options(dir.str(), /*nranks=*/3);
  options.fault = kill_rank(1);
  options.fault_stage = "chrysalis.reads_to_transcripts";
  options.retry.max_attempts = 1;
  EXPECT_THROW(run_pipeline(data.reads.reads, options), simpi::RankFaultError);
  const auto manifest = checkpoint::RunManifest::load(dir.file(kManifestFileName));
  ASSERT_EQ(manifest.records().size(), 5u);
  EXPECT_EQ(manifest.records().back().stage, "chrysalis.graph_from_fasta");

  auto relaunch = small_options(dir.str(), /*nranks=*/3);
  relaunch.resume = true;
  const auto result = run_pipeline(data.reads.reads, relaunch);
  EXPECT_EQ(result.stages_resumed, stages_until(kAllStages, 5));
  EXPECT_EQ(result.stages_executed, stages_from(kAllStages, 5));
  for (const auto& name : outputs) {
    EXPECT_EQ(slurp(dir.file(name)), slurp(baseline_dir.file(name))) << name;
  }
}

// --- GraphFromFasta sharding strategies ------------------------------------------

TEST(PipelineSharding, EveryStrategyProducesIdenticalTranscripts) {
  const auto& data = shared_dataset();
  const TempDir pooled_dir("shard_pooled");
  auto pooled_options = small_options(pooled_dir.str(), /*nranks=*/3);
  pooled_options.gff_sharding = chrysalis::ShardingStrategy::kPooled;
  run_pipeline(data.reads.reads, pooled_options);
  const std::string want = slurp(pooled_dir.file("Trinity.fa"));

  const TempDir owner_dir("shard_owner");
  auto owner_options = small_options(owner_dir.str(), /*nranks=*/3);
  owner_options.gff_sharding = chrysalis::ShardingStrategy::kOwner;
  run_pipeline(data.reads.reads, owner_options);
  EXPECT_EQ(slurp(owner_dir.file("Trinity.fa")), want);
}

TEST(PipelineSharding, ShardingIsSchedulingOnlyForCheckpoints) {
  // A run checkpointed under pooled sharding must resume cleanly under
  // owner sharding: the strategy cannot touch the options fingerprint.
  const TempDir dir("shard_resume");
  const auto& data = shared_dataset();
  auto options = small_options(dir.str());
  options.gff_sharding = chrysalis::ShardingStrategy::kPooled;
  run_pipeline(data.reads.reads, options);

  options.resume = true;
  options.gff_sharding = chrysalis::ShardingStrategy::kOwner;
  const auto result = run_pipeline(data.reads.reads, options);
  EXPECT_EQ(result.stages_resumed, kAllStages);
  EXPECT_TRUE(result.stages_executed.empty());
}

TEST(PipelineSharding, OwnerModeFaultIsRetriedToIdenticalTranscripts) {
  const TempDir dir("shard_owner_retry");
  const TempDir baseline_dir("shard_owner_retry_baseline");
  const auto& data = shared_dataset();

  auto baseline_options = small_options(baseline_dir.str(), /*nranks=*/3);
  baseline_options.gff_sharding = chrysalis::ShardingStrategy::kOwner;
  run_pipeline(data.reads.reads, baseline_options);

  auto options = small_options(dir.str(), /*nranks=*/3);
  options.gff_sharding = chrysalis::ShardingStrategy::kOwner;
  options.fault = kill_rank(1);
  options.fault_stage = "chrysalis.graph_from_fasta";
  const auto result = run_pipeline(data.reads.reads, options);

  EXPECT_EQ(result.stage_retries, 1);
  EXPECT_EQ(slurp(dir.file("Trinity.fa")), slurp(baseline_dir.file("Trinity.fa")));
}

TEST(PipelineSharding, OwnerModeKilledRunResumesByteIdentical) {
  // The acceptance scenario of the owner-computes path: a rank killed
  // mid-GraphFromFasta with no in-process retry budget, relaunched with
  // --resume, must finish byte-identical to an uninterrupted owner run.
  const TempDir dir("shard_owner_relaunch");
  const TempDir baseline_dir("shard_owner_relaunch_baseline");
  const auto& data = shared_dataset();

  auto baseline_options = small_options(baseline_dir.str(), /*nranks=*/3);
  baseline_options.gff_sharding = chrysalis::ShardingStrategy::kOwner;
  run_pipeline(data.reads.reads, baseline_options);

  auto options = small_options(dir.str(), /*nranks=*/3);
  options.gff_sharding = chrysalis::ShardingStrategy::kOwner;
  options.fault = kill_rank(1);
  options.fault_stage = "chrysalis.graph_from_fasta";
  options.retry.max_attempts = 1;
  EXPECT_THROW(run_pipeline(data.reads.reads, options), simpi::RankFaultError);

  auto relaunch = small_options(dir.str(), /*nranks=*/3);
  relaunch.gff_sharding = chrysalis::ShardingStrategy::kOwner;
  relaunch.resume = true;
  const auto result = run_pipeline(data.reads.reads, relaunch);
  EXPECT_EQ(result.stages_resumed, stages_until(kAllStages, 4));
  EXPECT_EQ(slurp(dir.file("Trinity.fa")), slurp(baseline_dir.file("Trinity.fa")));
}

TEST(PipelineSharding, FaultInsideAlltoallvIsRetried) {
  // Target the owner path's own collective: the victim dies at its first
  // alltoallv entry (the weld routing), and the retry driver recovers.
  const TempDir dir("shard_a2a_fault");
  const TempDir baseline_dir("shard_a2a_fault_baseline");
  const auto& data = shared_dataset();

  auto baseline_options = small_options(baseline_dir.str(), /*nranks=*/3);
  baseline_options.gff_sharding = chrysalis::ShardingStrategy::kOwner;
  run_pipeline(data.reads.reads, baseline_options);

  auto options = small_options(dir.str(), /*nranks=*/3);
  options.gff_sharding = chrysalis::ShardingStrategy::kOwner;
  options.fault.rank = 1;
  options.fault.op = simpi::CommOp::kAlltoallv;
  options.fault.at_entry = 1;
  options.fault_stage = "chrysalis.graph_from_fasta";
  const auto result = run_pipeline(data.reads.reads, options);

  EXPECT_EQ(result.stage_retries, 1);
  EXPECT_EQ(slurp(dir.file("Trinity.fa")), slurp(baseline_dir.file("Trinity.fa")));
}

}  // namespace
}  // namespace trinity::pipeline
