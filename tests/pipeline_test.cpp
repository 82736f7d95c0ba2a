// Integration tests: the full Trinity pipeline on simulated data, in both
// the original (shared-memory) and hybrid configurations, checked for
// reconstruction quality and for the paper's central equivalence claim.

#include <gtest/gtest.h>

#include <filesystem>

#include "pipeline/trinity_pipeline.hpp"
#include "seq/fasta.hpp"
#include "sim/transcriptome.hpp"
#include "validate/validate.hpp"
#include "test_helpers.hpp"

namespace trinity::pipeline {
namespace {

using trinity::testing::TempDir;

PipelineOptions small_options(const std::string& work_dir, int nranks = 1) {
  PipelineOptions o;
  o.k = 15;  // small k keeps the test fast while exercising every stage
  o.nranks = nranks;
  o.work_dir = work_dir;
  o.model_threads_per_rank = 4;
  o.max_mem_reads = 500;
  o.trace_sample_interval_ms = 0;  // no background sampler in tests
  return o;
}

sim::Dataset tiny_dataset() {
  auto p = sim::preset("tiny");
  p.reads.error_rate = 0.002;
  // Generous coverage and a modest expression spread: with the default
  // log-normal sigma some genes draw almost no reads and are genuinely
  // unassemblable, which is realistic but not what this test measures.
  p.reads.coverage = 30.0;
  p.reads.expression_sigma = 0.7;
  return sim::simulate_dataset(p);
}

TEST(PipelineIntegration, SharedRunReconstructsMostTranscripts) {
  const TempDir dir("pipe_shared");
  const auto data = tiny_dataset();
  const auto result = run_pipeline(data.reads.reads, small_options(dir.str()));

  EXPECT_FALSE(result.contigs.empty());
  EXPECT_GT(result.components.num_components(), 0u);
  EXPECT_FALSE(result.transcripts.empty());
  EXPECT_EQ(result.assignments.size(), data.reads.reads.size());

  // Reconstruction quality: most reference genes recovered full length.
  validate::ValidationOptions vo;
  vo.prefilter_k = 15;
  const auto cmp = validate::compare_to_reference(
      result.transcripts, data.transcriptome.transcripts,
      data.transcriptome.gene_of_transcript, vo);
  const double gene_rate = static_cast<double>(cmp.full_length_genes) /
                           static_cast<double>(data.transcriptome.genes.size());
  EXPECT_GT(gene_rate, 0.6) << "recovered " << cmp.full_length_genes << " of "
                            << data.transcriptome.genes.size() << " genes full-length";
}

TEST(PipelineIntegration, StageFilesAreWritten) {
  const TempDir dir("pipe_files");
  const auto data = tiny_dataset();
  run_pipeline(data.reads.reads, small_options(dir.str()));
  for (const auto* name :
       {"reads.fa", "kmers.bin", "inchworm.fa", "bowtie.sam", "readsToComponents.out.tsv",
        "Trinity.fa"}) {
    EXPECT_TRUE(std::filesystem::exists(dir.file(name))) << name;
  }
}

TEST(PipelineIntegration, TraceCoversEveryStage) {
  const TempDir dir("pipe_trace");
  const auto data = tiny_dataset();
  const auto result = run_pipeline(data.reads.reads, small_options(dir.str()));
  std::vector<std::string> phases;
  for (const auto& r : result.trace) phases.push_back(r.name);
  for (const auto* expected :
       {"jellyfish", "inchworm", "chrysalis.bowtie", "chrysalis.graph_from_fasta",
        "chrysalis.reads_to_transcripts", "butterfly"}) {
    EXPECT_NE(std::find(phases.begin(), phases.end(), expected), phases.end()) << expected;
  }
  EXPECT_GT(result.chrysalis_virtual_seconds(), 0.0);
}

class PipelineHybrid : public ::testing::TestWithParam<int> {};

TEST_P(PipelineHybrid, HybridOutputMatchesSharedQuality) {
  const int nranks = GetParam();
  const TempDir dir_shared("pipe_h_shared");
  const TempDir dir_hybrid("pipe_h_hybrid");
  const auto data = tiny_dataset();

  const auto shared = run_pipeline(data.reads.reads, small_options(dir_shared.str(), 1));
  const auto hybrid = run_pipeline(data.reads.reads, small_options(dir_hybrid.str(), nranks));

  // Same seed and same algorithm: contigs are identical, so components and
  // transcripts must be identical too — the strongest form of the paper's
  // "equal quality" claim for our deterministic substrate.
  ASSERT_EQ(hybrid.contigs.size(), shared.contigs.size());
  for (std::size_t i = 0; i < shared.contigs.size(); ++i) {
    EXPECT_EQ(hybrid.contigs[i].bases, shared.contigs[i].bases);
  }
  EXPECT_EQ(hybrid.components.component_of, shared.components.component_of);
  ASSERT_EQ(hybrid.transcripts.size(), shared.transcripts.size());
  for (std::size_t i = 0; i < shared.transcripts.size(); ++i) {
    EXPECT_EQ(hybrid.transcripts[i].bases, shared.transcripts[i].bases);
  }
  // Hybrid timing populated per rank.
  EXPECT_EQ(hybrid.gff_timing.loop1.seconds.size(), static_cast<std::size_t>(nranks));
  EXPECT_EQ(hybrid.r2t_timing.main_loop.seconds.size(), static_cast<std::size_t>(nranks));
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, PipelineHybrid, ::testing::Values(2, 4));

TEST(PipelineIntegration, RunSeedPerturbsOutputSlightly) {
  // Models the paper's repeated-run validation: different seeds give
  // slightly different but comparable outputs.
  const TempDir dir_a("pipe_seed_a");
  const TempDir dir_b("pipe_seed_b");
  const auto data = tiny_dataset();

  auto oa = small_options(dir_a.str());
  oa.run_seed = 1;
  auto ob = small_options(dir_b.str());
  ob.run_seed = 2;
  const auto a = run_pipeline(data.reads.reads, oa);
  const auto b = run_pipeline(data.reads.reads, ob);

  ASSERT_FALSE(a.transcripts.empty());
  ASSERT_FALSE(b.transcripts.empty());
  const double ratio = static_cast<double>(a.transcripts.size()) /
                       static_cast<double>(b.transcripts.size());
  EXPECT_NEAR(ratio, 1.0, 0.5);
}

TEST(PipelineIntegration, RejectsBadRankCount) {
  const TempDir dir("pipe_bad");
  EXPECT_THROW(run_pipeline({}, [&] {
                 auto o = small_options(dir.str());
                 o.nranks = 0;
                 return o;
               }()),
               std::invalid_argument);
}

TEST(PipelineIntegration, RejectsRemovedIndexMode) {
  // Thrown before any stage runs: no reads file is written.
  const TempDir dir("pipe_index_mode");
  auto o = small_options(dir.str());
  o.r2t_mode = chrysalis::R2TMode::kIndex;
  EXPECT_THROW(run_pipeline(tiny_dataset().reads.reads, o), std::invalid_argument);
  EXPECT_FALSE(std::filesystem::exists(dir.file("reads.fa")));
}

TEST(PipelineIntegration, AlternativeStrategiesMatchDefaultOutput) {
  // Full pipeline with every future-work / alternative knob enabled must
  // reconstruct exactly the same transcripts as the published design —
  // strategies change scheduling and I/O, never results.
  const TempDir dir_default("pipe_strat_a");
  const TempDir dir_variant("pipe_strat_b");
  const auto data = tiny_dataset();

  const auto base = run_pipeline(data.reads.reads, small_options(dir_default.str(), 3));

  auto variant_options = small_options(dir_variant.str(), 3);
  variant_options.gff_distribution = chrysalis::Distribution::kDynamic;
  variant_options.r2t_strategy = chrysalis::R2TStrategy::kMasterSlave;
  variant_options.bowtie_split = align::BowtieSplit::kReads;
  const auto variant = run_pipeline(data.reads.reads, variant_options);

  EXPECT_EQ(variant.components.component_of, base.components.component_of);
  ASSERT_EQ(variant.transcripts.size(), base.transcripts.size());
  for (std::size_t i = 0; i < base.transcripts.size(); ++i) {
    EXPECT_EQ(variant.transcripts[i].bases, base.transcripts[i].bases);
  }
}

TEST(PipelineIntegration, ButterflyReconciliationKnobsApply) {
  const TempDir dir("pipe_reconcile");
  const auto data = tiny_dataset();
  auto options = small_options(dir.str());
  options.butterfly_min_node_support = 1;
  options.butterfly_require_paired_support = true;
  const auto result = run_pipeline(data.reads.reads, options);
  // Reconciliation can only drop transcripts, never corrupt them; quality
  // must stay high on clean simulated data.
  EXPECT_FALSE(result.transcripts.empty());
  validate::ValidationOptions vo;
  vo.prefilter_k = 15;
  const auto cmp = validate::compare_to_reference(
      result.transcripts, data.transcriptome.transcripts,
      data.transcriptome.gene_of_transcript, vo);
  EXPECT_GT(cmp.full_length_genes, data.transcriptome.genes.size() / 2);
}

TEST(PipelineIntegration, RunFromFileMatchesInMemory) {
  const TempDir dir_a("pipe_file_a");
  const TempDir dir_b("pipe_file_b");
  const auto data = tiny_dataset();
  seq::write_fasta(dir_a.file("input.fa"), data.reads.reads);

  const auto from_file =
      run_pipeline_from_file(dir_a.file("input.fa"), small_options(dir_a.str()));
  const auto in_memory = run_pipeline(data.reads.reads, small_options(dir_b.str()));
  ASSERT_EQ(from_file.transcripts.size(), in_memory.transcripts.size());
  for (std::size_t i = 0; i < in_memory.transcripts.size(); ++i) {
    EXPECT_EQ(from_file.transcripts[i].bases, in_memory.transcripts[i].bases);
  }
}

}  // namespace
}  // namespace trinity::pipeline
