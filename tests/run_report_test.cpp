// The JSON run report end to end: a hybrid pipeline run must emit a
// document that round-trips through the parser, declares the supported
// schema version, and whose per-stage, per-op byte counts and max/mean
// rank-time imbalance agree with the in-memory PipelineResult.
// docs/OBSERVABILITY.md documents every field asserted here.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "checkpoint/manifest.hpp"
#include "pipeline/run_report.hpp"
#include "pipeline/trinity_pipeline.hpp"
#include "sim/transcriptome.hpp"
#include "test_helpers.hpp"

namespace trinity::pipeline {
namespace {

using trinity::testing::TempDir;

PipelineOptions small_options(const std::string& work_dir, int nranks) {
  PipelineOptions o;
  o.k = 15;
  o.nranks = nranks;
  o.work_dir = work_dir;
  o.model_threads_per_rank = 4;
  o.max_mem_reads = 500;
  o.trace_sample_interval_ms = 0;
  return o;
}

sim::Dataset tiny_dataset() {
  auto p = sim::preset("tiny");
  p.reads.error_rate = 0.002;
  p.reads.coverage = 30.0;
  p.reads.expression_sigma = 0.7;
  return sim::simulate_dataset(p);
}

/// One hybrid run shared by the assertions below (the pipeline dominates
/// this binary's runtime, so run it once). It pools welds the paper's way,
/// so the Allgatherv byte counts have a pool to agree with; owner mode is
/// covered by RunReportStandalone2.
class RunReportTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new TempDir("run_report");
    const auto data = tiny_dataset();
    auto options = small_options(dir_->str(), kRanks);
    options.gff_sharding = chrysalis::ShardingStrategy::kPooled;
    result_ = new PipelineResult(run_pipeline(data.reads.reads, options));
    report_ = new util::Json(load_run_report(result_->report_path));
  }
  static void TearDownTestSuite() {
    delete report_;
    report_ = nullptr;
    delete result_;
    result_ = nullptr;
    delete dir_;
    dir_ = nullptr;
  }

  static constexpr int kRanks = 2;
  static TempDir* dir_;
  static PipelineResult* result_;
  static util::Json* report_;
};

TempDir* RunReportTest::dir_ = nullptr;
PipelineResult* RunReportTest::result_ = nullptr;
util::Json* RunReportTest::report_ = nullptr;

TEST_F(RunReportTest, WritesReportAtDefaultPath) {
  EXPECT_EQ(result_->report_path, dir_->file(kReportFileName));
  EXPECT_TRUE(std::filesystem::exists(result_->report_path));
}

TEST_F(RunReportTest, DeclaresSupportedSchemaVersion) {
  EXPECT_EQ(report_->at("schema_version").as_int(), kReportSchemaVersion);
  EXPECT_EQ(report_->at("generator").as_string(), "trinity_pipeline");
  EXPECT_EQ(report_->at("nranks").as_int(), kRanks);
}

TEST_F(RunReportTest, RoundTripsThroughParser) {
  const std::string text = report_->dump(2);
  const util::Json reparsed = util::Json::parse(text);
  EXPECT_EQ(reparsed.dump(2), text);
}

TEST_F(RunReportTest, CommSectionCoversEveryHybridStage) {
  std::vector<std::string> stages;
  for (const auto& stage : report_->at("comm").items()) {
    stages.push_back(stage.at("stage").as_string());
    EXPECT_EQ(stage.at("nranks").as_int(), kRanks);
    EXPECT_EQ(stage.at("ranks").items().size(), static_cast<std::size_t>(kRanks));
  }
  for (const auto* expected : {"chrysalis.bowtie", "chrysalis.graph_from_fasta",
                               "chrysalis.reads_to_transcripts"}) {
    EXPECT_NE(std::find(stages.begin(), stages.end(), expected), stages.end()) << expected;
  }
}

TEST_F(RunReportTest, ImbalanceFieldsAreConsistent) {
  for (const auto& stage : report_->at("comm").items()) {
    const double max_virtual = stage.at("max_virtual_s").as_double();
    const double mean_virtual = stage.at("mean_virtual_s").as_double();
    const double skew = stage.at("skew_ratio").as_double();
    EXPECT_GT(mean_virtual, 0.0);
    EXPECT_GE(max_virtual, mean_virtual);
    EXPECT_NEAR(skew, max_virtual / mean_virtual, 1e-9);
    EXPECT_GE(skew, 1.0);

    // The per-rank rows must reproduce the stage aggregates.
    double max_seen = 0.0, sum_seen = 0.0;
    for (const auto& rank : stage.at("ranks").items()) {
      const double v = rank.at("virtual_s").as_double();
      max_seen = v > max_seen ? v : max_seen;
      sum_seen += v;
    }
    EXPECT_NEAR(max_seen, max_virtual, 1e-9);
    EXPECT_NEAR(sum_seen / kRanks, mean_virtual, 1e-9);
  }
}

/// The named stage's comm[] entry, or null.
const util::Json* comm_stage(const util::Json& report, const std::string& name) {
  for (const auto& stage : report.at("comm").items()) {
    if (stage.at("stage").as_string() == name) return &stage;
  }
  return nullptr;
}

/// One rank's counter for `op` ("calls", "bytes_sent", ...); 0 when the
/// rank never entered the op (zero-call rows are omitted).
std::int64_t op_field(const util::Json& rank, const char* op, const char* field) {
  const util::Json* row = rank.at("ops").find(op);
  return row == nullptr ? 0 : row->at(field).as_int();
}

TEST_F(RunReportTest, AllgathervBytesMatchChrysalisPooling) {
  const util::Json* gff_stage = comm_stage(*report_, "chrysalis.graph_from_fasta");
  ASSERT_NE(gff_stage, nullptr);

  // Every pooled GraphFromFasta allgatherv (the weld pool, the match pool
  // and the timing allgather) gathers the contributions at rank 0, which
  // sends the pool back to every other rank. So every non-root rank
  // receives the same pool bytes, rank 0 sends that pool once per peer and
  // receives exactly what the others contributed, and the row conserves
  // bytes over the ranks.
  const auto& ranks = gff_stage->at("ranks").items();
  ASSERT_EQ(ranks.size(), static_cast<std::size_t>(kRanks));
  const std::int64_t pool = op_field(ranks[1], "allgatherv", "bytes_received");
  EXPECT_GT(pool, 0);
  std::int64_t contributed = 0, sent = 0, received = 0;
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    EXPECT_GT(op_field(ranks[r], "allgatherv", "calls"), 0);
    for (const char* inner : {"gatherv", "bcast"}) {
      EXPECT_EQ(op_field(ranks[r], inner, "calls"), 0) << inner;
    }
    sent += op_field(ranks[r], "allgatherv", "bytes_sent");
    received += op_field(ranks[r], "allgatherv", "bytes_received");
    if (r == 0) continue;
    EXPECT_EQ(op_field(ranks[r], "allgatherv", "bytes_received"), pool) << "rank " << r;
    contributed += op_field(ranks[r], "allgatherv", "bytes_sent");
  }
  EXPECT_EQ(op_field(ranks[0], "allgatherv", "bytes_sent"), (kRanks - 1) * pool);
  EXPECT_EQ(op_field(ranks[0], "allgatherv", "bytes_received"), contributed);
  EXPECT_EQ(sent, received);

  // The in-memory RankResults agree with the document.
  const auto metrics =
      std::find_if(result_->stage_comm.begin(), result_->stage_comm.end(),
                   [](const auto& m) { return m.stage == "chrysalis.graph_from_fasta"; });
  ASSERT_NE(metrics, result_->stage_comm.end());
  std::int64_t in_memory = 0;
  for (const auto& r : metrics->ranks) {
    in_memory += static_cast<std::int64_t>(r.comm.of(simpi::CommOp::kAllgatherv).bytes_sent);
  }
  EXPECT_EQ(in_memory, sent);
  EXPECT_NEAR(metrics->skew_ratio(), gff_stage->at("skew_ratio").as_double(), 1e-9);
}

TEST_F(RunReportTest, GffShardingIsRecordedAdditively) {
  // Pooled run: the strategy is named, but the union-find never ran.
  const auto& gff = report_->at("chrysalis").at("graph_from_fasta");
  EXPECT_EQ(gff.at("gff_sharding").as_string(), "pooled");
  EXPECT_EQ(gff.find("dsu_rounds"), nullptr);
}

TEST(RunReportStandalone2, OwnerShardingEmitsRoutedCountersAndAlltoallvRow) {
  const TempDir dir("run_report_owner");
  const auto data = tiny_dataset();
  auto options = small_options(dir.str(), 3);
  options.gff_sharding = chrysalis::ShardingStrategy::kOwner;
  const auto result = run_pipeline(data.reads.reads, options);
  const util::Json report = load_run_report(result.report_path);

  const auto& gff = report.at("chrysalis").at("graph_from_fasta");
  EXPECT_EQ(gff.at("gff_sharding").as_string(), "owner");
  EXPECT_GE(gff.at("dsu_rounds").as_int(), 0);

  // The stage comm section carries the alltoallv row with the routed
  // traffic; nothing is replicated, so the allgatherv row holds only the
  // timing record, less than the routed bytes.
  const util::Json* gff_stage = comm_stage(report, "chrysalis.graph_from_fasta");
  ASSERT_NE(gff_stage, nullptr);
  for (const auto& rank : gff_stage->at("ranks").items()) {
    EXPECT_GT(op_field(rank, "alltoallv", "calls"), 0);
    EXPECT_GT(op_field(rank, "alltoallv", "bytes_received"), 0);
    EXPECT_LT(op_field(rank, "allgatherv", "bytes_received"),
              op_field(rank, "alltoallv", "bytes_received"));
  }
}

TEST(RunReportStandalone2, EachHybridStageCostsOneTimingCollective) {
  const TempDir dir("run_report_calls");
  const auto data = tiny_dataset();
  auto options = small_options(dir.str(), 3);
  options.gff_sharding = chrysalis::ShardingStrategy::kOwner;
  const auto result = run_pipeline(data.reads.reads, options);
  const util::Json report = load_run_report(result.report_path);

  // Bowtie and ReadsToTranscripts reduce nothing: their timing is one
  // allgather of each rank's record, and no other allgatherv runs there.
  for (const char* name : {"chrysalis.bowtie", "chrysalis.reads_to_transcripts"}) {
    const util::Json* stage = comm_stage(report, name);
    ASSERT_NE(stage, nullptr) << name;
    for (const auto& rank : stage->at("ranks").items()) {
      EXPECT_EQ(op_field(rank, "reduce", "calls"), 0) << name;
      EXPECT_EQ(op_field(rank, "allgatherv", "calls"), 1) << name;
    }
  }
  // GraphFromFasta's only reductions are the union-find's own: one per
  // boundary-exchange round, the fixed-point check that ends the rounds
  // and the verification. Each counts on the reduce row alone, so the
  // timing allgather is the stage's only allgatherv, and no stage calls
  // gatherv or bcast on its own except the pipeline's result transfers.
  const std::int64_t rounds =
      report.at("chrysalis").at("graph_from_fasta").at("dsu_rounds").as_int();
  const util::Json* gff_stage = comm_stage(report, "chrysalis.graph_from_fasta");
  ASSERT_NE(gff_stage, nullptr);
  for (const auto& rank : gff_stage->at("ranks").items()) {
    EXPECT_EQ(op_field(rank, "reduce", "calls"), rounds + 2);
    EXPECT_EQ(op_field(rank, "allgatherv", "calls"), 1);
    EXPECT_EQ(op_field(rank, "gatherv", "calls"), 0);
    EXPECT_EQ(op_field(rank, "bcast", "calls"), 0);
  }
  // The phase counters no longer repeat comm[].
  for (const auto& phase : report.at("phases").items()) {
    for (const char* gone : {"skew_ratio", "comm_bytes_sent", "comm_bytes_received",
                             "comm_wait_s", "allgatherv_bytes_received",
                             "alltoallv_bytes_received"}) {
      EXPECT_EQ(phase.at("counters").find(gone), nullptr)
          << phase.at("name").as_string() << ": " << gone;
    }
  }
}

// Every byte one rank sends, another receives: at 4 ranks, under both
// sharding strategies, each comm[] stage's rows sum to as many bytes sent
// as received over the ranks.
TEST(RunReportStandalone2, EveryStageConservesBytesAtFourRanks) {
  const auto data = tiny_dataset();
  for (const auto sharding :
       {chrysalis::ShardingStrategy::kPooled, chrysalis::ShardingStrategy::kOwner}) {
    const TempDir dir("run_report_conserve");
    auto options = small_options(dir.str(), 4);
    options.gff_sharding = sharding;
    const auto result = run_pipeline(data.reads.reads, options);
    const util::Json report = load_run_report(result.report_path);
    const char* mode = chrysalis::to_string(sharding);

    ASSERT_FALSE(report.at("comm").items().empty());
    for (const auto& stage : report.at("comm").items()) {
      const std::string name = stage.at("stage").as_string();
      std::map<std::string, std::pair<std::int64_t, std::int64_t>> rows;
      for (const auto& rank : stage.at("ranks").items()) {
        for (const auto& [op, row] : rank.at("ops").members()) {
          rows[op].first += row.at("bytes_sent").as_int();
          rows[op].second += row.at("bytes_received").as_int();
        }
      }
      std::int64_t sent = 0, received = 0;
      for (const auto& [op, bytes] : rows) {
        if (op != "send" && op != "recv") {
          EXPECT_EQ(bytes.first, bytes.second) << mode << ' ' << name << ' ' << op;
        }
        sent += bytes.first;
        received += bytes.second;
      }
      EXPECT_EQ(sent, received) << mode << ' ' << name;
    }
  }
}

TEST_F(RunReportTest, ReadsToTranscriptsChunkAccounting) {
  const auto& r2t = report_->at("chrysalis").at("reads_to_transcripts");
  std::int64_t chunks = 0, reads = 0;
  for (const auto& v : r2t.at("rank_chunks").items()) chunks += v.as_int();
  for (const auto& v : r2t.at("rank_reads").items()) reads += v.as_int();
  EXPECT_GT(chunks, 0);
  EXPECT_EQ(reads, static_cast<std::int64_t>(result_->assignments.size()));

  // The assignments travel to rank 0 on the stage's one gatherv, so a
  // non-root rank's gatherv bytes are exactly its assignment records, and
  // rank 0 receives everything the others sent.
  const util::Json* stage = comm_stage(*report_, "chrysalis.reads_to_transcripts");
  ASSERT_NE(stage, nullptr);
  const auto& ranks = stage->at("ranks").items();
  std::int64_t gathered = 0;
  for (std::size_t r = 1; r < ranks.size(); ++r) {
    const std::int64_t sent = op_field(ranks[r], "gatherv", "bytes_sent");
    EXPECT_EQ(op_field(ranks[r], "gatherv", "calls"), 1) << "rank " << r;
    EXPECT_EQ(sent,
              r2t.at("rank_reads").items().at(r).as_int() *
                  static_cast<std::int64_t>(sizeof(chrysalis::ReadAssignment)))
        << "rank " << r;
    gathered += sent;
  }
  EXPECT_EQ(op_field(ranks.at(0), "gatherv", "bytes_received"), gathered);
}

TEST_F(RunReportTest, ManifestRecordsPointAtReport) {
  const auto manifest = checkpoint::RunManifest::load(dir_->file(kManifestFileName));
  ASSERT_FALSE(manifest.records().empty());
  for (const auto& record : manifest.records()) {
    EXPECT_EQ(record.trace, kReportFileName) << record.stage;
  }
}

TEST_F(RunReportTest, SummaryMentionsEveryStage) {
  std::ostringstream out;
  summarize_report(*report_, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("chrysalis.graph_from_fasta"), std::string::npos);
  EXPECT_NE(text.find("skew"), std::string::npos);
  EXPECT_NE(text.find("chunks per rank"), std::string::npos);
  EXPECT_NE(text.find("chrysalis traffic"), std::string::npos);
}

TEST(RunReportStandalone, EmitReportOffWritesNothing) {
  const TempDir dir("run_report_off");
  const auto data = tiny_dataset();
  auto options = small_options(dir.str(), 2);
  options.emit_report = false;
  const auto result = run_pipeline(data.reads.reads, options);
  EXPECT_TRUE(result.report_path.empty());
  EXPECT_FALSE(std::filesystem::exists(dir.file(kReportFileName)));
  const auto manifest = checkpoint::RunManifest::load(dir.file(kManifestFileName));
  ASSERT_FALSE(manifest.records().empty());
  for (const auto& record : manifest.records()) EXPECT_TRUE(record.trace.empty());
}

TEST(RunReportStandalone, LoaderRejectsBadDocuments) {
  const TempDir dir("run_report_bad");
  EXPECT_THROW((void)load_run_report(dir.file("missing.json")), std::runtime_error);

  {
    std::ofstream out(dir.file("no_version.json"));
    out << "{\"generator\": \"trinity_pipeline\"}\n";
  }
  EXPECT_THROW((void)load_run_report(dir.file("no_version.json")), std::runtime_error);

  {
    std::ofstream out(dir.file("future.json"));
    out << "{\"schema_version\": " << (kReportSchemaVersion + 1) << "}\n";
  }
  EXPECT_THROW((void)load_run_report(dir.file("future.json")), std::runtime_error);
}

TEST(RunReportStandalone, BuildIsPureAndWriteRoundTrips) {
  const TempDir dir("run_report_pure");
  PipelineOptions options;
  options.nranks = 2;
  PipelineResult result;
  result.stages_executed = {"jellyfish"};
  StageCommMetrics metrics;
  metrics.stage = "demo";
  metrics.ranks.resize(2);
  metrics.ranks[0].rank = 0;
  metrics.ranks[0].cpu_seconds = 1.0;
  metrics.ranks[0].comm.of(simpi::CommOp::kAllgatherv) = {1, 4, 12, 0.0};
  metrics.ranks[1].rank = 1;
  metrics.ranks[1].cpu_seconds = 3.0;
  result.stage_comm.push_back(metrics);

  const util::Json report = build_run_report(options, result);
  EXPECT_EQ(report.at("schema_version").as_int(), kReportSchemaVersion);
  const auto& stage = report.at("comm").items().at(0);
  EXPECT_EQ(stage.at("skew_ratio").as_double(), 1.5);  // max 3 / mean 2
  // Zero-call ops are omitted from the per-rank rows.
  EXPECT_NE(stage.at("ranks").items().at(0).at("ops").find("allgatherv"), nullptr);
  EXPECT_EQ(stage.at("ranks").items().at(0).at("ops").find("send"), nullptr);

  write_run_report(dir.file("report.json"), report);
  const util::Json loaded = load_run_report(dir.file("report.json"));
  EXPECT_EQ(loaded.dump(2), report.dump(2));
}

TEST_F(RunReportTest, OmitsJobAttributionForDirectRuns) {
  // The v3/v4 job block is gone with the job server that stamped it: a
  // pipeline run's report carries none of its fields.
  EXPECT_EQ(report_->find("job_id"), nullptr);
  EXPECT_EQ(report_->find("tenant"), nullptr);
  EXPECT_EQ(report_->find("preemptions"), nullptr);
}

TEST(RunReportStandalone, LoaderAcceptsEveryOlderSchemaVersion) {
  const TempDir dir("run_report_compat");
  for (int version = 1; version <= kReportSchemaVersion; ++version) {
    const std::string path = dir.file("v" + std::to_string(version) + ".json");
    {
      std::ofstream out(path);
      out << "{\"schema_version\": " << version
          << ", \"generator\": \"trinity_pipeline\", \"nranks\": 2}\n";
    }
    const util::Json loaded = load_run_report(path);
    EXPECT_EQ(loaded.at("schema_version").as_int(), version) << path;
  }
}

TEST(RunReportStandalone, SummarizesSchemaSevenReport) {
  // A schema-7 report as the previous writer emitted it: byte ledgers in
  // the chrysalis section and comm counters on the phase. The summary now
  // reads the comm[] rows and ignores the ledgers.
  const TempDir dir("run_report_v7");
  const std::string path = dir.file("v7.json");
  {
    std::ofstream out(path);
    out << R"({"schema_version": 7, "generator": "trinity_pipeline", "nranks": 2,
  "model_threads_per_rank": 4, "options_fingerprint": "00000000000000aa",
  "stages_executed": ["chrysalis.graph_from_fasta"], "stages_resumed": [],
  "stage_retries": 0, "io_retries": 0,
  "phases": [{"name": "chrysalis.graph_from_fasta", "start_s": 0.0, "wall_s": 0.5,
    "cpu_s": 0.9, "rss_before_b": 1, "rss_after_b": 2, "rss_peak_b": 3,
    "counters": {"skew_ratio": 1.2, "comm_bytes_sent": 300, "comm_bytes_received": 900,
      "comm_wait_s": 0.01, "allgatherv_bytes_received": 600}}],
  "comm": [{"stage": "chrysalis.graph_from_fasta", "nranks": 2, "max_virtual_s": 0.6,
    "mean_virtual_s": 0.5, "skew_ratio": 1.2, "ranks": [
      {"rank": 0, "cpu_s": 0.4, "comm_s": 0.2, "virtual_s": 0.6,
       "ops": {"allgatherv": {"calls": 14, "bytes_sent": 100, "bytes_received": 300,
                              "wait_s": 0.0}}},
      {"rank": 1, "cpu_s": 0.3, "comm_s": 0.1, "virtual_s": 0.4,
       "ops": {"allgatherv": {"calls": 14, "bytes_sent": 200, "bytes_received": 300,
                              "wait_s": 0.01}}}]}],
  "chrysalis": {
    "graph_from_fasta": {"loop1_s": [0.1, 0.2], "loop2_s": [0.1, 0.1], "setup_s": 0.01,
      "finalize_s": 0.02, "comm_s": 0.2, "weld_bytes_contributed": [60, 140],
      "weld_bytes_pooled": 200, "match_bytes_contributed": [8, 8],
      "match_bytes_pooled": 16, "pool_wait_s": 0.01, "gff_sharding": "pooled"},
    "reads_to_transcripts": {"main_loop_s": [0.3, 0.3], "setup_s": 0.1, "concat_s": 0.0,
      "comm_s": 0.0, "rank_chunks": [2, 1], "rank_reads": [20, 10],
      "assignment_bytes_contributed": [480, 240], "assignment_bytes_pooled": 720}}}
)";
  }
  const util::Json report = load_run_report(path);
  std::ostringstream out;
  summarize_report(report, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("schema 7"), std::string::npos);
  EXPECT_NE(text.find("chrysalis.graph_from_fasta: allgatherv 28x 300 B -> 600 B;"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("graph_from_fasta sharding: pooled"), std::string::npos);
  EXPECT_NE(text.find("chunks per rank: 2 1"), std::string::npos);
}

TEST(RunReportStandalone, SummarizesSchemaFourJobReport) {
  // A schema-4 report as the job server wrote it for a finished job: the
  // job block (job_id, tenant, preemptions, attempts, outcome, recovered)
  // still loads, and the summary prints the run and ignores the job fields.
  const TempDir dir("run_report_v4");
  const std::string path = dir.file("v4.json");
  {
    std::ofstream out(path);
    out << R"({"schema_version": 4, "generator": "trinity_pipeline", "nranks": 1,
  "model_threads_per_rank": 16, "options_fingerprint": "00000000000000bb",
  "job_id": "job-7", "tenant": "alice", "preemptions": 2, "attempts": 3,
  "outcome": "completed", "recovered": true,
  "stages_executed": ["jellyfish"], "stages_resumed": ["write_input"],
  "stage_retries": 0, "io_retries": 0,
  "phases": [{"name": "jellyfish", "start_s": 0.0, "wall_s": 0.5, "cpu_s": 0.9,
    "rss_before_b": 1, "rss_after_b": 2, "rss_peak_b": 3, "counters": {}}],
  "comm": []}
)";
  }
  const util::Json report = load_run_report(path);
  EXPECT_EQ(report.at("job_id").as_string(), "job-7");
  std::ostringstream out;
  ASSERT_NO_THROW(summarize_report(report, out));
  const std::string text = out.str();
  EXPECT_NE(text.find("schema 4"), std::string::npos) << text;
  EXPECT_NE(text.find("stages executed: jellyfish"), std::string::npos) << text;
  EXPECT_NE(text.find("stages resumed:  write_input"), std::string::npos) << text;
  EXPECT_EQ(text.find("alice"), std::string::npos) << text;
}

}  // namespace
}  // namespace trinity::pipeline
