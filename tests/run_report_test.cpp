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

  // Every pooled GraphFromFasta collective (the weld pool, the match pool
  // and the timing allgather) is entered by every rank, and each rank
  // receives the concatenation of all contributions: a pool is exactly its
  // contributions, on every rank.
  std::int64_t contributed = 0;
  for (const auto& rank : gff_stage->at("ranks").items()) {
    EXPECT_GT(op_field(rank, "allgatherv", "calls"), 0);
    contributed += op_field(rank, "allgatherv", "bytes_sent");
  }
  EXPECT_GT(contributed, 0);
  for (const auto& rank : gff_stage->at("ranks").items()) {
    EXPECT_EQ(op_field(rank, "allgatherv", "bytes_received"), contributed);
  }

  // The in-memory RankResults agree with the document.
  const auto metrics =
      std::find_if(result_->stage_comm.begin(), result_->stage_comm.end(),
                   [](const auto& m) { return m.stage == "chrysalis.graph_from_fasta"; });
  ASSERT_NE(metrics, result_->stage_comm.end());
  std::int64_t in_memory = 0;
  for (const auto& r : metrics->ranks) {
    in_memory += static_cast<std::int64_t>(r.comm.of(simpi::CommOp::kAllgatherv).bytes_sent);
  }
  EXPECT_EQ(in_memory, contributed);
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
  // small reductions and the timing record, less than the routed bytes.
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
  // and the verification. Each runs on an allgather, and the timing adds
  // one more.
  const std::int64_t rounds =
      report.at("chrysalis").at("graph_from_fasta").at("dsu_rounds").as_int();
  const util::Json* gff_stage = comm_stage(report, "chrysalis.graph_from_fasta");
  ASSERT_NE(gff_stage, nullptr);
  for (const auto& rank : gff_stage->at("ranks").items()) {
    EXPECT_EQ(op_field(rank, "reduce", "calls"), rounds + 2);
    EXPECT_EQ(op_field(rank, "allgatherv", "calls"), rounds + 3);
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

TEST_F(RunReportTest, ReadsToTranscriptsChunkAccounting) {
  const auto& r2t = report_->at("chrysalis").at("reads_to_transcripts");
  std::int64_t chunks = 0, reads = 0;
  for (const auto& v : r2t.at("rank_chunks").items()) chunks += v.as_int();
  for (const auto& v : r2t.at("rank_reads").items()) reads += v.as_int();
  EXPECT_GT(chunks, 0);
  EXPECT_EQ(reads, static_cast<std::int64_t>(result_->assignments.size()));

  // The assignments travel to rank 0 on gatherv. Each allgatherv also runs
  // a gatherv of its contribution, so a non-root rank's gatherv bytes less
  // its allgatherv bytes are exactly its assignment records, and rank 0
  // receives everything the others sent.
  const util::Json* stage = comm_stage(*report_, "chrysalis.reads_to_transcripts");
  ASSERT_NE(stage, nullptr);
  const auto& ranks = stage->at("ranks").items();
  std::int64_t gathered = 0;
  for (std::size_t r = 1; r < ranks.size(); ++r) {
    const std::int64_t sent = op_field(ranks[r], "gatherv", "bytes_sent");
    EXPECT_EQ(sent - op_field(ranks[r], "allgatherv", "bytes_sent"),
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
  // Schema v3 job attribution is for served jobs only; a direct pipeline
  // invocation must not carry the fields at all (older readers keep working).
  EXPECT_EQ(report_->find("job_id"), nullptr);
  EXPECT_EQ(report_->find("tenant"), nullptr);
  EXPECT_EQ(report_->find("preemptions"), nullptr);
}

TEST(RunReportStandalone, BuildEmitsJobAttributionWhenSet) {
  PipelineOptions options;
  options.nranks = 2;
  PipelineResult result;

  options.job_id = "job-7";
  options.tenant = "alice";
  options.preemptions = 2;
  const util::Json report = build_run_report(options, result);
  EXPECT_EQ(report.at("job_id").as_string(), "job-7");
  EXPECT_EQ(report.at("tenant").as_string(), "alice");
  EXPECT_EQ(report.at("preemptions").as_int(), 2);

  // Either identity field alone is enough to opt in.
  options.tenant.clear();
  const util::Json id_only = build_run_report(options, result);
  EXPECT_EQ(id_only.at("job_id").as_string(), "job-7");
  EXPECT_EQ(id_only.at("tenant").as_string(), "");
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

/// A minimal synthetic report: one phase, one comm stage with a single
/// rank whose allgatherv row carries the given byte counts.
util::Json synthetic_report(const std::string& tenant, double wall_s,
                            std::int64_t bytes, double skew,
                            std::int64_t preemptions) {
  util::Json report = util::Json::object();
  report.set("schema_version", kReportSchemaVersion);
  if (!tenant.empty()) {
    report.set("job_id", tenant + "-job");
    report.set("tenant", tenant);
    report.set("preemptions", preemptions);
  }
  util::Json phase = util::Json::object();
  phase.set("phase", "total");
  phase.set("wall_s", wall_s);
  phase.set("cpu_s", wall_s * 2.0);
  util::Json phases = util::Json::array();
  phases.push_back(std::move(phase));
  report.set("phases", std::move(phases));

  util::Json op = util::Json::object();
  op.set("calls", 1);
  op.set("bytes_sent", bytes);
  op.set("bytes_received", bytes * 3);
  util::Json ops = util::Json::object();
  ops.set("allgatherv", std::move(op));
  util::Json rank = util::Json::object();
  rank.set("rank", 0);
  rank.set("ops", std::move(ops));
  util::Json ranks = util::Json::array();
  ranks.push_back(std::move(rank));
  util::Json stage = util::Json::object();
  stage.set("stage", "demo");
  stage.set("skew_ratio", skew);
  stage.set("ranks", std::move(ranks));
  util::Json comm = util::Json::array();
  comm.push_back(std::move(stage));
  report.set("comm", std::move(comm));

  report.set("stage_retries", 1);
  return report;
}

TEST(RunReportStandalone, AggregateGroupsReportsByTenant) {
  std::vector<util::Json> reports;
  reports.push_back(synthetic_report("alice", 1.0, 100, 1.5, 1));
  reports.push_back(synthetic_report("alice", 2.0, 50, 1.2, 0));
  reports.push_back(synthetic_report("bob", 4.0, 10, 2.5, 0));
  reports.push_back(synthetic_report("", 8.0, 1, 1.0, 0));  // direct run

  const util::Json aggregate = aggregate_run_reports(reports);
  EXPECT_EQ(aggregate.at("reports").as_int(), 4);
  const auto& tenants = aggregate.at("tenants").items();
  ASSERT_EQ(tenants.size(), 3u);

  const util::Json& alice = tenants.at(0);
  EXPECT_EQ(alice.at("tenant").as_string(), "alice");
  EXPECT_EQ(alice.at("jobs").as_int(), 2);
  EXPECT_DOUBLE_EQ(alice.at("wall_s").as_double(), 3.0);
  EXPECT_DOUBLE_EQ(alice.at("cpu_s").as_double(), 6.0);
  EXPECT_EQ(alice.at("comm_bytes_sent").as_int(), 150);
  EXPECT_EQ(alice.at("comm_bytes_received").as_int(), 450);
  EXPECT_EQ(alice.at("stage_retries").as_int(), 2);
  EXPECT_EQ(alice.at("preemptions").as_int(), 1);
  EXPECT_DOUBLE_EQ(alice.at("max_skew").as_double(), 1.5);

  EXPECT_EQ(tenants.at(1).at("tenant").as_string(), "bob");
  EXPECT_DOUBLE_EQ(tenants.at(1).at("max_skew").as_double(), 2.5);

  // Reports without a tenant land in the "-" bucket.
  EXPECT_EQ(tenants.at(2).at("tenant").as_string(), "-");
  EXPECT_EQ(tenants.at(2).at("jobs").as_int(), 1);

  std::ostringstream table;
  summarize_aggregate(aggregate, table);
  EXPECT_NE(table.str().find("alice"), std::string::npos);
  EXPECT_NE(table.str().find("bob"), std::string::npos);
}

TEST(RunReportStandalone, AggregateOfNothingIsEmpty) {
  const util::Json aggregate = aggregate_run_reports({});
  EXPECT_EQ(aggregate.at("reports").as_int(), 0);
  EXPECT_TRUE(aggregate.at("tenants").items().empty());
}

}  // namespace
}  // namespace trinity::pipeline
