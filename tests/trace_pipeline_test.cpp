// End-to-end tests for distributed tracing through the pipeline: a traced
// hybrid run must leave a well-formed Chrome trace containing spans from all
// four instrumented layers (simpi, parallel loops, io, pipeline stages),
// the analyzer's stage windows must agree with the run report's phase wall
// times, the report must link the trace, and tracing must stay off (and
// artifact-free) by default.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "pipeline/run_report.hpp"
#include "pipeline/trinity_pipeline.hpp"
#include "sim/transcriptome.hpp"
#include "test_helpers.hpp"
#include "trace/analyze.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/span_recorder.hpp"

namespace trinity::pipeline {
namespace {

using trinity::testing::TempDir;

const sim::Dataset& shared_dataset() {
  static const sim::Dataset data = [] {
    auto p = sim::preset("tiny");
    p.reads.error_rate = 0.002;
    p.reads.coverage = 30.0;
    p.reads.expression_sigma = 0.7;
    return sim::simulate_dataset(p);
  }();
  return data;
}

PipelineOptions traced_options(const std::string& work_dir, int nranks) {
  PipelineOptions o;
  o.k = 15;
  o.nranks = nranks;
  o.work_dir = work_dir;
  o.model_threads_per_rank = 4;
  o.max_mem_reads = 500;
  o.trace_sample_interval_ms = 0;
  o.omp_threads = 2;
  o.trace_path = "trace.json";
  return o;
}

TEST(TracePipelineTest, TracedHybridRunEmitsValidTraceFromAllLayers) {
  TempDir dir("trace_e2e");
  const int nranks = 2;
  const auto options = traced_options(dir.str(), nranks);
  const PipelineResult result =
      run_pipeline(shared_dataset().reads.reads, options);

  // The trace landed where trace_path said, and it is a well-formed Chrome
  // trace-event document.
  ASSERT_EQ(result.trace_file, dir.file("trace.json"));
  ASSERT_TRUE(std::filesystem::exists(result.trace_file));
  const trace::TraceShapeReport shape =
      trace::validate_chrome_trace_file(result.trace_file);
  EXPECT_TRUE(shape.ok()) << (shape.errors.empty() ? "" : shape.errors[0]);

  const auto events = trace::read_chrome_trace(result.trace_file);
  ASSERT_FALSE(events.empty());

  // Spans from all four layers, with simpi and loop coverage on every rank.
  std::map<std::string, std::set<int>> span_ranks;
  bool have_pipeline_span = false;
  bool have_rss_counter = false;
  for (const auto& ev : events) {
    if (ev.kind == trace::EventKind::kCounter && ev.name == "rss_bytes") {
      have_rss_counter = true;
    }
    if (ev.kind != trace::EventKind::kSpan) continue;
    if (ev.category == trace::kCatPipeline && ev.rank < 0) {
      have_pipeline_span = true;
    } else {
      span_ranks[ev.category].insert(ev.rank);
    }
  }
  EXPECT_TRUE(have_pipeline_span);
  EXPECT_TRUE(have_rss_counter);
  for (int r = 0; r < nranks; ++r) {
    EXPECT_TRUE(span_ranks["simpi"].count(r)) << "no simpi spans for rank " << r;
    EXPECT_TRUE(span_ranks["loop"].count(r)) << "no loop spans for rank " << r;
    // Every rank writes its own ReadsToTranscripts part file.
    EXPECT_TRUE(span_ranks["io"].count(r)) << "no io spans for rank " << r;
  }

  // The analyzer's stage windows are the run report's phases: same names,
  // wall times within the 5% acceptance bound (by construction they are
  // synthesized from the same PhaseRecords, so this is exact).
  const trace::TraceAnalysis analysis = trace::analyze_trace(events);
  ASSERT_EQ(analysis.stages.size(), result.trace.size());
  std::map<std::string, double> report_wall;
  for (const auto& phase : result.trace) report_wall[phase.name] = phase.wall_seconds;
  for (const auto& stage : analysis.stages) {
    ASSERT_TRUE(report_wall.count(stage.stage)) << stage.stage;
    const double expected = report_wall[stage.stage];
    EXPECT_NEAR(stage.wall_s, expected, 0.05 * expected + 1e-6) << stage.stage;
  }

  // The hybrid Chrysalis stages saw more than one rank working.
  bool saw_multi_rank_stage = false;
  for (const auto& stage : analysis.stages) {
    if (stage.ranks.size() >= 2) saw_multi_rank_stage = true;
  }
  EXPECT_TRUE(saw_multi_rank_stage);

  // The run report links the trace (additive schema-2 field), relative to
  // the work dir as given.
  const util::Json report = load_run_report(result.report_path);
  const util::Json* trace_file = report.find("trace_file");
  ASSERT_NE(trace_file, nullptr);
  EXPECT_EQ(trace_file->as_string(), "trace.json");

  // The recorder is uninstalled once the run is over.
  EXPECT_FALSE(trace::enabled());
}

TEST(TracePipelineTest, AbsoluteTracePathIsRespected) {
  TempDir dir("trace_abs");
  auto options = traced_options(dir.str(), /*nranks=*/1);
  options.trace_path = dir.file("custom_trace.json");
  const PipelineResult result =
      run_pipeline(shared_dataset().reads.reads, options);
  EXPECT_EQ(result.trace_file, dir.file("custom_trace.json"));
  const trace::TraceShapeReport shape =
      trace::validate_chrome_trace_file(result.trace_file);
  EXPECT_TRUE(shape.ok()) << (shape.errors.empty() ? "" : shape.errors[0]);
  // Single-rank runs still carry the stage timeline.
  bool have_pipeline_span = false;
  for (const auto& ev : trace::read_chrome_trace(result.trace_file)) {
    if (ev.kind == trace::EventKind::kSpan &&
        ev.category == trace::kCatPipeline) {
      have_pipeline_span = true;
    }
  }
  EXPECT_TRUE(have_pipeline_span);
  // The report stores the path exactly as the option gave it (absolute).
  const util::Json report = load_run_report(result.report_path);
  const util::Json* trace_file = report.find("trace_file");
  ASSERT_NE(trace_file, nullptr);
  EXPECT_EQ(trace_file->as_string(), options.trace_path);
}

TEST(TracePipelineTest, TracingOffByDefaultLeavesNoArtifacts) {
  TempDir dir("trace_off");
  auto options = traced_options(dir.str(), /*nranks=*/1);
  options.trace_path.clear();
  const PipelineResult result =
      run_pipeline(shared_dataset().reads.reads, options);
  EXPECT_TRUE(result.trace_file.empty());
  EXPECT_FALSE(std::filesystem::exists(dir.file("trace.json")));
  const util::Json report = load_run_report(result.report_path);
  EXPECT_EQ(report.find("trace_file"), nullptr);
}

}  // namespace
}  // namespace trinity::pipeline
