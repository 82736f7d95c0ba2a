// Live serve telemetry end to end: one server driven through every terminal
// outcome (completed, rejected, deadline-exceeded, hung, quarantined) must
// leave a final registry snapshot whose totals agree exactly with the
// post-hoc evidence — the terminal run reports on disk and the accounting
// ledger — with no double- or under-counting, and the exporter's on-disk
// snapshot must round-trip to the same numbers.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "io/fault_plan.hpp"
#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "pipeline/run_report.hpp"
#include "pipeline/trinity_pipeline.hpp"
#include "seq/fasta.hpp"
#include "serve/journal.hpp"
#include "serve/server.hpp"
#include "sim/transcriptome.hpp"
#include "test_helpers.hpp"
#include "util/json.hpp"

namespace trinity::serve {
namespace {

using trinity::testing::TempDir;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

const std::string& shared_reads_path() {
  static const std::string path = [] {
    auto p = sim::preset("tiny");
    p.reads.coverage = 25.0;
    p.reads.expression_sigma = 0.7;
    const auto data = sim::simulate_dataset(p);
    static TempDir dir("serve_metrics_reads");
    const std::string reads = dir.file("reads.fa");
    seq::write_fasta(reads, data.reads.reads);
    return reads;
  }();
  return path;
}

JobSpec make_spec(const std::string& tenant, const std::string& job_id) {
  JobSpec spec;
  spec.tenant = tenant;
  spec.job_id = job_id;
  spec.reads_path = shared_reads_path();
  spec.options.k = 15;
  spec.options.nranks = 2;
  spec.options.omp_threads = 1;
  spec.options.model_threads_per_rank = 4;
  spec.options.trace_sample_interval_ms = 0;
  return spec;
}

/// Outcome counts harvested from the terminal run reports under `root` —
/// the post-hoc evidence the live counters must agree with.
std::map<std::string, int> report_outcomes(const std::string& root) {
  std::map<std::string, int> outcomes;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file() ||
        entry.path().filename() != pipeline::kReportFileName) {
      continue;
    }
    const util::Json report = util::Json::parse(slurp(entry.path().string()));
    if (const util::Json* outcome = report.find("outcome")) {
      ++outcomes[outcome->as_string()];
    }
  }
  return outcomes;
}

/// Sum of a counter family across series, optionally restricted to series
/// carrying all the given labels.
double sum_counter(const obs::MetricsSnapshot& snap, const std::string& name,
                   const obs::Labels& want = {}) {
  const obs::FamilySnapshot* family = snap.find_family(name);
  if (family == nullptr) return 0.0;
  double total = 0.0;
  for (const auto& series : family->series) {
    bool match = true;
    for (const auto& [k, v] : want) {
      bool found = false;
      for (const auto& [sk, sv] : series.labels) {
        if (sk == k && sv == v) { found = true; break; }
      }
      if (!found) { match = false; break; }
    }
    if (match) total += series.value;
  }
  return total;
}

TEST(ServeMetrics, SnapshotTotalsMatchRunReportsAndAccounting) {
  const TempDir root("serve_metrics_all");
  ServerOptions options;
  options.total_ranks = 4;
  options.root_dir = root.str();
  options.watchdog_poll_s = 0.02;
  options.hang_timeout_s = 0.4;
  options.job_retry = checkpoint::RetryPolicy{3, 0.01, 2.0, 0.05, 0.2};
  options.metrics_export_period_s = 0.1;
  JobServer server(options);
  ASSERT_NE(server.metrics(), nullptr);
  ASSERT_NE(server.exporter(), nullptr);

  // Two clean completions.
  ASSERT_TRUE(server.submit(make_spec("alice", "ok1")).accepted());
  ASSERT_TRUE(server.submit(make_spec("alice", "ok2")).accepted());
  // A duplicate id: typed invalid-spec reject, charged to the tenant.
  EXPECT_EQ(server.submit(make_spec("alice", "ok1")).code,
            AdmitCode::kInvalidSpec);
  // Deadline kill: wedged well past an already-tight deadline.
  JobSpec overdue = make_spec("bob", "overdue");
  overdue.deadline_s = 0.3;
  overdue.options.hang_stage = "inchworm";
  overdue.options.hang_seconds = 60.0;
  ASSERT_TRUE(server.submit(std::move(overdue)).accepted());
  // Hang kill: no deadline, the progress watchdog has to catch it.
  JobSpec wedged = make_spec("bob", "wedged");
  wedged.options.hang_stage = "inchworm";
  wedged.options.hang_seconds = 60.0;
  ASSERT_TRUE(server.submit(std::move(wedged)).accepted());
  // Quarantine: the unarmed plan re-fires on every dispatch (poison job).
  JobSpec poison = make_spec("carol", "poison");
  poison.options.io_fault =
      io::IoFaultPlan::parse("write:*/carol/poison/kmers.bin:1:eio");
  poison.options.retry.max_attempts = 1;
  poison.max_attempts = 2;
  ASSERT_TRUE(server.submit(std::move(poison)).accepted());

  server.drain();
  server.shutdown();

  const obs::MetricsSnapshot snap = server.metrics_snapshot();

  // --- live totals vs the terminal run reports on disk --------------------
  const std::map<std::string, int> reports = report_outcomes(root.str());
  for (const char* outcome :
       {"completed", "deadline_exceeded", "hung", "quarantined"}) {
    const auto it = reports.find(outcome);
    const int on_disk = it == reports.end() ? 0 : it->second;
    EXPECT_EQ(sum_counter(snap, "trinity_serve_jobs_total",
                          {{"outcome", outcome}}),
              static_cast<double>(on_disk))
        << outcome;
  }
  EXPECT_EQ(sum_counter(snap, "trinity_serve_jobs_total",
                        {{"outcome", "completed"}}),
            2.0);
  EXPECT_EQ(sum_counter(snap, "trinity_serve_jobs_total",
                        {{"outcome", "deadline_exceeded"}}),
            1.0);
  EXPECT_EQ(
      sum_counter(snap, "trinity_serve_jobs_total", {{"outcome", "hung"}}),
      1.0);
  EXPECT_EQ(sum_counter(snap, "trinity_serve_jobs_total",
                        {{"outcome", "quarantined"}}),
            1.0);
  // Every terminal job appears exactly once across all outcomes.
  EXPECT_EQ(sum_counter(snap, "trinity_serve_jobs_total"), 5.0);

  // --- live totals vs the accounting ledger -------------------------------
  Accounting accounting = server.accounting();
  std::int64_t rejected = 0, retries = 0;
  for (const auto& account : accounting.accounts()) {
    rejected += account.jobs_rejected;
    retries += account.job_retries;
  }
  EXPECT_EQ(sum_counter(snap, "trinity_serve_jobs_rejected_total"),
            static_cast<double>(rejected));
  EXPECT_EQ(sum_counter(snap, "trinity_serve_jobs_rejected_total",
                        {{"tenant", "alice"}}),
            1.0);
  EXPECT_EQ(sum_counter(snap, "trinity_serve_job_retries_total"),
            static_cast<double>(retries));
  EXPECT_EQ(accounting.account("bob").deadline_kills, 1);
  EXPECT_EQ(accounting.account("bob").hung_kills, 1);
  EXPECT_EQ(accounting.account("carol").jobs_quarantined, 1);

  // Admission outcomes: 5 accepted, 1 typed reject.
  EXPECT_EQ(sum_counter(snap, "trinity_serve_admission_total",
                        {{"outcome", "accepted"}}),
            5.0);
  EXPECT_EQ(sum_counter(snap, "trinity_serve_admission_total",
                        {{"outcome", "invalid_spec"}}),
            1.0);

  // --- per-job instrumentation ---------------------------------------------
  // Completed jobs observed a latency sample and left stage durations plus
  // heartbeats behind; active gauges are all back to zero.
  const obs::SeriesSnapshot* latency = snap.find(
      "trinity_serve_job_latency_seconds", {{"tenant", "alice"}});
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->hist.count(), 2u);
  const obs::FamilySnapshot* stages =
      snap.find_family("trinity_stage_duration_seconds");
  ASSERT_NE(stages, nullptr);
  EXPECT_FALSE(stages->series.empty());
  const obs::SeriesSnapshot* heartbeat =
      snap.find("trinity_job_stage_heartbeat",
                {{"job", "ok1"}, {"stage", "jellyfish"}, {"tenant", "alice"}});
  ASSERT_NE(heartbeat, nullptr);
  EXPECT_GT(heartbeat->value, 0.0);
  EXPECT_EQ(sum_counter(snap, "trinity_job_active"), 0.0);
  // Queue wait is sampled exactly once per dispatch. The exact dispatch
  // count is timing-dependent (a queued job can die at its deadline before
  // ever dispatching), so compare against the servers own dispatch totals.
  std::uint64_t dispatches = 0;
  for (const auto& job : server.jobs()) {
    dispatches += static_cast<std::uint64_t>(job.dispatches);
  }
  const obs::SeriesSnapshot* queue_wait =
      snap.find("trinity_serve_queue_wait_seconds", {});
  ASSERT_NE(queue_wait, nullptr);
  EXPECT_EQ(queue_wait->hist.count(), dispatches);

  // --- journal instrumentation ---------------------------------------------
  // Every durable append is one fsync-latency sample and one counted event,
  // and the journal on disk replays to exactly that many events.
  const obs::SeriesSnapshot* appends =
      snap.find("trinity_serve_journal_append_seconds", {});
  ASSERT_NE(appends, nullptr);
  const std::size_t replayed =
      JobJournal::replay(root.str() + "/journal.jsonl").events.size();
  EXPECT_EQ(appends->hist.count(), replayed);
  EXPECT_EQ(sum_counter(snap, "trinity_serve_journal_events_total"),
            static_cast<double>(replayed));

  // --- the exporter's terminal snapshot ------------------------------------
  // shutdown() flushes a final export: metrics.prom parses and agrees with
  // the in-memory totals, and is the only snapshot file in the root.
  const obs::MetricsSnapshot prom =
      obs::parse_prometheus_text(slurp(server.exporter()->prom_path()));
  EXPECT_EQ(sum_counter(prom, "trinity_serve_jobs_total"), 5.0);
  EXPECT_EQ(sum_counter(prom, "trinity_serve_jobs_rejected_total"),
            static_cast<double>(rejected));
  EXPECT_GT(prom.sequence, 0u);
  EXPECT_FALSE(std::filesystem::exists(root.str() + "/metrics.json"));
}

TEST(ServeMetrics, DisabledMetricsMeansNoRegistryAndNoExporter) {
  const TempDir root("serve_metrics_off");
  ServerOptions options;
  options.total_ranks = 4;
  options.root_dir = root.str();
  options.metrics = false;
  JobServer server(options);
  EXPECT_EQ(server.metrics(), nullptr);
  EXPECT_EQ(server.exporter(), nullptr);
  ASSERT_TRUE(server.submit(make_spec("t", "plain")).accepted());
  server.drain();
  server.shutdown();
  EXPECT_EQ(server.jobs().front().state, JobState::kCompleted);
  EXPECT_FALSE(std::filesystem::exists(root.str() + "/metrics.prom"));
  const obs::MetricsSnapshot snap = server.metrics_snapshot();
  EXPECT_TRUE(snap.families.empty());
}

TEST(ServeMetrics, QueueGaugesRecoverAndPeakPersists) {
  const TempDir root("serve_metrics_queue");
  ServerOptions options;
  options.total_ranks = 2;  // force queueing: only one 2-rank job at a time
  options.root_dir = root.str();
  options.watchdog_poll_s = 0.02;
  options.metrics_export_period_s = 0.0;  // registry only, no exporter thread
  JobServer server(options);
  EXPECT_EQ(server.exporter(), nullptr);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        server.submit(make_spec("t", "q" + std::to_string(i))).accepted());
  }
  server.drain();
  server.shutdown();
  const obs::MetricsSnapshot snap = server.metrics_snapshot();
  EXPECT_EQ(snap.value_or("trinity_serve_queue_depth", {}), 0.0);
  EXPECT_EQ(snap.value_or("trinity_serve_jobs_inflight", {}), 0.0);
  EXPECT_GE(snap.value_or("trinity_serve_queue_depth_peak", {}), 2.0);
  EXPECT_EQ(snap.value_or("trinity_serve_ranks_available", {}), 2.0);
  EXPECT_EQ(snap.value_or("trinity_serve_ranks_total", {}), 2.0);
  EXPECT_EQ(sum_counter(snap, "trinity_serve_jobs_total",
                        {{"outcome", "completed"}}),
            3.0);
}

}  // namespace
}  // namespace trinity::serve
