// Tests for the serve layer: job-spec parsing/validation, the rank pool,
// typed admission control (quota rejects, bounded-queue backpressure),
// end-to-end scheduling over the shared pool, and priority preemption
// producing byte-identical transcripts after checkpoint -> requeue ->
// resume.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "pipeline/run_report.hpp"
#include "pipeline/trinity_pipeline.hpp"
#include "seq/fasta.hpp"
#include "serve/server.hpp"
#include "sim/transcriptome.hpp"
#include "simpi/rank_pool.hpp"
#include "test_helpers.hpp"

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

/// Simulated reads written to disk once, shared by every test job.
const std::string& shared_reads_path() {
  static const std::string path = [] {
    auto p = sim::preset("tiny");
    p.reads.coverage = 25.0;
    p.reads.expression_sigma = 0.7;
    const auto data = sim::simulate_dataset(p);
    static TempDir dir("serve_reads");  // outlives every test in the binary
    const std::string reads = dir.file("reads.fa");
    seq::write_fasta(reads, data.reads.reads);
    return reads;
  }();
  return path;
}

/// Byte-reproducible job options (single OpenMP thread, no RSS sampler).
pipeline::PipelineOptions job_options(int nranks = 2) {
  pipeline::PipelineOptions o;
  o.k = 15;
  o.nranks = nranks;
  o.omp_threads = 1;
  o.model_threads_per_rank = 4;
  o.trace_sample_interval_ms = 0;
  return o;
}

JobSpec make_spec(const std::string& tenant, const std::string& job_id, int priority = 0,
                  int nranks = 2) {
  JobSpec spec;
  spec.tenant = tenant;
  spec.job_id = job_id;
  spec.priority = priority;
  spec.reads_path = shared_reads_path();
  spec.options = job_options(nranks);
  return spec;
}

JobStatus status_of(const JobServer& server, const std::string& job_id) {
  for (const auto& job : server.jobs()) {
    if (job.job_id == job_id) return job;
  }
  ADD_FAILURE() << "no job " << job_id;
  return {};
}

// --- job-spec parsing -------------------------------------------------------------

TEST(JobSpec, ParsesFullSpec) {
  const JobSpec spec = parse_job_spec_text(
      R"({"tenant": "alice", "job-id": "j1", "priority": 7, "reads": "/data/reads.fa",
          "rss-estimate-mb": 128, "ranks": 4, "k": 21})",
      "<test>");
  EXPECT_EQ(spec.tenant, "alice");
  EXPECT_EQ(spec.job_id, "j1");
  EXPECT_EQ(spec.priority, 7);
  EXPECT_EQ(spec.reads_path, "/data/reads.fa");
  EXPECT_EQ(spec.rss_estimate_bytes, 128u * 1024 * 1024);
  EXPECT_EQ(spec.options.nranks, 4);
  EXPECT_EQ(spec.options.k, 21);
}

TEST(JobSpec, UnderscoreSpellingsWork) {
  const JobSpec spec = parse_job_spec_text(
      R"({"tenant": "t", "reads": "/r.fa", "job_id": "u1", "rss_estimate_mb": 1})",
      "<test>");
  EXPECT_EQ(spec.job_id, "u1");
  EXPECT_EQ(spec.rss_estimate_bytes, 1024u * 1024);
}

TEST(JobSpec, MissingTenantIsTypedError) {
  try {
    static_cast<void>(parse_job_spec_text(R"({"reads": "/r.fa"})", "<test>"));
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.field(), "tenant");
  }
}

TEST(JobSpec, MissingReadsIsTypedError) {
  try {
    static_cast<void>(parse_job_spec_text(R"({"tenant": "t"})", "<test>"));
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.field(), "reads");
  }
}

TEST(JobSpec, UnknownKeyIsTypedError) {
  try {
    static_cast<void>(
        parse_job_spec_text(R"({"tenant": "t", "reads": "/r.fa", "walltime": 3})", "<test>"));
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.field(), "walltime");
  }
}

TEST(JobSpec, OutOfRangePipelineOptionIsTypedError) {
  try {
    static_cast<void>(
        parse_job_spec_text(R"({"tenant": "t", "reads": "/r.fa", "k": 99})", "<test>"));
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.field(), "k");
  }
}

TEST(JobSpec, MalformedIoFaultIsTypedError) {
  try {
    static_cast<void>(parse_job_spec_text(
        R"({"tenant": "t", "reads": "/r.fa", "io-fault": "bogus"})", "<test>"));
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.field(), "io-fault");
  }
}

TEST(JobSpec, IoFaultPlanParses) {
  const JobSpec spec = parse_job_spec_text(
      R"({"tenant": "t", "reads": "/r.fa", "io-fault": "write:*kmers.bin:1:enospc"})",
      "<test>");
  EXPECT_TRUE(spec.options.io_fault.enabled());
  EXPECT_EQ(spec.options.io_fault.path_glob, "*kmers.bin");
}

// --- rank pool --------------------------------------------------------------------

TEST(RankPool, LeaseAndRelease) {
  simpi::RankPool pool(4);
  EXPECT_EQ(pool.total(), 4);
  EXPECT_EQ(pool.available(), 4);
  {
    simpi::RankLease lease = pool.try_lease(3);
    EXPECT_TRUE(lease.owns());
    EXPECT_EQ(lease.count(), 3);
    EXPECT_EQ(pool.available(), 1);
    simpi::RankLease denied = pool.try_lease(2);
    EXPECT_FALSE(denied.owns());
    EXPECT_EQ(pool.available(), 1);
  }
  EXPECT_EQ(pool.available(), 4);  // RAII release
}

TEST(RankPool, MoveTransfersOwnership) {
  simpi::RankPool pool(2);
  simpi::RankLease a = pool.try_lease(2);
  simpi::RankLease b = std::move(a);
  EXPECT_FALSE(a.owns());  // NOLINT(bugprone-use-after-move): asserting moved-from state
  EXPECT_TRUE(b.owns());
  EXPECT_EQ(pool.available(), 0);
  b.release();
  EXPECT_EQ(pool.available(), 2);
  b.release();  // idempotent
  EXPECT_EQ(pool.available(), 2);
}

TEST(RankPool, OversizedRequestThrows) {
  simpi::RankPool pool(2);
  EXPECT_THROW((void)pool.try_lease(3), std::invalid_argument);
  EXPECT_THROW((void)pool.try_lease(0), std::invalid_argument);
  EXPECT_THROW(simpi::RankPool(0), std::invalid_argument);
}

TEST(RankPool, BlockingLeaseWaitsForRelease) {
  simpi::RankPool pool(2);
  simpi::RankLease held = pool.try_lease(2);
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    simpi::RankLease lease = pool.lease(1);
    acquired.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired.load());
  held.release();
  waiter.join();
  EXPECT_TRUE(acquired.load());
  EXPECT_EQ(pool.available(), 2);
}

// --- admission --------------------------------------------------------------------

TEST(Admission, TenantQueueQuotaRejects) {
  TenantQuota quota;
  quota.max_queued_jobs = 2;
  AdmissionController admission(8, 64, quota, {});
  const JobSpec spec = make_spec("alice", "a1");
  EXPECT_TRUE(admission.admit(spec).accepted());
  admission.note_queued(spec);
  admission.note_queued(spec);
  const AdmitResult result = admission.admit(spec);
  EXPECT_EQ(result.code, AdmitCode::kTenantQueueFull);
  EXPECT_NE(result.detail.find("alice"), std::string::npos);
  // Another tenant is unaffected.
  EXPECT_TRUE(admission.admit(make_spec("bob", "b1")).accepted());
}

TEST(Admission, BoundedQueueBackpressure) {
  AdmissionController admission(8, 2, TenantQuota{}, {});
  const JobSpec a = make_spec("alice", "a1");
  const JobSpec b = make_spec("bob", "b1");
  admission.note_queued(a);
  admission.note_queued(b);
  const AdmitResult result = admission.admit(make_spec("carol", "c1"));
  EXPECT_EQ(result.code, AdmitCode::kQueueFull);
  // Dispatching one frees a slot.
  admission.note_started(a);
  EXPECT_TRUE(admission.admit(make_spec("carol", "c1")).accepted());
}

TEST(Admission, RankQuotaIsPermanentReject) {
  TenantQuota quota;
  quota.max_concurrent_ranks = 2;
  AdmissionController admission(8, 64, quota, {});
  const AdmitResult result = admission.admit(make_spec("alice", "a1", 0, 4));
  EXPECT_EQ(result.code, AdmitCode::kTenantRankQuota);
}

TEST(Admission, PoolTooSmallIsPermanentReject) {
  TenantQuota quota;
  quota.max_concurrent_ranks = 64;
  AdmissionController admission(4, 64, quota, {});
  EXPECT_EQ(admission.admit(make_spec("alice", "a1", 0, 8)).code,
            AdmitCode::kPoolTooSmall);
}

TEST(Admission, RssBudgetRejects) {
  TenantQuota quota;
  quota.rss_budget_bytes = 100;
  AdmissionController admission(8, 64, quota, {});
  JobSpec spec = make_spec("alice", "a1");
  spec.rss_estimate_bytes = 200;
  EXPECT_EQ(admission.admit(spec).code, AdmitCode::kTenantRssBudget);
  spec.rss_estimate_bytes = 60;
  EXPECT_TRUE(admission.admit(spec).accepted());
  // Headroom accounting: a running 60-byte job leaves no room for another.
  admission.note_queued(spec);
  admission.note_started(spec);
  EXPECT_FALSE(admission.has_running_headroom(spec));
  admission.note_finished(spec);
  EXPECT_TRUE(admission.has_running_headroom(spec));
}

TEST(Admission, PerTenantQuotaOverrides) {
  TenantQuota dflt;
  dflt.max_queued_jobs = 1;
  TenantQuota premium;
  premium.max_queued_jobs = 10;
  AdmissionController admission(8, 64, dflt, {{"premium", premium}});
  EXPECT_EQ(admission.quota_for("premium").max_queued_jobs, 10);
  EXPECT_EQ(admission.quota_for("other").max_queued_jobs, 1);
}

// --- server scheduling ------------------------------------------------------------

TEST(JobServer, RunsConcurrentJobsToCompletion) {
  const TempDir root("serve_sched");
  ServerOptions options;
  options.total_ranks = 4;
  options.root_dir = root.str();
  JobServer server(options);
  EXPECT_TRUE(server.submit(make_spec("alice", "a1")).accepted());
  EXPECT_TRUE(server.submit(make_spec("bob", "b1")).accepted());
  server.drain();
  EXPECT_EQ(status_of(server, "a1").state, JobState::kCompleted);
  EXPECT_EQ(status_of(server, "b1").state, JobState::kCompleted);
  // Isolated work dirs, each with its own transcripts and report.
  EXPECT_FALSE(slurp(root.str() + "/alice/a1/Trinity.fa").empty());
  EXPECT_FALSE(slurp(root.str() + "/bob/b1/Trinity.fa").empty());

  Accounting accounting = server.accounting();
  bool saw_alice = false;
  for (const auto& a : accounting.accounts()) {
    if (a.tenant != "alice") continue;
    saw_alice = true;
    EXPECT_EQ(a.jobs_completed, 1);
    EXPECT_GT(a.rank_seconds, 0.0);
    EXPECT_GT(a.output_bytes, 0);
    EXPECT_GT(a.comm_bytes_sent, 0);
  }
  EXPECT_TRUE(saw_alice);
}

TEST(JobServer, DuplicateJobIdRejected) {
  const TempDir root("serve_dup");
  ServerOptions options;
  options.total_ranks = 2;
  options.root_dir = root.str();
  JobServer server(options);
  EXPECT_TRUE(server.submit(make_spec("alice", "same")).accepted());
  const AdmitResult result = server.submit(make_spec("bob", "same"));
  EXPECT_EQ(result.code, AdmitCode::kInvalidSpec);
  server.drain();
}

TEST(JobServer, RejectsAfterShutdown) {
  const TempDir root("serve_shutdown");
  ServerOptions options;
  options.total_ranks = 2;
  options.root_dir = root.str();
  JobServer server(options);
  server.shutdown();
  EXPECT_EQ(server.submit(make_spec("alice", "late")).code, AdmitCode::kShutdown);
}

TEST(JobServer, SubmitTextParsesAndRejectsTyped) {
  const TempDir root("serve_text");
  ServerOptions options;
  options.total_ranks = 2;
  options.root_dir = root.str();
  JobServer server(options);
  const AdmitResult bad = server.submit_text(R"({"reads": "/r.fa"})", "<test>");
  EXPECT_EQ(bad.code, AdmitCode::kInvalidSpec);
  EXPECT_NE(bad.detail.find("tenant"), std::string::npos);
  const AdmitResult good = server.submit_text(
      R"({"tenant": "alice", "reads": ")" + shared_reads_path() +
          R"(", "ranks": 2, "k": 15, "omp-threads": 1})",
      "<test>");
  EXPECT_TRUE(good.accepted());
  server.drain();
  EXPECT_EQ(server.jobs().size(), 1u);
  EXPECT_EQ(server.jobs()[0].state, JobState::kCompleted);
}

TEST(JobServer, ReportCarriesJobAttribution) {
  const TempDir root("serve_attr");
  ServerOptions options;
  options.total_ranks = 2;
  options.root_dir = root.str();
  JobServer server(options);
  EXPECT_TRUE(server.submit(make_spec("alice", "a1")).accepted());
  server.drain();
  const util::Json report =
      pipeline::load_run_report(root.str() + "/alice/a1/run_report.json");
  ASSERT_NE(report.find("job_id"), nullptr);
  EXPECT_EQ(report.at("job_id").as_string(), "a1");
  EXPECT_EQ(report.at("tenant").as_string(), "alice");
  EXPECT_EQ(report.at("preemptions").as_int(), 0);
}

TEST(JobServer, RemovedR2TJobSpecKeysAreRejected) {
  // ReadsToTranscripts index mode and its collective output are gone: a job
  // spec naming one of their keys is an invalid spec whose error names the
  // key, and nothing runs.
  const TempDir root("serve_removed_r2t");
  ServerOptions options;
  options.total_ranks = 2;
  options.root_dir = root.str();
  JobServer server(options);
  const std::vector<std::pair<std::string, std::string>> keys = {
      {"r2t-mode", "r2t-mode"},
      {"r2t-index", "r2t-index"},
      {"r2t_mode", "r2t-mode"},
      {"r2t-output", "r2t-output"}};
  for (const auto& [key, field] : keys) {
    SCOPED_TRACE(key);
    const std::string text = R"({"tenant": "alice", "reads": ")" + shared_reads_path() +
                             R"(", ")" + key + R"(": "index"})";
    const AdmitResult result = server.submit_text(text, "<test>");
    EXPECT_EQ(result.code, AdmitCode::kInvalidSpec);
    EXPECT_NE(result.detail.find("--" + field + ": unknown"), std::string::npos)
        << result.detail;
    try {
      (void)parse_job_spec_text(text, "<test>", pipeline::PipelineOptions{});
      ADD_FAILURE() << "spec with " << key << " parsed";
    } catch (const ConfigError& e) {
      EXPECT_EQ(e.field(), field);
    }
  }
  server.drain();
  EXPECT_TRUE(server.jobs().empty());
}

// --- preemption -------------------------------------------------------------------

TEST(JobServer, PreemptedJobResumesToByteIdenticalTranscripts) {
  // Baseline: the same job, uninterrupted, alone on the pool.
  const TempDir baseline_root("serve_base");
  {
    ServerOptions options;
    options.total_ranks = 2;
    options.root_dir = baseline_root.str();
    JobServer server(options);
    ASSERT_TRUE(server.submit(make_spec("victim", "v1", 0)).accepted());
    server.drain();
    ASSERT_EQ(status_of(server, "v1").state, JobState::kCompleted);
  }
  const std::string baseline = slurp(baseline_root.str() + "/victim/v1/Trinity.fa");
  ASSERT_FALSE(baseline.empty());

  // Scenario: the victim fills the whole pool; a high-priority arrival
  // must preempt it at a stage boundary, run, and let it resume.
  const TempDir root("serve_preempt");
  ServerOptions options;
  options.total_ranks = 2;
  options.root_dir = root.str();
  JobServer server(options);
  ASSERT_TRUE(server.submit(make_spec("victim", "v1", 0)).accepted());
  // Wait until the victim actually holds the pool, then submit the VIP job
  // so the only way it can run is by preempting.
  for (int i = 0; i < 2000 && status_of(server, "v1").state != JobState::kRunning; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(status_of(server, "v1").state, JobState::kRunning);
  ASSERT_TRUE(server.submit(make_spec("vip", "hi1", 10)).accepted());
  server.drain();

  const JobStatus victim = status_of(server, "v1");
  const JobStatus vip = status_of(server, "hi1");
  EXPECT_EQ(victim.state, JobState::kCompleted);
  EXPECT_EQ(vip.state, JobState::kCompleted);
  EXPECT_GE(victim.preemptions, 1);
  EXPECT_GE(victim.dispatches, 2);

  // The preempted-then-resumed transcripts are byte-identical to the
  // uninterrupted baseline.
  EXPECT_EQ(slurp(root.str() + "/victim/v1/Trinity.fa"), baseline);

  // Attribution flows into the victim's report and the accounting ledger.
  const util::Json report =
      pipeline::load_run_report(root.str() + "/victim/v1/run_report.json");
  ASSERT_NE(report.find("preemptions"), nullptr);
  EXPECT_GE(report.at("preemptions").as_int(), 1);
  Accounting accounting = server.accounting();
  EXPECT_GE(accounting.account("victim").preemptions, 1);
}

TEST(JobServer, NoPreemptionWhenDisabled) {
  const TempDir root("serve_nopreempt");
  ServerOptions options;
  options.total_ranks = 2;
  options.root_dir = root.str();
  options.preemption = false;
  JobServer server(options);
  ASSERT_TRUE(server.submit(make_spec("victim", "v1", 0)).accepted());
  for (int i = 0; i < 2000 && status_of(server, "v1").state != JobState::kRunning; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(server.submit(make_spec("vip", "hi1", 10)).accepted());
  server.drain();
  EXPECT_EQ(status_of(server, "v1").preemptions, 0);
  EXPECT_EQ(status_of(server, "v1").state, JobState::kCompleted);
  EXPECT_EQ(status_of(server, "hi1").state, JobState::kCompleted);
}

// --- pipeline-level preemption token (deterministic) ------------------------------

TEST(PreemptToken, SetTokenStopsAtFirstBoundaryAndResumeCompletes) {
  const TempDir dir("preempt_token");
  auto options = job_options(1);
  options.work_dir = dir.str();
  options.preempt = std::make_shared<std::atomic<bool>>(true);  // already set
  EXPECT_THROW(
      { (void)pipeline::run_pipeline_from_file(shared_reads_path(), options); },
      pipeline::PreemptedError);

  // Baseline run in a second dir for the byte comparison.
  const TempDir base("preempt_token_base");
  auto base_options = job_options(1);
  base_options.work_dir = base.str();
  (void)pipeline::run_pipeline_from_file(shared_reads_path(), base_options);

  options.preempt->store(false);
  options.resume = true;
  const auto result = pipeline::run_pipeline_from_file(shared_reads_path(), options);
  EXPECT_FALSE(result.transcripts.empty());
  EXPECT_EQ(slurp(dir.file("Trinity.fa")), slurp(base.file("Trinity.fa")));
}

}  // namespace
}  // namespace trinity::serve
