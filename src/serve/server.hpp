#pragma once
// JobServer: the long-lived multi-tenant assembly service.
//
// The paper's pipeline is one batch run on a dedicated allocation; the
// ROADMAP north star is the opposite regime — many concurrent assemblies
// multiplexed over one shared machine. JobServer is that regime built
// from the parts the previous PRs left behind:
//
//  * submissions are trinity::Config JSON (serve/job.hpp) — PR 5's schema
//    is the wire format, and its typed ConfigError is the reject path;
//  * admission is quota-gated and the queue is bounded (serve/admission.hpp)
//    — overload produces a typed AdmitResult, never a blocked caller;
//  * the machine is a simpi::RankPool; a job leases its ranks for each
//    dispatch and a scheduler thread multiplexes queued jobs over the
//    pool by (priority desc, submission order asc);
//  * preemption is checkpoint -> requeue -> resume: a higher-priority
//    arrival sets lower-priority jobs' preempt tokens, each victim stops
//    at its next stage boundary (PipelineOptions::preempt, throwing
//    PreemptedError after the completed stages committed their manifest
//    records), returns its ranks, and re-enters the queue; its next
//    dispatch runs with resume=true and PR 1's manifest validation skips
//    the finished stages — transcripts are byte-identical to an
//    uninterrupted run (serve_test asserts this);
//  * every job runs in an isolated work dir <root>/<tenant>/<job_id> and
//    emits its own run_report.json stamped with job/tenant attribution
//    (schema v3), so one tenant's injected rank crash or ENOSPC is
//    retried/failed inside its own directory with no cross-tenant blast
//    radius (serve_fault_test), and `trinity_report --aggregate <root>`
//    rebuilds the accounting from artifacts alone.
//
// Scheduling policy, deliberately simple and starvation-free: queued jobs
// are scanned in (priority desc, seq asc) order; a job blocked only by
// its tenant's running quota is skipped (other tenants proceed); the
// first job blocked by pool capacity ends the pass — no backfill past it,
// so a big job cannot be starved by a stream of small ones — after
// optionally marking the cheapest set of strictly-lower-priority victims
// for preemption.
//
// PR 8 makes the server crash-safe and hang-safe:
//
//  * every job state transition is appended to a durable JSONL journal
//    (<root>/journal.jsonl, serve/journal.hpp) *before* it takes effect;
//    a restarted server replays the journal, re-registers terminal jobs
//    (duplicate-id rejection survives restarts) and re-admits queued and
//    in-flight jobs, whose next dispatch resumes from the per-job
//    checkpoint manifest — kill -9 mid-run, restart, byte-identical
//    transcripts with zero duplicated stage work;
//  * a watchdog thread cancels jobs past their per-job deadline-s, and —
//    when hang_timeout_s is set — jobs whose checkpoint manifest stops
//    making progress, via the cooperative deadline token
//    (PipelineOptions::deadline -> DeadlineExceededError), recording
//    typed DeadlineExceeded/Hung outcomes;
//  * a transient job failure (io::IoError transient, simpi aborts) that
//    escapes the in-run retry driver requeues the job with jittered
//    exponential backoff until its attempt budget ("job-attempts", or the
//    server's job_retry default) is exhausted — then the job is
//    quarantined: journaled, terminal-reported, work dir preserved, and
//    its id permanently rejected on resubmission.
//
// Caveat (io fault injection): io::ScopedFaultInjection is process-global,
// so at most one *io-faulted* job should be in flight at a time and its
// path glob must be confined to that job's own work dir. simpi fault
// plans are per-world and need no such care. See docs/SERVING.md.

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "checkpoint/retry.hpp"
#include "obs/exporter.hpp"
#include "obs/metrics.hpp"
#include "serve/accounting.hpp"
#include "serve/admission.hpp"
#include "serve/job.hpp"
#include "serve/journal.hpp"
#include "simpi/rank_pool.hpp"
#include "util/timer.hpp"

namespace trinity::serve {

struct ServerOptions {
  int total_ranks = 8;       ///< size of the shared rank pool
  int max_queue_depth = 64;  ///< server-wide bounded queue
  TenantQuota default_quota;
  std::map<std::string, TenantQuota> tenant_quotas;  ///< per-tenant overrides
  std::string root_dir;  ///< job work dirs live at <root>/<tenant>/<job_id>;
                         ///< empty = <tmp>/trinity_serve
  bool preemption = true;  ///< priority preemption (off = strict FIFO by priority)
  /// Defaults seeded into submit_text's job-spec parse, exactly like a
  /// binary's with_pipeline(defaults).
  pipeline::PipelineOptions job_defaults;
  /// Durable job journal at <root>/journal.jsonl: every state transition
  /// is appended (and fsynced) before it takes effect, and the constructor
  /// replays an existing journal to recover jobs across a crash/restart.
  /// Off = PR 7 behavior (no durability, no recovery).
  bool journal = true;
  /// Watchdog hang detection: a running job whose checkpoint manifest
  /// makes no progress for this long is cancelled with outcome "hung".
  /// 0 (default) disables hang detection; per-job deadlines always apply.
  double hang_timeout_s = 0.0;
  /// Watchdog poll period.
  double watchdog_poll_s = 0.05;
  /// Job-level retry budget and backoff for transient failures that escape
  /// the in-run stage retry driver: max_attempts dispatches total, with
  /// jittered exponential backoff between them; past the budget the job is
  /// quarantined. A job's "job-attempts" key overrides max_attempts.
  checkpoint::RetryPolicy job_retry{3, 0.25, 2.0, 10.0, 0.2};
  /// Floor for deadline sanity at admission: a deadline-s below this (or
  /// negative) is rejected as a permanent invalid_spec.
  double min_plausible_runtime_s = 0.01;
  /// Live metrics (docs/OBSERVABILITY.md "Live metrics"): an in-process
  /// obs::MetricsRegistry instrumenting admission, the queue, dispatches,
  /// watchdog kills, retries/quarantines, the journal and — through
  /// PipelineOptions::metrics — per-job stage heartbeats and per-rank
  /// comm counters. Off removes every hook (a pipeline hook then costs
  /// one pointer test); on, each update is a few relaxed atomics.
  bool metrics = true;
  /// Exporter cadence: every period the registry snapshot is published
  /// atomically as <root>/metrics.prom (Prometheus text, tailed by
  /// trinity_top), with one final export at shutdown. 0 disables the exporter thread;
  /// metrics_snapshot() stays available either way.
  double metrics_export_period_s = 1.0;
};

/// Point-in-time snapshot of one job, for status displays and tests.
struct JobStatus {
  std::string job_id;
  std::string tenant;
  int priority = 0;
  JobState state = JobState::kQueued;
  int preemptions = 0;  ///< completed checkpoint->requeue cycles
  int dispatches = 0;   ///< times the job held a rank lease
  int attempts = 0;     ///< retry-budget attempts consumed (v4 semantics)
  JobOutcome outcome = JobOutcome::kNone;  ///< why the job is terminal
  bool recovered = false;  ///< re-admitted from the journal on restart
  std::string error;    ///< failure message for failed/quarantined/killed
  double queue_wait_seconds = 0.0;
  double run_seconds = 0.0;
  std::string work_dir;
};

class JobServer {
 public:
  explicit JobServer(ServerOptions options);
  ~JobServer();  ///< shutdown()
  JobServer(const JobServer&) = delete;
  JobServer& operator=(const JobServer&) = delete;

  /// Admission-checks `spec` and, on accept, enqueues it. Never blocks on
  /// a full queue: overload returns a typed reject immediately. An empty
  /// spec.job_id is assigned "job-<seq>"; a duplicate id is kInvalidSpec.
  AdmitResult submit(JobSpec spec);

  /// Parses one job-spec JSON document (serve/job.hpp, seeded with
  /// ServerOptions::job_defaults) and submits it. A ConfigError becomes a
  /// kInvalidSpec reject carrying the error text — submitters get typed
  /// validation, not an exception.
  AdmitResult submit_text(std::string_view text, const std::string& origin);

  /// Blocks until the queue is empty and no job is running.
  void drain();

  /// Stops accepting, drains, and joins every thread. Idempotent.
  void shutdown();

  [[nodiscard]] std::vector<JobStatus> jobs() const;
  /// Ledger snapshot (copy; safe to read after the server is gone).
  [[nodiscard]] Accounting accounting() const;
  [[nodiscard]] int total_ranks() const { return pool_.total(); }
  [[nodiscard]] const std::string& root_dir() const { return root_dir_; }

  /// The live registry; nullptr when ServerOptions::metrics is off.
  [[nodiscard]] obs::MetricsRegistry* metrics() const;
  /// Point-in-time snapshot of every live metric (empty when metrics are
  /// off). Safe from any thread.
  [[nodiscard]] obs::MetricsSnapshot metrics_snapshot() const;
  /// The exporter; nullptr when metrics are off or the period is 0.
  [[nodiscard]] obs::MetricsExporter* exporter() const { return exporter_.get(); }

 private:
  struct Job {
    JobSpec spec;
    std::uint64_t seq = 0;  ///< submission order (tie-break, FIFO)
    JobState state = JobState::kQueued;
    int preemptions = 0;
    int dispatches = 0;
    /// Retry-budget attempts consumed. A dispatch tentatively consumes
    /// one; a preemption hands it back (preemption is scheduling, not
    /// failure), every other outcome keeps it.
    int attempts = 0;
    bool recovered = false;  ///< re-admitted from the journal on restart
    JobOutcome outcome = JobOutcome::kNone;  ///< set when terminal
    /// Watchdog verdict for the in-flight dispatch (kNone = not killed);
    /// read by run_job when DeadlineExceededError surfaces.
    JobOutcome kill_reason = JobOutcome::kNone;
    std::string error;
    std::string work_dir;
    double submitted_at = 0.0;  ///< (re-)admission time: the deadline epoch
    double enqueued_at = 0.0;  ///< server-clock time of last queue entry
    double not_before = 0.0;   ///< backoff: earliest next dispatch time
    double queue_wait = 0.0;
    double run_time = 0.0;
    /// RSS this dispatch was charged against its tenant's running budget
    /// (admission_.effective_rss at dispatch), kept so start/finish stay
    /// symmetric while the measured EWMA moves.
    std::uint64_t charged_rss = 0;
    /// Hang detection: manifest size+mtime signature and when it last
    /// changed.
    std::uint64_t progress_signature = 0;
    double last_progress_at = 0.0;
    /// Fresh tokens per dispatch so a stale preempt/kill request cannot
    /// cancel a later dispatch of the same job.
    std::shared_ptr<std::atomic<bool>> preempt;
    std::shared_ptr<std::atomic<bool>> deadline;
  };

  void scheduler_loop();
  void watchdog_loop();
  /// One scheduling pass over the queue; see the policy note above.
  void schedule_locked();
  void dispatch_locked(Job* job, simpi::RankLease lease);
  /// Marks the cheapest set of strictly-lower-priority running jobs for
  /// preemption if that would free enough ranks for `job`.
  void maybe_preempt_locked(const Job& job, int need);
  void run_job(Job* job, simpi::RankLease lease);
  [[nodiscard]] JobStatus status_of_locked(const Job& job) const;

  /// Best-effort durable append: a transient journal IoError is logged and
  /// skipped, a permanent one degrades the server to journal-less serving
  /// (it keeps scheduling; durability is lost, not availability).
  void journal_locked(const JournalEvent& ev);
  [[nodiscard]] JournalEvent event_locked(const Job& job, std::string type,
                                          std::string detail = {}) const;
  /// Replays <root>/journal.jsonl into the registry/queue; constructor
  /// only, before any thread starts.
  void recover_from_journal();
  /// The job's effective attempt budget ("job-attempts", or the server
  /// job_retry default), never below 1.
  [[nodiscard]] int attempt_budget(const JobSpec& spec) const;
  /// Writes the minimal schema-v4 run_report.json for a job that reached a
  /// terminal state without a completed pipeline run.
  void write_terminal_report_locked(const Job& job) const;

  // --- live metrics (no-ops when options_.metrics is off) --------------------
  /// Counts one admission verdict under its typed outcome label.
  void metric_admission_locked(AdmitCode code);
  /// Counts one tenant-attributed reject (mirrors acct.jobs_rejected).
  void metric_rejected_locked(const std::string& tenant);
  /// Counts one terminal outcome under {tenant, outcome} and clears the
  /// job's active flag (mirrors the v4 report/ledger totals exactly).
  void metric_terminal_locked(const Job& job);
  /// Refreshes queue depth/peak/age, in-flight and rank gauges.
  void metric_queue_gauges_locked();
  /// Refreshes one tenant's queued/running-ranks/RSS/EWMA gauges.
  void metric_tenant_gauges_locked(const std::string& tenant);
  /// Sets the job's in-flight marker gauge (1 running, 0 otherwise).
  void metric_job_active_locked(const Job& job, bool active);

  ServerOptions options_;
  std::string root_dir_;
  /// Pre-registered hot-path handles over the owned registry, so the
  /// per-event cost is relaxed atomics (per-tenant/per-outcome series are
  /// looked up at event time — job transitions, a cold path).
  struct LiveMetrics {
    obs::MetricsRegistry registry;
    obs::Gauge& queue_depth;
    obs::Gauge& queue_depth_peak;
    obs::Gauge& oldest_queued_age;
    obs::Gauge& inflight;
    obs::Gauge& ranks_total;
    obs::Gauge& ranks_available;
    obs::Histogram& queue_wait;
    LiveMetrics();
  };
  std::unique_ptr<LiveMetrics> metrics_;
  std::unique_ptr<obs::MetricsExporter> exporter_;
  simpi::RankPool pool_;

  mutable std::mutex mutex_;
  std::condition_variable scheduler_cv_;
  std::condition_variable drain_cv_;
  AdmissionController admission_;
  Accounting accounting_;
  std::optional<JobJournal> journal_;  ///< absent when options_.journal off
  bool journal_failed_ = false;  ///< permanent journal IoError: degraded
  std::vector<std::unique_ptr<Job>> registry_;  ///< every job ever submitted
  std::vector<Job*> queue_;                     ///< queued jobs, FIFO order
  int running_ = 0;
  std::uint64_t next_seq_ = 1;
  bool accepting_ = true;
  bool stop_ = false;
  bool dirty_ = false;  ///< schedule state changed since the last pass
  util::Timer clock_;

  std::vector<std::thread> workers_;  ///< one per dispatch, joined at shutdown
  std::thread scheduler_;
  std::thread watchdog_;
};

}  // namespace trinity::serve
