#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <functional>
#include <utility>

#include "io/error.hpp"
#include "pipeline/run_report.hpp"
#include "simpi/context.hpp"
#include "simpi/fault.hpp"
#include "trace/span_recorder.hpp"

namespace trinity::serve {

namespace {

/// Bytes of the final transcript FASTA, 0 when absent (failed job).
std::int64_t output_file_bytes(const std::string& work_dir) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(work_dir + "/Trinity.fa", ec);
  return ec ? 0 : static_cast<std::int64_t>(size);
}

/// Progress signature for hang detection: size and mtime of the job's
/// checkpoint manifest folded together. Every committed stage rewrites the
/// manifest, so a changing signature means the run is advancing; 0 when
/// the manifest does not exist yet.
std::uint64_t manifest_signature(const std::string& work_dir) {
  const std::string path = work_dir + "/" + pipeline::kManifestFileName;
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec) return 0;
  const auto mtime = std::filesystem::last_write_time(path, ec);
  const auto ticks =
      ec ? std::uint64_t{0}
         : static_cast<std::uint64_t>(mtime.time_since_epoch().count());
  return static_cast<std::uint64_t>(size) * 1315423911ULL ^ ticks;
}

/// Peak sampled RSS over a finished run's phase records — the measured
/// value the admission EWMA learns from (0 when the sampler never ran).
std::uint64_t measured_rss_peak(const pipeline::PipelineResult& result) {
  std::uint64_t peak = 0;
  for (const auto& phase : result.trace) peak = std::max(peak, phase.rss_peak);
  return peak;
}

}  // namespace

JobServer::LiveMetrics::LiveMetrics()
    : queue_depth(registry.gauge("trinity_serve_queue_depth",
                                 "Jobs waiting in the admission queue")),
      queue_depth_peak(registry.gauge("trinity_serve_queue_depth_peak",
                                      "High-water mark of the admission queue")),
      oldest_queued_age(registry.gauge("trinity_serve_oldest_queued_age_seconds",
                                       "Age of the oldest queued job")),
      inflight(registry.gauge("trinity_serve_jobs_inflight",
                              "Jobs currently holding a rank lease")),
      ranks_total(registry.gauge("trinity_serve_ranks_total",
                                 "Size of the shared rank pool")),
      ranks_available(registry.gauge("trinity_serve_ranks_available",
                                     "Unleased ranks in the shared pool")),
      queue_wait(registry.histogram(
          "trinity_serve_queue_wait_seconds",
          "Queue wait per dispatch (enqueue or requeue to rank lease)",
          obs::latency_buckets_s())) {}

JobServer::JobServer(ServerOptions options)
    : options_(std::move(options)),
      root_dir_(options_.root_dir.empty()
                    ? (std::filesystem::temp_directory_path() / "trinity_serve").string()
                    : options_.root_dir),
      metrics_(options_.metrics ? std::make_unique<LiveMetrics>() : nullptr),
      pool_(options_.total_ranks),
      admission_(options_.total_ranks, options_.max_queue_depth, options_.default_quota,
                 options_.tenant_quotas, options_.min_plausible_runtime_s) {
  std::filesystem::create_directories(root_dir_);
  if (metrics_) {
    metrics_->ranks_total.set(options_.total_ranks);
    metrics_->ranks_available.set(options_.total_ranks);
  }
  if (options_.journal) {
    journal_.emplace(root_dir_ + "/journal.jsonl");
    if (metrics_) journal_->set_metrics(&metrics_->registry);
    recover_from_journal();  // before any thread exists; no locking needed
  }
  if (metrics_ && options_.metrics_export_period_s > 0.0) {
    obs::ExporterOptions exporter_options;
    exporter_options.dir = root_dir_;
    exporter_options.period_s = options_.metrics_export_period_s;
    exporter_ = std::make_unique<obs::MetricsExporter>(&metrics_->registry,
                                                       std::move(exporter_options));
  }
  scheduler_ = std::thread(&JobServer::scheduler_loop, this);
  watchdog_ = std::thread(&JobServer::watchdog_loop, this);
}

JobServer::~JobServer() { shutdown(); }

void JobServer::recover_from_journal() {
  JournalReplay replay = JobJournal::replay(journal_->path());
  if (replay.dropped_lines > 0) {
    // A torn tail from a crash mid-append. Drop it so the next append
    // starts on a clean line; the lost transitions are re-derived below
    // (worst case a lost "complete" re-dispatches the job, whose resume
    // then skips every validated stage — idempotent, never duplicated).
    trace::instant("serve.journal_torn", trace::kCatPipeline,
                   std::to_string(replay.dropped_lines) + " dropped line(s)");
    JobJournal::truncate_to(journal_->path(), replay.valid_bytes);
  }
  if (replay.events.empty()) return;

  struct Replayed {
    JournalEvent submit;  ///< the original spec payload
    JobState state = JobState::kQueued;
    JobOutcome outcome = JobOutcome::kNone;
    int attempts = 0;
    int preemptions = 0;
    std::string error;
    bool seen = false;
  };
  std::vector<std::string> order;  ///< job ids, first-submit order
  std::map<std::string, Replayed> jobs;
  for (const JournalEvent& ev : replay.events) {
    if (ev.seq >= static_cast<std::int64_t>(next_seq_)) {
      next_seq_ = static_cast<std::uint64_t>(ev.seq) + 1;
    }
    if (ev.event == "reject") continue;  // never entered the registry
    Replayed& job = jobs[ev.job_id];
    if (!job.seen) {
      job.seen = true;
      order.push_back(ev.job_id);
    }
    if (ev.event == "submit") {
      job.submit = ev;
    } else if (ev.event == "dispatch") {
      job.state = JobState::kRunning;
      job.attempts = ev.attempts;
    } else if (ev.event == "requeue" || ev.event == "recover") {
      job.state = JobState::kQueued;
      job.attempts = ev.attempts;
      job.preemptions = ev.preemptions;
    } else if (ev.event == "complete") {
      job.state = JobState::kCompleted;
      job.outcome = JobOutcome::kCompleted;
      job.attempts = ev.attempts;
    } else if (ev.event == "fail") {
      job.state = JobState::kFailed;
      job.outcome = JobOutcome::kFailed;
      job.attempts = ev.attempts;
      job.error = ev.detail;
    } else if (ev.event == "quarantine") {
      job.state = JobState::kQuarantined;
      job.outcome = JobOutcome::kQuarantined;
      job.attempts = ev.attempts;
      job.error = ev.detail;
    } else if (ev.event == "kill") {
      job.state = JobState::kKilled;
      job.outcome = ev.detail == to_string(JobOutcome::kHung)
                        ? JobOutcome::kHung
                        : JobOutcome::kDeadlineExceeded;
      job.attempts = ev.attempts;
      job.error = ev.detail;
    }
  }

  const double now = clock_.seconds();
  for (const std::string& job_id : order) {
    Replayed& replayed = jobs[job_id];
    if (replayed.submit.spec.is_null()) continue;  // submit line was lost

    auto job = std::make_unique<Job>();
    job->seq = static_cast<std::uint64_t>(replayed.submit.seq);
    job->attempts = replayed.attempts;
    job->preemptions = replayed.preemptions;
    job->state = replayed.state;
    job->outcome = replayed.outcome;
    job->error = replayed.error;

    JobSpec spec;
    try {
      spec = parse_job_spec_text(replayed.submit.spec.dump(), "journal:" + job_id,
                                 options_.job_defaults);
    } catch (const ConfigError& e) {
      // The payload no longer parses (schema drift, hand-edited journal):
      // register the id as failed so a resubmission is not silently
      // treated as new work over a dirty work dir.
      job->spec.job_id = job_id;
      job->spec.tenant = replayed.submit.tenant;
      job->state = JobState::kFailed;
      job->outcome = JobOutcome::kFailed;
      job->error = std::string("unreplayable journal spec: ") + e.what();
      job->work_dir = root_dir_ + "/" + job->spec.tenant + "/" + job_id;
      journal_locked(event_locked(*job, "fail", job->error));
      registry_.push_back(std::move(job));
      continue;
    }
    job->spec = std::move(spec);
    job->work_dir = root_dir_ + "/" + job->spec.tenant + "/" + job->spec.job_id;

    const bool terminal =
        job->state == JobState::kCompleted || job->state == JobState::kFailed ||
        job->state == JobState::kQuarantined || job->state == JobState::kKilled;
    if (terminal) {
      // Historical: registered for duplicate-id rejection (a quarantined
      // id stays rejected across restarts), not re-run and not counted in
      // this process's ledger — `trinity_report --aggregate` rebuilds
      // history from the on-disk reports.
      registry_.push_back(std::move(job));
      continue;
    }

    // Queued or in-flight at the crash: re-admit. The work dir and its
    // checkpoint manifest are intact, so the next dispatch runs with
    // resume=true and skips every stage that already committed.
    if (job->attempts >= attempt_budget(job->spec)) {
      // Crash-looping poison job: it consumed its whole budget without
      // ever reaching a terminal line. Quarantine instead of re-admitting
      // so a job that kills the server cannot kill it forever.
      job->state = JobState::kQuarantined;
      job->outcome = JobOutcome::kQuarantined;
      job->error = "attempt budget exhausted across restarts";
      journal_locked(event_locked(*job, "quarantine", job->error));
      write_terminal_report_locked(*job);
      metric_terminal_locked(*job);
      registry_.push_back(std::move(job));
      continue;
    }
    job->state = JobState::kQueued;
    job->recovered = true;
    job->submitted_at = now;  // the deadline budget restarts at re-admission
    job->enqueued_at = now;
    TenantAccount& acct = accounting_.account(job->spec.tenant);
    ++acct.jobs_submitted;
    ++acct.jobs_recovered;
    admission_.note_queued(job->spec);
    journal_locked(event_locked(*job, "recover"));
    if (metrics_) {
      metrics_->registry
          .counter("trinity_serve_recovered_jobs_total",
                   "Jobs re-admitted from the journal after a restart",
                   {{"tenant", job->spec.tenant}})
          .inc();
    }
    metric_tenant_gauges_locked(job->spec.tenant);
    queue_.push_back(job.get());
    registry_.push_back(std::move(job));
    dirty_ = true;
  }
  metric_queue_gauges_locked();
}

JournalEvent JobServer::event_locked(const Job& job, std::string type,
                                     std::string detail) const {
  JournalEvent ev;
  ev.event = std::move(type);
  ev.job_id = job.spec.job_id;
  ev.tenant = job.spec.tenant;
  ev.seq = static_cast<std::int64_t>(job.seq);
  ev.attempts = job.attempts;
  ev.preemptions = job.preemptions;
  ev.detail = std::move(detail);
  return ev;
}

void JobServer::journal_locked(const JournalEvent& ev) {
  if (!journal_ || journal_failed_) return;
  try {
    journal_->append(ev);
  } catch (const io::IoError& e) {
    // Durability degrades, availability does not: a permanent journal
    // failure (ENOSPC, torn rename) turns journaling off for the rest of
    // this process; a transient one skips this record and keeps trying.
    if (!e.transient()) journal_failed_ = true;
    trace::instant("serve.journal_error", trace::kCatPipeline, e.what());
  }
}

int JobServer::attempt_budget(const JobSpec& spec) const {
  const int budget =
      spec.max_attempts > 0 ? spec.max_attempts : options_.job_retry.max_attempts;
  return std::max(budget, 1);
}

AdmitResult JobServer::submit(JobSpec spec) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (!accepting_) {
    metric_admission_locked(AdmitCode::kShutdown);
    return {AdmitCode::kShutdown, "server is shutting down"};
  }
  TenantAccount& acct = accounting_.account(spec.tenant);
  ++acct.jobs_submitted;

  if (spec.job_id.empty()) spec.job_id = "job-" + std::to_string(next_seq_);
  for (const auto& existing : registry_) {
    if (existing->spec.job_id == spec.job_id) {
      ++acct.jobs_rejected;
      const bool quarantined = existing->state == JobState::kQuarantined;
      AdmitResult result{AdmitCode::kInvalidSpec,
                         quarantined ? "job id '" + spec.job_id +
                                           "' is quarantined (poison job; work dir "
                                           "preserved for diagnosis)"
                                     : "duplicate job id '" + spec.job_id + "'"};
      JournalEvent ev;
      ev.event = "reject";
      ev.job_id = spec.job_id;
      ev.tenant = spec.tenant;
      ev.detail = result.detail;
      journal_locked(ev);
      metric_admission_locked(AdmitCode::kInvalidSpec);
      metric_rejected_locked(spec.tenant);
      return result;
    }
  }

  AdmitResult result = admission_.admit(spec);
  if (!result.accepted()) {
    ++acct.jobs_rejected;
    JournalEvent ev;
    ev.event = "reject";
    ev.job_id = spec.job_id;
    ev.tenant = spec.tenant;
    ev.detail = std::string(to_string(result.code)) + ": " + result.detail;
    journal_locked(ev);
    metric_admission_locked(result.code);
    metric_rejected_locked(spec.tenant);
    return result;
  }

  auto job = std::make_unique<Job>();
  job->spec = std::move(spec);
  job->seq = next_seq_++;
  job->work_dir = root_dir_ + "/" + job->spec.tenant + "/" + job->spec.job_id;
  job->submitted_at = clock_.seconds();
  job->enqueued_at = job->submitted_at;
  // WAL discipline: the submit event (with the full re-admittable spec
  // payload) is durable before the job becomes schedulable.
  JournalEvent ev = event_locked(*job, "submit");
  ev.spec = job_spec_to_json(job->spec);
  journal_locked(ev);
  admission_.note_queued(job->spec);
  metric_admission_locked(AdmitCode::kAccepted);
  metric_tenant_gauges_locked(job->spec.tenant);
  queue_.push_back(job.get());
  registry_.push_back(std::move(job));
  metric_queue_gauges_locked();
  dirty_ = true;
  lock.unlock();
  scheduler_cv_.notify_all();
  return result;
}

AdmitResult JobServer::submit_text(std::string_view text, const std::string& origin) {
  JobSpec spec;
  try {
    spec = parse_job_spec_text(text, origin, options_.job_defaults);
  } catch (const ConfigError& e) {
    // The registry is internally synchronized; no server lock needed here.
    metric_admission_locked(AdmitCode::kInvalidSpec);
    return {AdmitCode::kInvalidSpec, e.what()};
  }
  return submit(std::move(spec));
}

void JobServer::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  drain_cv_.wait(lock, [&] { return queue_.empty() && running_ == 0; });
}

void JobServer::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    accepting_ = false;
  }
  drain();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
    dirty_ = true;
  }
  scheduler_cv_.notify_all();
  if (scheduler_.joinable()) scheduler_.join();
  if (watchdog_.joinable()) watchdog_.join();
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    workers.swap(workers_);
  }
  for (auto& w : workers) {
    if (w.joinable()) w.join();
  }
  // Final export after every worker settled, so the on-disk snapshot holds
  // the terminal totals (what serve_metrics_test reconciles against the
  // run reports).
  if (exporter_) exporter_->stop();
}

obs::MetricsRegistry* JobServer::metrics() const {
  return metrics_ ? &metrics_->registry : nullptr;
}

obs::MetricsSnapshot JobServer::metrics_snapshot() const {
  return metrics_ ? metrics_->registry.snapshot() : obs::MetricsSnapshot{};
}

void JobServer::metric_admission_locked(AdmitCode code) {
  if (!metrics_) return;
  metrics_->registry
      .counter("trinity_serve_admission_total",
               "Admission verdicts by typed outcome",
               {{"outcome", to_string(code)}})
      .inc();
}

void JobServer::metric_rejected_locked(const std::string& tenant) {
  if (!metrics_) return;
  metrics_->registry
      .counter("trinity_serve_jobs_rejected_total",
               "Rejected submissions per tenant (mirrors the ledger)",
               {{"tenant", tenant}})
      .inc();
}

void JobServer::metric_terminal_locked(const Job& job) {
  if (!metrics_) return;
  metrics_->registry
      .counter("trinity_serve_jobs_total", "Terminal job outcomes per tenant",
               {{"tenant", job.spec.tenant}, {"outcome", to_string(job.outcome)}})
      .inc();
  metric_job_active_locked(job, false);
}

void JobServer::metric_queue_gauges_locked() {
  if (!metrics_) return;
  metrics_->queue_depth.set(static_cast<double>(queue_.size()));
  metrics_->queue_depth_peak.set_max(static_cast<double>(queue_.size()));
  const double now = clock_.seconds();
  double oldest = 0.0;
  for (const Job* job : queue_) oldest = std::max(oldest, now - job->enqueued_at);
  metrics_->oldest_queued_age.set(oldest);
  metrics_->inflight.set(running_);
  metrics_->ranks_available.set(pool_.available());
}

void JobServer::metric_tenant_gauges_locked(const std::string& tenant) {
  if (!metrics_) return;
  const AdmissionController::Usage usage = admission_.usage_of(tenant);
  auto& registry = metrics_->registry;
  const obs::Labels labels{{"tenant", tenant}};
  registry.gauge("trinity_serve_tenant_queued_jobs",
                 "Queued jobs per tenant", labels)
      .set(usage.queued);
  registry.gauge("trinity_serve_tenant_running_ranks",
                 "Ranks leased by a tenant's running jobs", labels)
      .set(usage.running_ranks);
  registry.gauge("trinity_serve_tenant_running_rss_bytes",
                 "RSS charged against the tenant's running budget", labels)
      .set(static_cast<double>(usage.running_rss));
  registry.gauge("trinity_serve_tenant_rss_ewma_bytes",
                 "EWMA of measured RSS peaks feeding admission", labels)
      .set(usage.measured_rss_ewma);
}

void JobServer::metric_job_active_locked(const Job& job, bool active) {
  if (!metrics_) return;
  metrics_->registry
      .gauge("trinity_job_active", "1 while the job holds a rank lease",
             {{"tenant", job.spec.tenant}, {"job", job.spec.job_id}})
      .set(active ? 1.0 : 0.0);
}

JobStatus JobServer::status_of_locked(const Job& job) const {
  JobStatus s;
  s.job_id = job.spec.job_id;
  s.tenant = job.spec.tenant;
  s.priority = job.spec.priority;
  s.state = job.state;
  s.preemptions = job.preemptions;
  s.dispatches = job.dispatches;
  s.attempts = job.attempts;
  s.outcome = job.outcome;
  s.recovered = job.recovered;
  s.error = job.error;
  s.queue_wait_seconds = job.queue_wait;
  s.run_seconds = job.run_time;
  s.work_dir = job.work_dir;
  return s;
}

std::vector<JobStatus> JobServer::jobs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<JobStatus> out;
  out.reserve(registry_.size());
  for (const auto& job : registry_) out.push_back(status_of_locked(*job));
  return out;
}

Accounting JobServer::accounting() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return accounting_;
}

void JobServer::scheduler_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    while (!stop_ && !dirty_) {
      // A job backing off after a transient failure needs a timed wakeup
      // at its not_before; otherwise wait for traffic.
      double next = 0.0;
      const double now = clock_.seconds();
      for (const Job* job : queue_) {
        if (job->not_before > now && (next == 0.0 || job->not_before < next)) {
          next = job->not_before;
        }
      }
      if (next == 0.0) {
        scheduler_cv_.wait(lock);
      } else if (scheduler_cv_.wait_for(lock, std::chrono::duration<double>(
                                                  next - clock_.seconds())) ==
                 std::cv_status::timeout) {
        dirty_ = true;  // the backoff elapsed; run a pass
      }
    }
    if (stop_) return;
    dirty_ = false;
    schedule_locked();
  }
}

void JobServer::watchdog_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    scheduler_cv_.wait_for(lock,
                           std::chrono::duration<double>(options_.watchdog_poll_s),
                           [&] { return stop_; });
    if (stop_) return;
    const double now = clock_.seconds();
    bool state_changed = false;

    // Queued jobs past their deadline die in the queue: they can no longer
    // finish in time, so dispatching them would only waste a lease.
    for (auto it = queue_.begin(); it != queue_.end();) {
      Job* job = *it;
      if (job->spec.deadline_s > 0.0 && now - job->submitted_at > job->spec.deadline_s) {
        it = queue_.erase(it);
        admission_.note_dropped(job->spec);
        job->queue_wait += now - job->enqueued_at;
        job->state = JobState::kKilled;
        job->outcome = JobOutcome::kDeadlineExceeded;
        job->error = "deadline exceeded while queued";
        TenantAccount& acct = accounting_.account(job->spec.tenant);
        ++acct.deadline_kills;
        acct.queue_wait_seconds += job->queue_wait;
        journal_locked(event_locked(*job, "kill", to_string(job->outcome)));
        write_terminal_report_locked(*job);
        metric_terminal_locked(*job);
        metric_tenant_gauges_locked(job->spec.tenant);
        trace::instant("serve.watchdog", trace::kCatPipeline,
                       job->spec.job_id + " deadline_exceeded (queued)");
        state_changed = true;
      } else {
        ++it;
      }
    }

    // In-flight jobs: deadline overruns, and — when hang detection is on —
    // runs whose checkpoint manifest stopped advancing.
    for (const auto& entry : registry_) {
      Job* job = entry.get();
      if (job->state != JobState::kRunning && job->state != JobState::kPreempting) {
        continue;
      }
      if (job->kill_reason != JobOutcome::kNone) continue;  // already told to stop
      if (job->spec.deadline_s > 0.0 && now - job->submitted_at > job->spec.deadline_s) {
        job->kill_reason = JobOutcome::kDeadlineExceeded;
      } else if (options_.hang_timeout_s > 0.0) {
        const std::uint64_t signature = manifest_signature(job->work_dir);
        if (signature != job->progress_signature) {
          job->progress_signature = signature;
          job->last_progress_at = now;
        } else if (now - job->last_progress_at > options_.hang_timeout_s) {
          job->kill_reason = JobOutcome::kHung;
        }
      }
      if (job->kill_reason != JobOutcome::kNone) {
        job->deadline->store(true, std::memory_order_release);
        trace::instant("serve.watchdog", trace::kCatPipeline,
                       job->spec.job_id + " " + to_string(job->kill_reason));
      }
    }

    // Every poll refreshes the age/depth gauges, so a stalled queue is
    // visible even with no job transitions.
    metric_queue_gauges_locked();
    if (state_changed) {
      dirty_ = true;
      drain_cv_.notify_all();
      scheduler_cv_.notify_all();
    }
  }
}

void JobServer::schedule_locked() {
  // (priority desc, submission seq asc) over the current queue.
  std::vector<Job*> order = queue_;
  std::sort(order.begin(), order.end(), [](const Job* a, const Job* b) {
    if (a->spec.priority != b->spec.priority) return a->spec.priority > b->spec.priority;
    return a->seq < b->seq;
  });
  const double now = clock_.seconds();
  for (Job* job : order) {
    const int need = job->spec.options.nranks;
    // Backing off after a transient failure: not schedulable yet (the
    // scheduler loop arms a timed wakeup for it).
    if (job->not_before > now) continue;
    // Blocked only by the tenant's own running quota: other tenants'
    // jobs behind it may still dispatch this pass.
    if (!admission_.has_running_headroom(job->spec)) continue;
    simpi::RankLease lease = pool_.try_lease(need);
    if (lease.owns()) {
      dispatch_locked(job, std::move(lease));
      continue;
    }
    // Head-of-line blocking on pool capacity: stop the pass (no backfill,
    // so a wide job cannot be starved by a stream of narrow ones), after
    // possibly asking lower-priority running jobs to yield.
    if (options_.preemption) maybe_preempt_locked(*job, need);
    break;
  }
}

void JobServer::maybe_preempt_locked(const Job& job, int need) {
  // Ranks already on their way back: free now, plus jobs mid-preemption.
  int reclaimable = pool_.available();
  for (const auto& candidate : registry_) {
    if (candidate->state == JobState::kPreempting) reclaimable += candidate->spec.options.nranks;
  }
  if (reclaimable >= need) return;  // enough already in flight; just wait

  // Victims: strictly lower priority, cheapest disruption first — lowest
  // priority, then the most recently submitted (least sunk work).
  std::vector<Job*> victims;
  for (const auto& candidate : registry_) {
    if (candidate->state == JobState::kRunning &&
        candidate->spec.priority < job.spec.priority) {
      victims.push_back(candidate.get());
    }
  }
  std::sort(victims.begin(), victims.end(), [](const Job* a, const Job* b) {
    if (a->spec.priority != b->spec.priority) return a->spec.priority < b->spec.priority;
    return a->seq > b->seq;
  });
  std::vector<Job*> marked;
  for (Job* victim : victims) {
    if (reclaimable >= need) break;
    reclaimable += victim->spec.options.nranks;
    marked.push_back(victim);
  }
  if (reclaimable < need) return;  // preempting everything still wouldn't fit
  for (Job* victim : marked) {
    victim->state = JobState::kPreempting;
    victim->preempt->store(true, std::memory_order_release);
    trace::instant("serve.preempt", trace::kCatPipeline,
                   victim->spec.job_id + " yields to " + job.spec.job_id);
  }
}

void JobServer::dispatch_locked(Job* job, simpi::RankLease lease) {
  queue_.erase(std::find(queue_.begin(), queue_.end(), job));
  const double now = clock_.seconds();
  if (metrics_) metrics_->queue_wait.observe(now - job->enqueued_at);
  job->queue_wait += now - job->enqueued_at;
  job->state = JobState::kRunning;
  ++job->dispatches;
  job->preempt = std::make_shared<std::atomic<bool>>(false);
  job->deadline = std::make_shared<std::atomic<bool>>(false);
  job->kill_reason = JobOutcome::kNone;
  // Charge the tenant's running budget what the job will plausibly use:
  // the declared estimate sanity-checked against the tenant's measured
  // history. The charge is remembered so finish stays symmetric even as
  // the EWMA moves mid-run.
  job->charged_rss = admission_.effective_rss(job->spec);
  admission_.note_started(job->spec, job->charged_rss);
  TenantAccount& acct = accounting_.account(job->spec.tenant);
  acct.rss_declared_bytes_peak =
      std::max(acct.rss_declared_bytes_peak, job->spec.rss_estimate_bytes);
  job->progress_signature = manifest_signature(job->work_dir);
  job->last_progress_at = now;
  JournalEvent ev = event_locked(*job, "dispatch");
  ev.attempts = job->attempts + 1;  // tentative: this dispatch consumes one
  journal_locked(ev);
  ++running_;
  metric_job_active_locked(*job, true);
  metric_tenant_gauges_locked(job->spec.tenant);
  metric_queue_gauges_locked();
  workers_.emplace_back([this, job, lease = std::move(lease)]() mutable {
    run_job(job, std::move(lease));
  });
}

void JobServer::write_terminal_report_locked(const Job& job) const {
  // Minimal schema-v4 report for a job that ended without a completed
  // pipeline run, so `trinity_report --aggregate` reconstructs the ledger
  // (quarantines, deadline kills, attempts) from artifacts alone. Carries
  // every field the summarizer/aggregator read unconditionally, with empty
  // phases/comm.
  util::Json report = util::Json::object();
  report.set("schema_version", pipeline::kReportSchemaVersion);
  report.set("generator", "trinity_serve");
  report.set("nranks", job.spec.options.nranks);
  report.set("model_threads_per_rank", job.spec.options.model_threads_per_rank);
  report.set("job_id", job.spec.job_id);
  report.set("tenant", job.spec.tenant);
  report.set("preemptions", job.preemptions);
  report.set("attempts", job.attempts);
  report.set("outcome", std::string(to_string(job.outcome)));
  report.set("recovered", job.recovered);
  if (!job.error.empty()) report.set("error", job.error);
  report.set("stages_executed", util::Json::array());
  report.set("stages_resumed", util::Json::array());
  report.set("stage_retries", 0);
  report.set("io_retries", 0);
  report.set("phases", util::Json::array());
  report.set("comm", util::Json::array());
  std::error_code ec;
  std::filesystem::create_directories(job.work_dir, ec);
  try {
    pipeline::write_run_report(job.work_dir + "/" + pipeline::kReportFileName, report);
  } catch (const std::exception& e) {
    trace::instant("serve.report_error", trace::kCatPipeline, e.what());
  }
}

void JobServer::run_job(Job* job, simpi::RankLease lease) {
  // Per-dispatch copy: the server owns placement and the scheduling-only
  // fields; the submitted options own everything else.
  pipeline::PipelineOptions options = job->spec.options;
  options.work_dir = job->work_dir;
  options.checkpoint = true;  // stage files double as preemption checkpoints
  options.resume = true;      // first dispatch resumes nothing; later ones skip
  options.preempt = job->preempt;
  options.deadline = job->deadline;
  options.job_id = job->spec.job_id;
  options.tenant = job->spec.tenant;
  options.preemptions = job->preemptions;
  options.attempts = job->attempts + 1;  // 1-based dispatch count (schema v4)
  options.recovered = job->recovered;
  // Live metrics: the run publishes stage heartbeats, stage durations and
  // per-rank comm counters into the server's registry.
  options.metrics = metrics_ ? &metrics_->registry : nullptr;

  const int nranks = options.nranks;
  util::Timer dispatch_timer;
  enum class Outcome { kCompleted, kPreempted, kKilled, kTransient, kPermanent };
  Outcome outcome;
  std::string error;
  pipeline::PipelineResult result;
  try {
    result = pipeline::run_pipeline_from_file(job->spec.reads_path, options);
    outcome = Outcome::kCompleted;
  } catch (const pipeline::PreemptedError&) {
    outcome = Outcome::kPreempted;
  } catch (const pipeline::DeadlineExceededError& e) {
    outcome = Outcome::kKilled;
    error = e.what();
  } catch (const io::IoError& e) {
    // Past the in-run stage retry budget. Transient errors are worth a
    // fresh dispatch after a backoff; permanent ones never are.
    outcome = e.transient() ? Outcome::kTransient : Outcome::kPermanent;
    error = e.what();
  } catch (const simpi::RankFaultError& e) {
    outcome = Outcome::kTransient;
    error = e.what();
  } catch (const simpi::AbortedError& e) {
    outcome = Outcome::kTransient;
    error = e.what();
  } catch (const std::exception& e) {
    outcome = Outcome::kPermanent;
    error = e.what();
  }
  const double elapsed = dispatch_timer.seconds();

  {
    std::lock_guard<std::mutex> lock(mutex_);
    TenantAccount& acct = accounting_.account(job->spec.tenant);
    job->run_time += elapsed;
    acct.run_seconds += elapsed;
    acct.rank_seconds += static_cast<double>(nranks) * elapsed;
    const int tentative = job->attempts + 1;
    switch (outcome) {
      case Outcome::kCompleted: {
        job->attempts = tentative;
        job->state = JobState::kCompleted;
        job->outcome = JobOutcome::kCompleted;
        admission_.note_finished(job->spec, job->charged_rss);
        ++acct.jobs_completed;
        acct.stage_retries += result.stage_retries;
        acct.io_retries += result.io_retries;
        for (const auto& stage : result.stage_comm) {
          for (const auto& rank : stage.ranks) {
            acct.comm_bytes_sent += static_cast<std::int64_t>(rank.comm.total_bytes_sent());
            acct.comm_bytes_received +=
                static_cast<std::int64_t>(rank.comm.total_bytes_received());
          }
        }
        acct.output_bytes += output_file_bytes(job->work_dir);
        acct.queue_wait_seconds += job->queue_wait;
        // Admission feedback: fold the run's measured peak into the
        // tenant's EWMA, so habitual under-declaring is charged at the
        // measured level on future dispatches.
        const std::uint64_t measured = measured_rss_peak(result);
        admission_.note_measured(job->spec.tenant, measured);
        acct.rss_measured_bytes_peak = std::max(acct.rss_measured_bytes_peak, measured);
        journal_locked(event_locked(*job, "complete"));
        metric_terminal_locked(*job);
        if (metrics_) {
          metrics_->registry
              .histogram("trinity_serve_job_latency_seconds",
                         "Submission-to-completion latency (queue wait + run "
                         "time) of completed jobs",
                         obs::latency_buckets_s(), {{"tenant", job->spec.tenant}})
              .observe(job->queue_wait + job->run_time);
        }
        break;
      }
      case Outcome::kPreempted:
        // A preemption is scheduling, not failure: the tentative attempt
        // is handed back.
        job->state = JobState::kQueued;
        ++job->preemptions;
        ++acct.preemptions;
        job->enqueued_at = clock_.seconds();
        admission_.note_requeued(job->spec, job->charged_rss);
        queue_.push_back(job);
        journal_locked(event_locked(*job, "requeue", "preempted"));
        if (metrics_) {
          metrics_->registry
              .counter("trinity_serve_preemptions_total",
                       "Checkpoint->requeue preemption cycles per tenant",
                       {{"tenant", job->spec.tenant}})
              .inc();
        }
        metric_job_active_locked(*job, false);
        break;
      case Outcome::kKilled:
        job->attempts = tentative;
        job->state = JobState::kKilled;
        job->outcome = job->kill_reason != JobOutcome::kNone
                           ? job->kill_reason
                           : JobOutcome::kDeadlineExceeded;
        job->error = error;
        admission_.note_finished(job->spec, job->charged_rss);
        if (job->outcome == JobOutcome::kHung) {
          ++acct.hung_kills;
        } else {
          ++acct.deadline_kills;
        }
        acct.queue_wait_seconds += job->queue_wait;
        journal_locked(event_locked(*job, "kill", to_string(job->outcome)));
        write_terminal_report_locked(*job);
        metric_terminal_locked(*job);
        break;
      case Outcome::kTransient:
        job->attempts = tentative;
        if (tentative >= attempt_budget(job->spec)) {
          // Poison job: its transient failures survived both the in-run
          // stage retries and the job-level budget. Quarantine — work dir
          // preserved for diagnosis, id permanently rejected.
          job->state = JobState::kQuarantined;
          job->outcome = JobOutcome::kQuarantined;
          job->error = error;
          admission_.note_finished(job->spec, job->charged_rss);
          ++acct.jobs_quarantined;
          acct.queue_wait_seconds += job->queue_wait;
          journal_locked(event_locked(*job, "quarantine", error));
          write_terminal_report_locked(*job);
          metric_terminal_locked(*job);
        } else {
          job->state = JobState::kQueued;
          ++acct.job_retries;
          const std::uint64_t seed =
              std::hash<std::string>{}(job->spec.job_id) ^
              static_cast<std::uint64_t>(tentative);
          job->not_before = clock_.seconds() +
                            options_.job_retry.jittered_backoff_for(tentative, seed);
          job->enqueued_at = clock_.seconds();
          admission_.note_requeued(job->spec, job->charged_rss);
          queue_.push_back(job);
          journal_locked(event_locked(*job, "requeue", "transient: " + error));
          if (metrics_) {
            metrics_->registry
                .counter("trinity_serve_job_retries_total",
                         "Transient-failure requeues per tenant",
                         {{"tenant", job->spec.tenant}})
                .inc();
          }
          metric_job_active_locked(*job, false);
        }
        break;
      case Outcome::kPermanent:
        job->attempts = tentative;
        job->state = JobState::kFailed;
        job->outcome = JobOutcome::kFailed;
        job->error = error;
        admission_.note_finished(job->spec, job->charged_rss);
        ++acct.jobs_failed;
        acct.queue_wait_seconds += job->queue_wait;
        journal_locked(event_locked(*job, "fail", error));
        write_terminal_report_locked(*job);
        metric_terminal_locked(*job);
        break;
    }
    --running_;
    metric_tenant_gauges_locked(job->spec.tenant);
    metric_queue_gauges_locked();
    dirty_ = true;
  }
  lease.release();  // before waking the scheduler, so available() sees it
  if (metrics_) metrics_->ranks_available.set(pool_.available());
  scheduler_cv_.notify_all();
  drain_cv_.notify_all();
}

}  // namespace trinity::serve
