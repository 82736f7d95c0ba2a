#include "serve/job.hpp"

#include <stdexcept>

#include "io/fault_plan.hpp"

namespace trinity::serve {

const char* to_string(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kPreempting: return "preempting";
    case JobState::kCompleted: return "completed";
    case JobState::kFailed: return "failed";
    case JobState::kQuarantined: return "quarantined";
    case JobState::kKilled: return "killed";
  }
  return "?";
}

const char* to_string(JobOutcome outcome) {
  switch (outcome) {
    case JobOutcome::kNone: return "none";
    case JobOutcome::kCompleted: return "completed";
    case JobOutcome::kFailed: return "failed";
    case JobOutcome::kQuarantined: return "quarantined";
    case JobOutcome::kDeadlineExceeded: return "deadline_exceeded";
    case JobOutcome::kHung: return "hung";
  }
  return "?";
}

namespace {

/// The serve-only keys on top of the full pipeline flag set; shared
/// between parse (defaults from the server) and serialization (defaults
/// from the spec being dumped, so to_json round-trips its values).
void register_serve_flags(Config& cfg, const pipeline::PipelineOptions& pipeline_defaults,
                          const std::string& tenant, const std::string& job_id,
                          std::int64_t priority, const std::string& reads,
                          std::int64_t rss_estimate_mb, double deadline_s,
                          std::int64_t job_attempts, const std::string& io_fault) {
  cfg.with_pipeline(pipeline_defaults)
      .flag_string("tenant", tenant, "owning tenant (required)")
      .flag_string("job-id", job_id, "job id, unique per server (assigned when empty)")
      .flag_int("priority", priority, "scheduling priority; higher preempts lower")
      .flag_string("reads", reads, "input reads FASTA/FASTQ path (required)")
      .flag_int("rss-estimate-mb", rss_estimate_mb,
                "declared peak RSS in MiB, for admission")
      .flag_double("deadline-s", deadline_s,
                   "wall-clock budget from admission; the watchdog cancels the job "
                   "past it (0 = no deadline)")
      .flag_int("job-attempts", job_attempts,
                "transient-failure dispatches before quarantine "
                "(0 = the server's default budget)")
      .flag_string("io-fault", io_fault,
                   "injected storage fault, OP:GLOB:N:KIND[:FIRES] (testing)");
}

/// Renders an IoFaultPlan back into the OP:GLOB:N:KIND:FIRES spec text
/// IoFaultPlan::parse accepts; empty for a disabled plan.
std::string io_fault_spec_text(const io::IoFaultPlan& plan) {
  if (!plan.enabled()) return "";
  return std::string(io::to_string(plan.op)) + ":" + plan.path_glob + ":" +
         std::to_string(plan.at_op) + ":" + io::to_string(plan.kind) + ":" +
         std::to_string(plan.max_fires);
}

}  // namespace

JobSpec parse_job_spec_text(std::string_view text, const std::string& origin,
                            const pipeline::PipelineOptions& defaults) {
  // The serve-only keys ride on the full pipeline flag set; Config's
  // strict unknown-key handling then covers the whole document.
  Config cfg("trinity_serve", "job spec");
  register_serve_flags(cfg, defaults, "", "", 0, "", 64, 0.0, 0, "");
  cfg.parse_json_text(text, origin);

  JobSpec spec;
  spec.tenant = cfg.get_string("tenant");
  if (spec.tenant.empty()) throw ConfigError("tenant", "required for job submission");
  spec.job_id = cfg.get_string("job-id");
  spec.priority = static_cast<int>(cfg.get_int("priority"));
  spec.reads_path = cfg.get_string("reads");
  if (spec.reads_path.empty()) throw ConfigError("reads", "required for job submission");
  const std::int64_t rss_mb = cfg.get_int("rss-estimate-mb");
  if (rss_mb < 0) {
    throw ConfigError("rss-estimate-mb",
                      "must be >= 0 (got " + std::to_string(rss_mb) + ")");
  }
  spec.rss_estimate_bytes = static_cast<std::uint64_t>(rss_mb) * 1024 * 1024;
  spec.deadline_s = cfg.get_double("deadline-s");
  const std::int64_t job_attempts = cfg.get_int("job-attempts");
  if (job_attempts < 0) {
    throw ConfigError("job-attempts",
                      "must be >= 0 (got " + std::to_string(job_attempts) + ")");
  }
  spec.max_attempts = static_cast<int>(job_attempts);

  spec.options = cfg.pipeline_options();
  const std::string io_fault = cfg.get_string("io-fault");
  if (!io_fault.empty()) {
    try {
      spec.options.io_fault = io::IoFaultPlan::parse(io_fault);
    } catch (const std::invalid_argument& e) {
      throw ConfigError("io-fault", e.what());
    }
  }
  return spec;
}

util::Json job_spec_to_json(const JobSpec& spec) {
  // Registering the flag set with this spec's own values as defaults makes
  // Config::to_json dump exactly those values — the same trick a binary's
  // with_pipeline(defaults) uses, run in reverse. The fault flags are the
  // one exception (with_fault_flags hardcodes its defaults), so they are
  // overridden in the dumped document afterwards.
  Config cfg("trinity_serve", "job spec");
  register_serve_flags(cfg, spec.options, spec.tenant, spec.job_id, spec.priority,
                       spec.reads_path,
                       static_cast<std::int64_t>(spec.rss_estimate_bytes / (1024 * 1024)),
                       spec.deadline_s, spec.max_attempts,
                       io_fault_spec_text(spec.options.io_fault));
  util::Json doc = cfg.to_json();
  doc.set("max-attempts", spec.options.retry.max_attempts);
  doc.set("fault-rank", spec.options.fault.rank);
  const auto& fault_op = spec.options.fault.op;
  doc.set("fault-op", fault_op ? std::string(simpi::to_string(*fault_op)) : std::string());
  doc.set("fault-at", spec.options.fault.at_entry);
  return doc;
}

}  // namespace trinity::serve
