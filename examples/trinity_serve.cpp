// trinity_serve: the multi-tenant assembly-as-a-service frontend.
//
// Reads job specs (one trinity::Config JSON object per line — the same
// schema docs/CONFIG.md defines for --config, plus the serve keys
// documented in docs/SERVING.md), submits them through admission control,
// lets the scheduler multiplex them over a shared simpi rank pool with
// priority preemption, drains, and prints the per-job table plus the
// per-tenant accounting ledger.
//
// Build & run:
//   cmake -B build && cmake --build build
//   ./build/examples/quickstart --genes 8 >/dev/null     # makes reads.fa
//   cat > /tmp/jobs.jsonl <<'EOF'
//   {"tenant": "alice", "reads": "/tmp/trinity_quickstart/reads.fa", "ranks": 2, "k": 15}
//   {"tenant": "bob", "reads": "/tmp/trinity_quickstart/reads.fa", "ranks": 2, "k": 15, "priority": 5}
//   EOF
//   ./build/examples/trinity_serve --jobs /tmp/jobs.jsonl --root /tmp/serve_demo
//
// A rejected submission (quota, bounded queue, malformed spec) prints its
// typed reason and does not stop the batch; scripts/check.sh greps the
// final "drain complete" line and the accounting table.

#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "pipeline/config.hpp"
#include "serve/server.hpp"

int main(int argc, char** argv) {
  using namespace trinity;
  Config cfg("trinity_serve",
             "multi-tenant assembly job server: admission control, quotas, "
             "priority preemption over a shared rank pool");
  cfg.usage("--jobs FILE.jsonl")
      .flag_string("jobs", "", "job specs, one Config JSON object per line (required)")
      .flag_int("total-ranks", 8, "size of the shared simulated rank pool")
      .flag_int("max-queue", 64, "server-wide bounded queue depth")
      .flag_int("max-queued-per-tenant", 8, "per-tenant queued-job quota")
      .flag_int("max-ranks-per-tenant", 8, "per-tenant concurrent-rank quota")
      .flag_int("rss-budget-mb", 0, "per-tenant running RSS budget in MiB (0 = unlimited)")
      .flag_string("root", "", "server root; jobs run in <root>/<tenant>/<job-id>")
      .flag_bool("preemption", true,
                 "priority preemption (--no-preemption = run-to-completion)")
      .flag_bool("journal", true,
                 "durable job journal + crash recovery (--no-journal disables)")
      .flag_double("hang-timeout-s", 0.0,
                   "watchdog: cancel a job making no checkpoint progress for "
                   "this long (0 = off)")
      .flag_int("job-attempts", 3,
                "default job-level attempt budget before quarantine "
                "(per-job \"job-attempts\" overrides)")
      .flag_string("accounting", "", "also write the accounting ledger JSON here")
      .flag_bool("metrics", true,
                 "live metrics registry + instrumentation (--no-metrics "
                 "removes every hook)")
      .flag_double("metrics-period-s", 1.0,
                   "exporter cadence for <root>/metrics.prom "
                   "(0 = no exporter thread)");
  try {
    cfg.parse_cli(argc, argv);
  } catch (const ConfigError& e) {
    std::cerr << e.what() << '\n';
    return 2;
  }
  if (cfg.help_requested()) {
    std::cout << cfg.help_text();
    return 0;
  }
  const std::string jobs_path = cfg.get_string("jobs");
  if (jobs_path.empty()) {
    std::cerr << "trinity_serve: --jobs FILE.jsonl is required (see --help)\n";
    return 2;
  }
  std::ifstream jobs_file(jobs_path);
  if (!jobs_file) {
    std::cerr << "trinity_serve: cannot open " << jobs_path << '\n';
    return 2;
  }

  serve::ServerOptions options;
  options.total_ranks = static_cast<int>(cfg.get_int("total-ranks"));
  options.max_queue_depth = static_cast<int>(cfg.get_int("max-queue"));
  options.default_quota.max_queued_jobs = static_cast<int>(cfg.get_int("max-queued-per-tenant"));
  options.default_quota.max_concurrent_ranks =
      static_cast<int>(cfg.get_int("max-ranks-per-tenant"));
  options.default_quota.rss_budget_bytes =
      static_cast<std::uint64_t>(cfg.get_int("rss-budget-mb")) * 1024 * 1024;
  options.root_dir = cfg.get_string("root");
  options.preemption = cfg.get_bool("preemption");
  options.journal = cfg.get_bool("journal");
  options.hang_timeout_s = cfg.get_double("hang-timeout-s");
  options.job_retry.max_attempts = static_cast<int>(cfg.get_int("job-attempts"));
  options.metrics = cfg.get_bool("metrics");
  options.metrics_export_period_s = cfg.get_double("metrics-period-s");
  options.job_defaults.trace_sample_interval_ms = 0;  // many small jobs; no RSS sampler

  serve::JobServer server(options);
  std::cout << "serving over " << server.total_ranks() << " rank(s), root "
            << server.root_dir() << '\n';
  if (server.exporter() != nullptr) {
    std::cout << "metrics: " << server.exporter()->prom_path() << " every "
              << options.metrics_export_period_s << "s (watch with trinity_top)\n";
  }

  int submitted = 0, rejected = 0, line_no = 0;
  std::string line;
  while (std::getline(jobs_file, line)) {
    ++line_no;
    const auto first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    const serve::AdmitResult result =
        server.submit_text(line, jobs_path + ":" + std::to_string(line_no));
    if (result.accepted()) {
      ++submitted;
    } else {
      ++rejected;
      std::cout << "reject [" << serve::to_string(result.code) << "] " << jobs_path << ':'
                << line_no << ": " << result.detail << '\n';
    }
  }
  std::cout << "submitted " << submitted << " job(s), rejected " << rejected << '\n';

  server.drain();
  server.shutdown();

  std::cout << "\njobs:\n";
  int completed = 0, failed = 0, preemptions = 0;
  int quarantined = 0, killed = 0, recovered = 0;
  for (const auto& job : server.jobs()) {
    std::printf("%-12s %-10s prio %3d  %-11s  %d dispatch(es), %d attempt(s), %d preemption(s)%s  wait %.2fs run %.2fs\n",
                job.job_id.c_str(), job.tenant.c_str(), job.priority,
                serve::to_string(job.state), job.dispatches, job.attempts,
                job.preemptions, job.recovered ? " [recovered]" : "",
                job.queue_wait_seconds, job.run_seconds);
    if (!job.error.empty()) std::cout << "    error: " << job.error << '\n';
    if (job.state == serve::JobState::kCompleted) ++completed;
    if (job.state == serve::JobState::kFailed) ++failed;
    if (job.state == serve::JobState::kQuarantined) ++quarantined;
    if (job.state == serve::JobState::kKilled) ++killed;
    if (job.recovered) ++recovered;
    preemptions += job.preemptions;
  }

  const serve::Accounting accounting = server.accounting();
  std::cout << "\nper-tenant accounting:\n";
  accounting.summarize(std::cout);
  const std::string accounting_path = cfg.get_string("accounting");
  if (!accounting_path.empty()) {
    std::ofstream out(accounting_path);
    out << accounting.to_json().dump(2) << '\n';
    std::cout << "accounting ledger written to " << accounting_path << '\n';
  }

  std::cout << "\ndrain complete: " << completed << " completed, " << failed
            << " failed, " << preemptions << " preemption(s), " << quarantined
            << " quarantined, " << killed << " killed, " << recovered
            << " recovered\n";
  return 0;
}
