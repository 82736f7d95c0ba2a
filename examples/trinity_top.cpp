// trinity_top: live one-screen status for a running trinity_serve instance.
//
// Tails `<root>/metrics.prom` (the Prometheus text snapshot
// obs::MetricsExporter publishes atomically every cycle), reads it through
// the strict exposition parser, and renders the server at a glance:
// queue depth and age, in-flight jobs with their current pipeline stage
// (derived from the trinity_job_stage_heartbeat gauges), admission and
// terminal-outcome totals, retry/preemption/kill rates, and latency
// quantiles for job wall time and journal fsync. No connection to the
// server is needed — the snapshot file is the whole protocol, so it works
// across restarts and on post-mortem roots.
//
// Build & run:
//   cmake -B build && cmake --build build
//   ./build/examples/trinity_serve --jobs jobs.jsonl --root /tmp/serve &
//   ./build/examples/trinity_top --root /tmp/serve
//
// `--check-prom FILE` instead runs the same parser over FILE and exits 0/1;
// scripts/check.sh uses it to validate metrics.prom.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "pipeline/config.hpp"

namespace {

using trinity::obs::FamilySnapshot;
using trinity::obs::HistogramSnapshot;
using trinity::obs::Labels;
using trinity::obs::MetricsSnapshot;
using trinity::obs::SeriesSnapshot;

std::string label_value(const Labels& labels, const std::string& key) {
  for (const auto& [k, v] : labels) {
    if (k == key) return v;
  }
  return "";
}

/// Sum of a counter family across all series whose labels match `want`
/// (every (key, value) in `want` must be present; extra labels are free).
double sum_where(const MetricsSnapshot& snap, const std::string& family,
                 const Labels& want = {}) {
  const FamilySnapshot* f = snap.find_family(family);
  if (f == nullptr) return 0.0;
  double total = 0.0;
  for (const auto& s : f->series) {
    bool match = true;
    for (const auto& [k, v] : want) {
      if (label_value(s.labels, k) != v) { match = false; break; }
    }
    if (match) total += s.value;
  }
  return total;
}

/// Fold every series of a histogram family into one distribution.
HistogramSnapshot merged_histogram(const MetricsSnapshot& snap,
                                   const std::string& family) {
  HistogramSnapshot merged;
  const FamilySnapshot* f = snap.find_family(family);
  if (f == nullptr) return merged;
  for (const auto& s : f->series) {
    if (merged.bounds.empty()) {
      merged = s.hist;
      continue;
    }
    if (s.hist.bounds != merged.bounds) continue;  // defensive; never expected
    for (std::size_t i = 0; i < merged.buckets.size(); ++i) {
      merged.buckets[i] += s.hist.buckets[i];
    }
    merged.sum += s.hist.sum;
  }
  return merged;
}

std::string fmt_seconds(double s) {
  char buf[32];
  if (s < 0) s = 0;
  if (s < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.0fms", s * 1e3);
  } else if (s < 120.0) {
    std::snprintf(buf, sizeof(buf), "%.1fs", s);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1fm", s / 60.0);
  }
  return buf;
}

std::string fmt_bytes(double b) {
  char buf[32];
  if (b < 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.0fKiB", b / 1024.0);
  } else if (b < 1024.0 * 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.1fMiB", b / (1024.0 * 1024.0));
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fGiB", b / (1024.0 * 1024.0 * 1024.0));
  }
  return buf;
}

struct ActiveJob {
  std::string tenant;
  std::string job;
  std::string stage;    // most recent heartbeat stage, "" if none yet
  double age_s = -1.0;  // snapshot uptime minus last heartbeat
};

std::vector<ActiveJob> active_jobs(const MetricsSnapshot& snap) {
  std::vector<ActiveJob> jobs;
  const FamilySnapshot* active = snap.find_family("trinity_job_active");
  if (active == nullptr) return jobs;
  for (const auto& s : active->series) {
    if (s.value < 0.5) continue;
    ActiveJob j;
    j.tenant = label_value(s.labels, "tenant");
    j.job = label_value(s.labels, "job");
    jobs.push_back(std::move(j));
  }
  // Current stage: the heartbeat gauge holds registry uptime at stage entry,
  // so the series with the largest value is the stage the job is in now.
  const FamilySnapshot* hb = snap.find_family("trinity_job_stage_heartbeat");
  if (hb != nullptr) {
    for (auto& j : jobs) {
      double best = -1.0;
      for (const auto& s : hb->series) {
        if (label_value(s.labels, "job") != j.job ||
            label_value(s.labels, "tenant") != j.tenant) {
          continue;
        }
        if (s.value > best) {
          best = s.value;
          j.stage = label_value(s.labels, "stage");
        }
      }
      if (best >= 0.0) j.age_s = std::max(0.0, snap.uptime_s - best);
    }
  }
  std::sort(jobs.begin(), jobs.end(), [](const ActiveJob& a, const ActiveJob& b) {
    return std::tie(a.tenant, a.job) < std::tie(b.tenant, b.job);
  });
  return jobs;
}

void render(const MetricsSnapshot& snap, const std::string& path) {
  std::printf("trinity_top — %s  (snapshot #%llu, server uptime %s)\n",
              path.c_str(), static_cast<unsigned long long>(snap.sequence),
              fmt_seconds(snap.uptime_s).c_str());

  const double depth = snap.value_or("trinity_serve_queue_depth", {});
  const double peak = snap.value_or("trinity_serve_queue_depth_peak", {});
  const double oldest = snap.value_or("trinity_serve_oldest_queued_age_seconds", {});
  const double inflight = snap.value_or("trinity_serve_jobs_inflight", {});
  const double ranks_avail = snap.value_or("trinity_serve_ranks_available", {});
  const double ranks_total = snap.value_or("trinity_serve_ranks_total", {});
  std::printf(
      "queue %.0f (peak %.0f, oldest %s)   in-flight %.0f   ranks %.0f/%.0f free\n",
      depth, peak, fmt_seconds(oldest).c_str(), inflight, ranks_avail,
      ranks_total);

  const double accepted =
      sum_where(snap, "trinity_serve_admission_total", {{"outcome", "accepted"}});
  const double admitted_all = sum_where(snap, "trinity_serve_admission_total");
  const double completed =
      sum_where(snap, "trinity_serve_jobs_total", {{"outcome", "completed"}});
  const double failed =
      sum_where(snap, "trinity_serve_jobs_total", {{"outcome", "failed"}});
  const double quarantined =
      sum_where(snap, "trinity_serve_jobs_total", {{"outcome", "quarantined"}});
  const double deadline =
      sum_where(snap, "trinity_serve_jobs_total", {{"outcome", "deadline_exceeded"}});
  const double hung =
      sum_where(snap, "trinity_serve_jobs_total", {{"outcome", "hung"}});
  std::printf(
      "admission: %.0f accepted / %.0f rejected    outcomes: %.0f ok, %.0f "
      "failed, %.0f quarantined, %.0f deadline, %.0f hung\n",
      accepted, admitted_all - accepted, completed, failed, quarantined,
      deadline, hung);
  std::printf(
      "churn: %.0f retries, %.0f preemptions, %.0f recovered    journal "
      "appends: %.0f\n",
      sum_where(snap, "trinity_serve_job_retries_total"),
      sum_where(snap, "trinity_serve_preemptions_total"),
      sum_where(snap, "trinity_serve_recovered_jobs_total"),
      sum_where(snap, "trinity_serve_journal_events_total"));

  const HistogramSnapshot lat =
      merged_histogram(snap, "trinity_serve_job_latency_seconds");
  const HistogramSnapshot wait =
      merged_histogram(snap, "trinity_serve_queue_wait_seconds");
  const HistogramSnapshot fsync =
      merged_histogram(snap, "trinity_serve_journal_append_seconds");
  if (lat.count() > 0) {
    std::printf("job latency: p50 %s  p95 %s  p99 %s  (%llu done)\n",
                fmt_seconds(lat.quantile(0.50)).c_str(),
                fmt_seconds(lat.quantile(0.95)).c_str(),
                fmt_seconds(lat.quantile(0.99)).c_str(),
                static_cast<unsigned long long>(lat.count()));
  }
  if (wait.count() > 0 || fsync.count() > 0) {
    std::printf("queue wait p50 %s p95 %s    journal fsync p50 %s p99 %s\n",
                fmt_seconds(wait.quantile(0.50)).c_str(),
                fmt_seconds(wait.quantile(0.95)).c_str(),
                fmt_seconds(fsync.quantile(0.50)).c_str(),
                fmt_seconds(fsync.quantile(0.99)).c_str());
  }

  // Per-tenant table: union of every tenant that appears on a tenant-labeled
  // family, live gauges joined with lifetime totals.
  std::set<std::string> tenants;
  for (const char* family :
       {"trinity_serve_tenant_queued_jobs", "trinity_serve_jobs_total",
        "trinity_serve_jobs_rejected_total"}) {
    const FamilySnapshot* f = snap.find_family(family);
    if (f == nullptr) continue;
    for (const auto& s : f->series) {
      const std::string t = label_value(s.labels, "tenant");
      if (!t.empty()) tenants.insert(t);
    }
  }
  if (!tenants.empty()) {
    std::printf("\n%-12s %6s %6s %10s %8s %8s %8s\n", "tenant", "queued",
                "ranks", "rss-ewma", "ok", "failed", "rejected");
    for (const std::string& t : tenants) {
      const Labels tl = {{"tenant", t}};
      std::printf("%-12s %6.0f %6.0f %10s %8.0f %8.0f %8.0f\n", t.c_str(),
                  snap.value_or("trinity_serve_tenant_queued_jobs", tl),
                  snap.value_or("trinity_serve_tenant_running_ranks", tl),
                  fmt_bytes(snap.value_or("trinity_serve_tenant_rss_ewma_bytes", tl))
                      .c_str(),
                  sum_where(snap, "trinity_serve_jobs_total",
                            {{"tenant", t}, {"outcome", "completed"}}),
                  sum_where(snap, "trinity_serve_jobs_total",
                            {{"tenant", t}, {"outcome", "failed"}}),
                  sum_where(snap, "trinity_serve_jobs_rejected_total", tl));
    }
  }

  const std::vector<ActiveJob> jobs = active_jobs(snap);
  if (!jobs.empty()) {
    std::printf("\nactive jobs:\n");
    for (const auto& j : jobs) {
      std::printf("  %-12s %-16s %-28s %s\n", j.tenant.c_str(), j.job.c_str(),
                  j.stage.empty() ? "(dispatching)" : j.stage.c_str(),
                  j.age_s < 0 ? "" : ("in stage " + fmt_seconds(j.age_s)).c_str());
    }
  }
  std::fflush(stdout);
}

/// The one read path: the whole file through the strict exposition parser.
/// Returns nullopt when the file cannot be opened; a malformed or torn file
/// throws std::runtime_error carrying the parser's line-located message.
std::optional<MetricsSnapshot> read_snapshot(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();
  return trinity::obs::parse_prometheus_text(text.str());
}

int check_prom(const std::string& path) {
  try {
    const std::optional<MetricsSnapshot> snap = read_snapshot(path);
    if (!snap) {
      std::cerr << "trinity_top: cannot open " << path << '\n';
      return 1;
    }
    std::size_t series = 0;
    for (const auto& f : snap->families) series += f.series.size();
    std::cout << path << ": valid Prometheus exposition, " << snap->families.size()
              << " families, " << series << " series\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "trinity_top: " << path << ": " << e.what() << '\n';
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace trinity;
  Config cfg("trinity_top",
             "live one-screen serve status from <root>/metrics.prom");
  cfg.usage("--root DIR [--iterations N] | --check-prom FILE")
      .flag_string("root", "", "serve root holding metrics.prom (required)")
      .flag_int("iterations", 0, "render this many frames then exit (0 = forever)")
      .flag_double("period-s", 1.0, "refresh interval between frames")
      .flag_bool("clear", true,
                 "clear the screen between frames (--no-clear for logs/pipes)")
      .flag_string("check-prom", "",
                   "validate a metrics.prom file with the strict exposition "
                   "parser and exit 0/1 (no rendering)");
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
  const std::string prom_path = cfg.get_string("check-prom");
  if (!prom_path.empty()) return check_prom(prom_path);

  const std::string root = cfg.get_string("root");
  if (root.empty()) {
    std::cerr << "trinity_top: --root DIR is required (see --help)\n";
    return 2;
  }
  const std::string snapshot_path = root + "/metrics.prom";
  const long long iterations = cfg.get_int("iterations");
  const double period_s = cfg.get_double("period-s");
  const bool clear = cfg.get_bool("clear");

  bool rendered_any = false;
  for (long long frame = 0; iterations == 0 || frame < iterations; ++frame) {
    if (frame > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(std::max(0.05, period_s)));
    }
    std::optional<MetricsSnapshot> snap;
    try {
      snap = read_snapshot(snapshot_path);
    } catch (const std::exception& e) {
      // The exporter publishes atomically, so a parse failure means a torn
      // rename (after which the exporter is degraded and writes no more) or
      // a file it did not write. Surface it and keep tailing.
      std::printf("trinity_top: %s: %s\n", snapshot_path.c_str(), e.what());
      std::fflush(stdout);
      continue;
    }
    if (!snap) {
      std::printf("trinity_top: waiting for %s ...\n", snapshot_path.c_str());
      std::fflush(stdout);
      continue;
    }
    if (clear && rendered_any) std::printf("\033[H\033[2J");
    render(*snap, snapshot_path);
    rendered_any = true;
  }
  return rendered_any ? 0 : 1;
}
