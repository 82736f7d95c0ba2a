// Metrics overhead guard: live telemetry must cost the serve path under 2%.
//
// Two measurements, mirroring bench_trace_overhead's discipline:
//   1. Microbench of the hot-path primitives in ns/op against an empty-loop
//      baseline: Counter::inc (one relaxed fetch_add), Histogram::observe
//      (bucket search + two relaxed RMWs), and the disabled path (the single
//      pointer test every instrumented site performs when no registry is
//      wired up).
//   2. A/B of the bench_serve batch workload: the identical job batch run
//      with metrics off and with metrics on (registry + exporter thread at
//      --metrics-period-s). Interleaved repeats, min makespan per mode —
//      min-of-N of a deterministic batch is the noise-robust comparison.
//      The median of the per-repeat paired overhead (on_r / off_r - 1) is
//      printed beside it; one low outlier moves a minimum but not a
//      median. The gate reads min-of-N.
//
// Exits non-zero when the measured A/B overhead crosses --budget (2% by
// default), which is how scripts/check.sh gates regressions (e.g. someone
// adding a lock or allocation to an instrumented serve hot path).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace {

using namespace trinity;

struct HookCosts {
  double counter_ns = 0.0;
  double histogram_ns = 0.0;
  double disabled_ns = 0.0;
};

HookCosts hook_costs(std::int64_t iters) {
  HookCosts costs;
  volatile std::int64_t sink = 0;
  util::Timer base_timer;
  for (std::int64_t i = 0; i < iters; ++i) sink = sink + i;
  const double baseline = base_timer.seconds();

  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.counter("bench_ops_total", "microbench");
  util::Timer counter_timer;
  for (std::int64_t i = 0; i < iters; ++i) {
    counter.inc();
    sink = sink + i;
  }
  costs.counter_ns =
      (counter_timer.seconds() - baseline) / static_cast<double>(iters) * 1e9;

  obs::Histogram& hist = registry.histogram("bench_latency_seconds",
                                            "microbench", obs::latency_buckets_s());
  util::Timer hist_timer;
  for (std::int64_t i = 0; i < iters; ++i) {
    hist.observe(static_cast<double>(i & 1023) * 1e-3);
    sink = sink + i;
  }
  costs.histogram_ns =
      (hist_timer.seconds() - baseline) / static_cast<double>(iters) * 1e9;

  // The disabled path: every instrumented site guards on a registry pointer
  // that is null when telemetry is off.
  obs::MetricsRegistry* volatile disabled = nullptr;
  util::Timer disabled_timer;
  for (std::int64_t i = 0; i < iters; ++i) {
    if (disabled != nullptr) counter.inc();
    sink = sink + i;
  }
  costs.disabled_ns =
      (disabled_timer.seconds() - baseline) / static_cast<double>(iters) * 1e9;
  return costs;
}

struct WorkloadConfig {
  int jobs = 12;
  int tenants = 3;
  int total_ranks = 8;
  int ranks_per_job = 2;
  double metrics_period_s = 0.25;
  std::string reads_path;
  std::string root_base;
};

// One batch run (all jobs submitted up front, no arrival sleeps); returns
// the makespan. Every run gets a fresh root so journal recovery and the
// exporter files never leak across runs.
double run_batch(const WorkloadConfig& w, bool metrics, int repeat) {
  serve::ServerOptions options;
  options.total_ranks = w.total_ranks;
  options.max_queue_depth = w.jobs + 8;
  options.default_quota.max_queued_jobs = w.jobs;
  options.default_quota.max_concurrent_ranks = w.total_ranks;
  options.root_dir = w.root_base + (metrics ? "/on_" : "/off_") + std::to_string(repeat);
  // A stale root from a previous invocation would replay its journal and
  // reject the whole batch as duplicates.
  std::filesystem::remove_all(options.root_dir);
  options.metrics = metrics;
  options.metrics_export_period_s = w.metrics_period_s;
  serve::JobServer server(options);

  pipeline::PipelineOptions job_options;
  job_options.k = 15;
  job_options.nranks = w.ranks_per_job;
  job_options.omp_threads = 1;
  job_options.trace_sample_interval_ms = 0;

  util::Timer wall;
  for (int i = 0; i < w.jobs; ++i) {
    serve::JobSpec spec;
    spec.job_id = "bench-" + std::to_string(i);
    spec.tenant = "tenant-" + std::to_string(i % w.tenants);
    spec.reads_path = w.reads_path;
    spec.options = job_options;
    spec.options.run_seed = static_cast<std::uint64_t>(i);
    const serve::AdmitResult result = server.submit(std::move(spec));
    if (!result.accepted()) {
      std::printf("unexpected reject [%s]: %s\n", serve::to_string(result.code),
                  result.detail.c_str());
    }
  }
  server.drain();
  const double makespan = wall.seconds();
  server.shutdown();
  for (const auto& job : server.jobs()) {
    if (job.state != serve::JobState::kCompleted) {
      std::printf("job %s did not complete (%s)\n", job.job_id.c_str(),
                  serve::to_string(job.state));
    }
  }
  return makespan;
}

}  // namespace

int main(int argc, char** argv) {
  auto cfg = bench::bench_config(
      "bench_obs_overhead", "Metrics overhead: hot-path ns/op and serve A/B gate");
  cfg.flag_int("jobs", 12, "jobs per batch run")
      .flag_int("tenants", 3, "tenants the jobs round-robin over")
      .flag_int("total-ranks", 8, "shared rank-pool size")
      .flag_int("ranks-per-job", 2, "simulated ranks per job")
      .flag_int("genes", 8, "genes in the shared simulated dataset")
      .flag_int("repeats", 3, "interleaved repeats per mode (min taken)")
      .flag_double("metrics-period-s", 0.25, "exporter cadence in the metrics-on runs")
      .flag_double("budget", 0.02, "maximum allowed metrics-on overhead fraction")
      .flag_int("iters", 20'000'000, "hot-loop iterations for the ns/op microbench");
  int parse_exit = 0;
  if (!bench::parse_or_exit(cfg, argc, argv, &parse_exit)) return parse_exit;
  const double budget = cfg.get_double("budget");
  const int repeats = std::max(1, static_cast<int>(cfg.get_int("repeats")));

  bench::banner("Metrics overhead", "live-telemetry cost on the serve batch workload");

  const HookCosts costs = hook_costs(cfg.get_int("iters"));
  std::printf("counter inc:        %6.2f ns/op\n", costs.counter_ns);
  std::printf("histogram observe:  %6.2f ns/op\n", costs.histogram_ns);
  std::printf("disabled path:      %6.2f ns/op (pointer test)\n\n", costs.disabled_ns);

  const bench::Workload workload = bench::make_workload(
      "tiny", static_cast<std::size_t>(cfg.get_int("genes")), "obs_overhead");
  bench::describe(workload);

  WorkloadConfig w;
  w.jobs = static_cast<int>(cfg.get_int("jobs"));
  w.tenants = static_cast<int>(cfg.get_int("tenants"));
  w.total_ranks = static_cast<int>(cfg.get_int("total-ranks"));
  w.ranks_per_job = static_cast<int>(cfg.get_int("ranks-per-job"));
  w.metrics_period_s = cfg.get_double("metrics-period-s");
  w.reads_path = workload.reads_path;
  w.root_base = workload.work_dir + "/serve_roots";

  // The modes alternate which runs first, so neither always follows the
  // other's file writes and thread teardown.
  std::vector<double> off_walls, on_walls;
  for (int r = 0; r < repeats; ++r) {
    for (const bool metrics : {r % 2 == 1, r % 2 == 0}) {
      (metrics ? on_walls : off_walls).push_back(run_batch(w, metrics, r));
    }
    std::printf("repeat %d: metrics off %.3f s, on %.3f s\n", r,
                off_walls.back(), on_walls.back());
  }
  const double off = *std::min_element(off_walls.begin(), off_walls.end());
  const double on = *std::min_element(on_walls.begin(), on_walls.end());
  const double overhead = off > 0.0 ? std::max(0.0, (on - off) / off) : 0.0;
  std::vector<double> paired;
  for (int r = 0; r < repeats; ++r) {
    const auto i = static_cast<std::size_t>(r);
    if (off_walls[i] > 0.0) paired.push_back(on_walls[i] / off_walls[i] - 1.0);
  }
  std::sort(paired.begin(), paired.end());
  const double median_paired = util::percentile(paired, 0.5);

  std::printf("\nbatch of %d job(s) over %d rank(s), min of %d repeat(s):\n",
              w.jobs, w.total_ranks, repeats);
  std::printf("metrics off %.3f s, metrics on %.3f s (exporter every %.2f s)\n",
              off, on, w.metrics_period_s);
  std::printf("measured metrics-on overhead: %.4f%% (budget %.1f%%)\n",
              overhead * 100.0, budget * 100.0);
  std::printf("median paired overhead (on_r / off_r - 1): %.4f%%\n", median_paired * 100.0);

  bench::JsonSink json(cfg, "obs_overhead");
  json.begin_entry();
  json.field("counter_ns", costs.counter_ns);
  json.field("histogram_ns", costs.histogram_ns);
  json.field("disabled_ns", costs.disabled_ns);
  json.field("jobs", static_cast<std::int64_t>(w.jobs));
  json.field("repeats", static_cast<std::int64_t>(repeats));
  json.field("metrics_period_s", w.metrics_period_s);
  json.field("min_wall_off_s", off);
  json.field("min_wall_on_s", on);
  json.field("overhead", overhead);
  json.field("median_paired_overhead", median_paired);
  json.field("budget", budget);

  if (overhead >= budget) {
    std::printf("FAIL: metrics-on overhead exceeds the budget\n");
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
