// The obs subsystem: lock-light registry semantics (identity, type safety,
// exact totals under concurrent writers, monotonic counters across
// snapshots), histogram bucket boundaries and quantiles, the Prometheus
// exposition round-trip (snapshot header included), and the exporter's
// atomic publication of metrics.prom under the io fault matrix — a failed
// publish cycle must never leave a torn or half-written snapshot where a
// reader would accept it.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "io/error.hpp"
#include "io/fault_plan.hpp"
#include "io/io_file.hpp"
#include "obs/exporter.hpp"
#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "test_helpers.hpp"

namespace trinity::obs {
namespace {

using trinity::testing::TempDir;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// --- registry semantics -----------------------------------------------------------

TEST(MetricsRegistry, FindOrCreateReturnsStableIdentity) {
  MetricsRegistry registry;
  Counter& a = registry.counter("trinity_test_total", "help", {{"k", "v"}});
  Counter& b = registry.counter("trinity_test_total", "help", {{"k", "v"}});
  EXPECT_EQ(&a, &b);
  // Label order must not matter: labels are normalized at registration.
  Counter& c = registry.counter("trinity_pair_total", "help",
                                {{"a", "1"}, {"b", "2"}});
  Counter& d = registry.counter("trinity_pair_total", "help",
                                {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&c, &d);
  // A different label set is a different series.
  Counter& e = registry.counter("trinity_test_total", "help", {{"k", "other"}});
  EXPECT_NE(&a, &e);
}

TEST(MetricsRegistry, KindAndBucketConflictsThrow) {
  MetricsRegistry registry;
  registry.counter("trinity_conflict", "help");
  EXPECT_THROW(registry.gauge("trinity_conflict", "help"), std::logic_error);
  EXPECT_THROW(registry.histogram("trinity_conflict", "help", {1.0}),
               std::logic_error);
  registry.histogram("trinity_hist", "help", {1.0, 2.0});
  EXPECT_THROW(registry.histogram("trinity_hist", "help", {1.0, 3.0}),
               std::logic_error);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::logic_error);
}

TEST(MetricsRegistry, GaugeSetAndPeak) {
  MetricsRegistry registry;
  Gauge& g = registry.gauge("trinity_gauge", "help");
  g.set(5.0);
  g.set(2.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  Gauge& peak = registry.gauge("trinity_peak", "help");
  peak.set_max(3.0);
  peak.set_max(1.0);  // lower value must not regress the peak
  EXPECT_DOUBLE_EQ(peak.value(), 3.0);
}

TEST(Histogram, BucketBoundariesAreInclusiveUpperBounds) {
  Histogram hist({1.0, 2.0});
  hist.observe(0.5);   // bucket 0 (le 1.0)
  hist.observe(1.0);   // bucket 0: le is inclusive
  hist.observe(1.5);   // bucket 1 (le 2.0)
  hist.observe(2.0);   // bucket 1: le is inclusive
  hist.observe(99.0);  // +Inf bucket
  EXPECT_EQ(hist.bucket(0), 2u);
  EXPECT_EQ(hist.bucket(1), 2u);
  EXPECT_EQ(hist.bucket(2), 1u);
  EXPECT_EQ(hist.count(), 5u);
  EXPECT_DOUBLE_EQ(hist.sum(), 0.5 + 1.0 + 1.5 + 2.0 + 99.0);
}

TEST(MetricsRegistry, ConcurrentWritersLandExactTotals) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("trinity_ops_total", "help");
  Histogram& hist =
      registry.histogram("trinity_lat_seconds", "help", latency_buckets_s());
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, &hist, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        counter.inc();
        hist.observe(0.001 * static_cast<double>((t + i) % 100));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_DOUBLE_EQ(counter.value(), kThreads * kOpsPerThread);
  EXPECT_EQ(hist.count(), static_cast<std::uint64_t>(kThreads * kOpsPerThread));
}

TEST(MetricsRegistry, CountersMonotonicAcrossSnapshotCycles) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("trinity_mono_total", "help");
  Histogram& hist = registry.histogram("trinity_mono_seconds", "help", {1.0});
  double last_value = -1.0;
  std::uint64_t last_count = 0;
  std::uint64_t last_sequence = 0;
  for (int cycle = 0; cycle < 5; ++cycle) {
    counter.inc(static_cast<double>(cycle));
    hist.observe(0.5);
    const MetricsSnapshot snap = registry.snapshot();
    EXPECT_GT(snap.sequence, last_sequence);
    last_sequence = snap.sequence;
    const SeriesSnapshot* c = snap.find("trinity_mono_total", {});
    ASSERT_NE(c, nullptr);
    EXPECT_GE(c->value, last_value);
    last_value = c->value;
    const SeriesSnapshot* h = snap.find("trinity_mono_seconds", {});
    ASSERT_NE(h, nullptr);
    EXPECT_GE(h->hist.count(), last_count);
    last_count = h->hist.count();
  }
  EXPECT_DOUBLE_EQ(last_value, 0.0 + 1.0 + 2.0 + 3.0 + 4.0);
  EXPECT_EQ(last_count, 5u);
}

TEST(HistogramSnapshot, QuantileInterpolatesWithinBucket) {
  Histogram hist({1.0, 2.0, 4.0});
  for (int i = 0; i < 50; ++i) hist.observe(0.5);
  for (int i = 0; i < 50; ++i) hist.observe(1.5);
  HistogramSnapshot snap;
  snap.bounds = hist.bounds();
  snap.buckets = {50, 50, 0, 0};
  snap.sum = hist.sum();
  EXPECT_DOUBLE_EQ(snap.quantile(0.0), 0.0);
  // p50 is the top of the first bucket, p100 the top of the second.
  EXPECT_DOUBLE_EQ(snap.quantile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(snap.quantile(1.0), 2.0);
  EXPECT_GT(snap.quantile(0.75), 1.0);
  EXPECT_LT(snap.quantile(0.75), 2.0);
  // Samples in +Inf report the last finite bound (no upper edge to lerp to).
  HistogramSnapshot inf;
  inf.bounds = {1.0};
  inf.buckets = {0, 10};
  EXPECT_DOUBLE_EQ(inf.quantile(0.99), 1.0);
  HistogramSnapshot empty;
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
}

// --- exposition round-trip --------------------------------------------------------

MetricsRegistry& exposition_fixture(MetricsRegistry& registry) {
  registry.counter("trinity_jobs_total", "Terminal jobs by outcome.",
                   {{"tenant", "alice"}, {"outcome", "completed"}})
      .inc(3.0);
  registry.counter("trinity_jobs_total", "Terminal jobs by outcome.",
                   {{"tenant", "bo\"b\\x\n"}, {"outcome", "failed"}})
      .inc(1.0);
  registry.gauge("trinity_queue_depth", "Jobs waiting.").set(4.0);
  Histogram& hist = registry.histogram(
      "trinity_latency_seconds", "Completion latency.", {0.1, 1.0, 10.0});
  hist.observe(0.05);
  hist.observe(0.5);
  hist.observe(42.0);
  return registry;
}

void expect_same_families(const MetricsSnapshot& a, const MetricsSnapshot& b) {
  ASSERT_EQ(a.families.size(), b.families.size());
  for (std::size_t i = 0; i < a.families.size(); ++i) {
    const FamilySnapshot& fa = a.families[i];
    const FamilySnapshot& fb = b.families[i];
    EXPECT_EQ(fa.name, fb.name);
    EXPECT_EQ(fa.help, fb.help);
    EXPECT_EQ(fa.kind, fb.kind);
    ASSERT_EQ(fa.series.size(), fb.series.size()) << fa.name;
    for (std::size_t j = 0; j < fa.series.size(); ++j) {
      EXPECT_EQ(fa.series[j].labels, fb.series[j].labels) << fa.name;
      EXPECT_DOUBLE_EQ(fa.series[j].value, fb.series[j].value) << fa.name;
      EXPECT_EQ(fa.series[j].hist.bounds, fb.series[j].hist.bounds) << fa.name;
      EXPECT_EQ(fa.series[j].hist.buckets, fb.series[j].hist.buckets) << fa.name;
      EXPECT_DOUBLE_EQ(fa.series[j].hist.sum, fb.series[j].hist.sum) << fa.name;
    }
  }
}

TEST(Exposition, PrometheusRoundTripPreservesEveryFamily) {
  MetricsRegistry registry;
  const MetricsSnapshot snap = exposition_fixture(registry).snapshot();
  const std::string text = to_prometheus(snap);

  // Every family must carry its HELP and TYPE headers with stable names.
  for (const char* name :
       {"trinity_jobs_total", "trinity_queue_depth", "trinity_latency_seconds"}) {
    EXPECT_NE(text.find("# HELP " + std::string(name)), std::string::npos) << text;
    EXPECT_NE(text.find("# TYPE " + std::string(name)), std::string::npos) << text;
  }
  EXPECT_NE(text.find("# TYPE trinity_latency_seconds histogram"),
            std::string::npos);
  // Histograms expand to cumulative buckets closed by +Inf, _sum and _count.
  EXPECT_NE(text.find("trinity_latency_seconds_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("trinity_latency_seconds_count 3"), std::string::npos);
  // Label values with quotes/backslashes/newlines are escaped on the wire.
  EXPECT_NE(text.find("bo\\\"b\\\\x\\n"), std::string::npos) << text;

  const MetricsSnapshot parsed = parse_prometheus_text(text);
  expect_same_families(snap, parsed);
}

TEST(Exposition, PrometheusParserRejectsMalformedDocuments) {
  // A sample without HELP+TYPE headers.
  EXPECT_THROW(parse_prometheus_text("trinity_x_total 1\n"), std::runtime_error);
  // Non-cumulative histogram buckets.
  EXPECT_THROW(parse_prometheus_text(
                   "# HELP trinity_h_seconds h\n"
                   "# TYPE trinity_h_seconds histogram\n"
                   "trinity_h_seconds_bucket{le=\"1\"} 5\n"
                   "trinity_h_seconds_bucket{le=\"+Inf\"} 3\n"
                   "trinity_h_seconds_sum 1\n"
                   "trinity_h_seconds_count 3\n"),
               std::runtime_error);
  // A histogram that never closes with +Inf.
  EXPECT_THROW(parse_prometheus_text(
                   "# HELP trinity_h_seconds h\n"
                   "# TYPE trinity_h_seconds histogram\n"
                   "trinity_h_seconds_bucket{le=\"1\"} 5\n"
                   "trinity_h_seconds_sum 1\n"
                   "trinity_h_seconds_count 5\n"),
               std::runtime_error);
  // Truncation mid-line (what a torn write would leave behind).
  MetricsRegistry registry;
  const std::string text = to_prometheus(exposition_fixture(registry).snapshot());
  EXPECT_THROW(parse_prometheus_text(text.substr(0, text.size() / 2)),
               std::runtime_error);
}

TEST(Exposition, PrometheusRoundTripKeepsSnapshotHeader) {
  MetricsRegistry registry;
  exposition_fixture(registry).snapshot();
  MetricsSnapshot snap = registry.snapshot();  // sequence 2
  snap.uptime_s = 1234.5678901234567;          // not a short decimal
  const std::string text = to_prometheus(snap);
  EXPECT_NE(text.find("\ntrinity_metrics_snapshot_sequence 2\n"),
            std::string::npos) << text;
  EXPECT_NE(text.find("# TYPE trinity_metrics_uptime_seconds gauge"),
            std::string::npos) << text;

  const MetricsSnapshot parsed = parse_prometheus_text(text);
  EXPECT_EQ(parsed.sequence, 2u);
  EXPECT_EQ(parsed.uptime_s, snap.uptime_s);  // exact, not approximately
  // The header gauges are lifted out, not left behind as families.
  expect_same_families(snap, parsed);
}

TEST(Exposition, EveryPrefixOfADocumentIsRejected) {
  // The header gauges close the document and the last line needs its
  // newline, so wherever a torn write cuts, the strict parser refuses it.
  MetricsRegistry registry;
  const std::string text = to_prometheus(exposition_fixture(registry).snapshot());
  ASSERT_NO_THROW(parse_prometheus_text(text));
  for (std::size_t len = 0; len < text.size(); ++len) {
    EXPECT_THROW(parse_prometheus_text(text.substr(0, len)), std::runtime_error)
        << "prefix of " << len << " bytes parsed";
  }
}

// --- exporter under the io fault matrix -------------------------------------------

TEST(MetricsExporter, ExportNowPublishesParseableFiles) {
  TempDir dir("obs_export");
  MetricsRegistry registry;
  registry.counter("trinity_ops_total", "help").inc(5.0);
  MetricsExporter exporter(&registry, {dir.str(), /*period_s=*/60.0});
  ASSERT_TRUE(exporter.export_now());
  const MetricsSnapshot prom = parse_prometheus_text(slurp(exporter.prom_path()));
  EXPECT_DOUBLE_EQ(prom.value_or("trinity_ops_total", {}), 5.0);
  EXPECT_EQ(prom.sequence, 1u);
  exporter.stop();
}

TEST(MetricsExporter, PublishesOneFile) {
  TempDir dir("obs_export_one");
  MetricsRegistry registry;
  registry.counter("trinity_ops_total", "help").inc(1.0);
  MetricsExporter exporter(&registry, {dir.str(), /*period_s=*/60.0});
  ASSERT_TRUE(exporter.export_now());
  EXPECT_EQ(exporter.prom_path(), dir.str() + "/metrics.prom");
  EXPECT_TRUE(std::filesystem::exists(dir.str() + "/metrics.prom"));
  EXPECT_FALSE(std::filesystem::exists(dir.str() + "/metrics.json"));
  exporter.stop();
}

TEST(MetricsExporter, TransientFaultSkipsCycleAndKeepsOldSnapshot) {
  TempDir dir("obs_export_eio");
  MetricsRegistry registry;
  Counter& ops = registry.counter("trinity_ops_total", "help");
  ops.inc(1.0);
  MetricsExporter exporter(&registry, {dir.str(), /*period_s=*/60.0});
  ASSERT_TRUE(exporter.export_now());

  ops.inc(1.0);
  {
    io::ScopedFaultInjection fault(
        io::IoFaultPlan::parse("write:*metrics.prom.tmp:1:eio"));
    EXPECT_FALSE(exporter.export_now());
  }
  EXPECT_EQ(exporter.cycles(), 1u);  // the skipped cycle published nothing
  EXPECT_FALSE(exporter.degraded());
  // The published files still hold the previous complete snapshot.
  const MetricsSnapshot old = parse_prometheus_text(slurp(exporter.prom_path()));
  EXPECT_DOUBLE_EQ(old.value_or("trinity_ops_total", {}), 1.0);

  // The next clean cycle catches up.
  ASSERT_TRUE(exporter.export_now());
  const MetricsSnapshot fresh = parse_prometheus_text(slurp(exporter.prom_path()));
  EXPECT_DOUBLE_EQ(fresh.value_or("trinity_ops_total", {}), 2.0);
  exporter.stop();
}

TEST(MetricsExporter, PermanentFaultDegradesWithoutTearingPublishedFiles) {
  TempDir dir("obs_export_enospc");
  MetricsRegistry registry;
  Counter& ops = registry.counter("trinity_ops_total", "help");
  ops.inc(1.0);
  MetricsExporter exporter(&registry, {dir.str(), /*period_s=*/60.0});
  ASSERT_TRUE(exporter.export_now());

  ops.inc(1.0);
  {
    io::ScopedFaultInjection fault(
        io::IoFaultPlan::parse("write:*metrics.prom.tmp:1:enospc"));
    EXPECT_FALSE(exporter.export_now());
  }
  EXPECT_TRUE(exporter.degraded());
  // Degraded means no further publication attempts — telemetry loss, not a
  // serving failure, and the last good snapshot stays parseable on disk.
  EXPECT_FALSE(exporter.export_now());
  const MetricsSnapshot old = parse_prometheus_text(slurp(exporter.prom_path()));
  EXPECT_DOUBLE_EQ(old.value_or("trinity_ops_total", {}), 1.0);
  exporter.stop();
}

TEST(MetricsExporter, TornRenameNeverPassesOffAPartialSnapshot) {
  TempDir dir("obs_export_torn");
  MetricsRegistry registry;
  Counter& ops = registry.counter("trinity_ops_total", "help");
  ops.inc(1.0);
  MetricsExporter exporter(&registry, {dir.str(), /*period_s=*/60.0});
  ASSERT_TRUE(exporter.export_now());

  ops.inc(1.0);
  {
    io::ScopedFaultInjection fault(
        io::IoFaultPlan::parse("rename:*/metrics.prom:1:torn_rename"));
    EXPECT_FALSE(exporter.export_now());
  }
  // A torn rename models a crash mid-commit: the .prom destination holds a
  // truncated document. The strict parser must reject it — a reader can
  // never mistake the torn file for a valid snapshot.
  EXPECT_TRUE(exporter.degraded());
  EXPECT_THROW(parse_prometheus_text(slurp(exporter.prom_path())),
               std::runtime_error);
  exporter.stop();
}

TEST(MetricsExporter, BackgroundThreadPublishesAndStopFlushesFinalTotals) {
  TempDir dir("obs_export_thread");
  MetricsRegistry registry;
  Counter& ops = registry.counter("trinity_ops_total", "help");
  MetricsExporter exporter(&registry, {dir.str(), /*period_s=*/0.01});
  for (int i = 0; i < 10; ++i) {
    ops.inc();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  exporter.stop();  // final export lands the terminal totals
  EXPECT_GE(exporter.cycles(), 1u);
  const MetricsSnapshot snap = parse_prometheus_text(slurp(exporter.prom_path()));
  EXPECT_DOUBLE_EQ(snap.value_or("trinity_ops_total", {}), 10.0);
}

}  // namespace
}  // namespace trinity::obs
