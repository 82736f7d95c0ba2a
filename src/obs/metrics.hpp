// Lock-light live metrics for the serve layer.
//
// A MetricsRegistry owns named counter/gauge/histogram families, each fanned
// out into label-distinguished series. Registration (name + label lookup) is
// the cold path and takes the registry mutex once; call sites keep the
// returned reference, after which every update is relaxed atomics only — no
// locks, no allocation — mirroring trace::SpanRecorder's discipline that the
// hot path costs a handful of relaxed atomic ops and the disabled path (no
// registry wired up) costs exactly one pointer test.
//
// obs::MetricsExporter (exporter.hpp) periodically renders snapshots to
// <root>/metrics.prom via atomic write+rename; exposition.hpp holds the
// render/parse round-trip.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace trinity::obs {

/// Sorted (key, value) pairs; the series identity within a family.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind { kCounter, kGauge, kHistogram };

const char* to_string(MetricKind kind);

/// Monotonic counter. Values are doubles so byte totals and second totals
/// share one type; integral values stay exact below 2^53.
class Counter {
 public:
  void inc(double by = 1.0) { value_.fetch_add(by, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Point-in-time value; set() overwrites.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  /// Raise the gauge to at least `v` (peak tracking).
  void set_max(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (cur < v &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: `bounds` are inclusive upper bounds in ascending
/// order; a final +Inf bucket is implicit. observe() is two relaxed atomic
/// RMWs (bucket count + sum); the total count is derived from the buckets.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);
  const std::vector<double>& bounds() const { return bounds_; }
  /// Count in bucket i (i == bounds().size() is the +Inf bucket).
  std::uint64_t bucket(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t count() const;

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<double> sum_{0.0};
};

/// Bucket layouts for the serve-layer histograms. Shared here so tests, the
/// exporter round-trip, and docs agree on the exact boundaries.
std::vector<double> latency_buckets_s();   // 1ms .. 512s, powers of two
std::vector<double> fsync_buckets_s();     // 10us .. ~2.6s, powers of four

// --- snapshots ---------------------------------------------------------------

struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;  ///< per-bucket counts, size bounds+1
  double sum = 0.0;

  std::uint64_t count() const;
  /// Quantile estimate (q in [0,1]) by linear interpolation inside the
  /// containing bucket; returns 0 when empty.
  double quantile(double q) const;
};

struct SeriesSnapshot {
  Labels labels;
  double value = 0.0;        ///< counter/gauge
  HistogramSnapshot hist;    ///< histogram only
};

struct FamilySnapshot {
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  std::vector<SeriesSnapshot> series;
};

struct MetricsSnapshot {
  std::uint64_t sequence = 0;  ///< bumped per snapshot() call on one registry
  double uptime_s = 0.0;       ///< seconds since the registry was created
  std::vector<FamilySnapshot> families;

  const FamilySnapshot* find_family(std::string_view name) const;
  const SeriesSnapshot* find(std::string_view name, const Labels& labels) const;
  /// Value of a counter/gauge series, or `fallback` when absent.
  double value_or(std::string_view name, const Labels& labels,
                  double fallback = 0.0) const;
};

// --- registry ----------------------------------------------------------------

class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();  ///< out-of-line: Family is incomplete here
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create. The returned references stay valid for the registry's
  /// lifetime (series live in deques). Re-registering an existing name with a
  /// different kind (or a histogram with different bounds) throws
  /// std::logic_error; help text is fixed by the first registration.
  Counter& counter(std::string_view name, std::string_view help,
                   Labels labels = {});
  Gauge& gauge(std::string_view name, std::string_view help,
               Labels labels = {});
  Histogram& histogram(std::string_view name, std::string_view help,
                       const std::vector<double>& bounds, Labels labels = {});

  /// Consistent point-in-time copy of every series.
  MetricsSnapshot snapshot() const;

  /// Seconds since construction (monotonic clock). Heartbeat gauges publish
  /// this value so readers can compute ages without wall-clock agreement.
  double uptime_s() const;

 private:
  struct Series;
  struct Family;

  Series& series(std::string_view name, std::string_view help, MetricKind kind,
                 const std::vector<double>* bounds, Labels labels);

  mutable std::mutex mu_;
  std::map<std::string, Family, std::less<>> families_;
  mutable std::atomic<std::uint64_t> sequence_{0};
  std::chrono::steady_clock::time_point start_;
};

}  // namespace trinity::obs
