#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace trinity::obs {

const char* to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "unknown";
}

// --- Histogram ---------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::logic_error("histogram bounds must be ascending");
  }
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const std::size_t idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    total += buckets_[i].load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<double> latency_buckets_s() {
  std::vector<double> bounds;
  for (double b = 0.001; b <= 512.0; b *= 2.0) bounds.push_back(b);
  return bounds;  // 1ms, 2ms, ... 512s (20 bounds)
}

std::vector<double> fsync_buckets_s() {
  std::vector<double> bounds;
  for (double b = 1e-5; b <= 3.0; b *= 4.0) bounds.push_back(b);
  return bounds;  // 10us, 40us, ... ~2.62s (10 bounds)
}

// --- snapshots ---------------------------------------------------------------

std::uint64_t HistogramSnapshot::count() const {
  std::uint64_t total = 0;
  for (const std::uint64_t b : buckets) total += b;
  return total;
}

double HistogramSnapshot::quantile(double q) const {
  const std::uint64_t total = count();
  if (total == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double target = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const std::uint64_t in_bucket = buckets[i];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) >= target) {
      const double lo = (i == 0) ? 0.0 : bounds[i - 1];
      // The +Inf bucket has no upper edge; report its lower edge.
      if (i >= bounds.size()) return lo;
      const double hi = bounds[i];
      const double within =
          (target - static_cast<double>(cumulative)) /
          static_cast<double>(in_bucket);
      return lo + (hi - lo) * std::min(1.0, std::max(0.0, within));
    }
    cumulative += in_bucket;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

const FamilySnapshot* MetricsSnapshot::find_family(std::string_view name) const {
  for (const auto& f : families) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

const SeriesSnapshot* MetricsSnapshot::find(std::string_view name,
                                            const Labels& labels) const {
  const FamilySnapshot* family = find_family(name);
  if (family == nullptr) return nullptr;
  for (const auto& s : family->series) {
    if (s.labels == labels) return &s;
  }
  return nullptr;
}

double MetricsSnapshot::value_or(std::string_view name, const Labels& labels,
                                 double fallback) const {
  const SeriesSnapshot* s = find(name, labels);
  return s == nullptr ? fallback : s->value;
}

// --- registry ----------------------------------------------------------------

struct MetricsRegistry::Series {
  Labels labels;
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<Histogram> histogram;
};

struct MetricsRegistry::Family {
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  std::vector<double> bounds;  // histogram only
  std::deque<Series> series;
};

MetricsRegistry::MetricsRegistry() : start_(std::chrono::steady_clock::now()) {}

MetricsRegistry::~MetricsRegistry() = default;

double MetricsRegistry::uptime_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

MetricsRegistry::Series& MetricsRegistry::series(
    std::string_view name, std::string_view help, MetricKind kind,
    const std::vector<double>* bounds, Labels labels) {
  std::sort(labels.begin(), labels.end());
  std::lock_guard<std::mutex> lock(mu_);
  auto it = families_.find(name);
  if (it == families_.end()) {
    Family family;
    family.help = std::string(help);
    family.kind = kind;
    if (bounds != nullptr) family.bounds = *bounds;
    it = families_.emplace(std::string(name), std::move(family)).first;
  } else {
    if (it->second.kind != kind) {
      throw std::logic_error("metric " + std::string(name) +
                             " re-registered as a different kind");
    }
    if (bounds != nullptr && it->second.bounds != *bounds) {
      throw std::logic_error("metric " + std::string(name) +
                             " re-registered with different buckets");
    }
  }
  Family& family = it->second;
  for (Series& s : family.series) {
    if (s.labels == labels) return s;
  }
  Series s;
  s.labels = std::move(labels);
  switch (kind) {
    case MetricKind::kCounter:
      s.counter = std::make_unique<Counter>();
      break;
    case MetricKind::kGauge:
      s.gauge = std::make_unique<Gauge>();
      break;
    case MetricKind::kHistogram:
      s.histogram = std::make_unique<Histogram>(family.bounds);
      break;
  }
  family.series.push_back(std::move(s));
  return family.series.back();
}

Counter& MetricsRegistry::counter(std::string_view name, std::string_view help,
                                  Labels labels) {
  return *series(name, help, MetricKind::kCounter, nullptr, std::move(labels))
              .counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, std::string_view help,
                              Labels labels) {
  return *series(name, help, MetricKind::kGauge, nullptr, std::move(labels))
              .gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::string_view help,
                                      const std::vector<double>& bounds,
                                      Labels labels) {
  return *series(name, help, MetricKind::kHistogram, &bounds, std::move(labels))
              .histogram;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  snap.uptime_s = uptime_s();
  snap.sequence = sequence_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::lock_guard<std::mutex> lock(mu_);
  snap.families.reserve(families_.size());
  for (const auto& [name, family] : families_) {
    FamilySnapshot fs;
    fs.name = name;
    fs.help = family.help;
    fs.kind = family.kind;
    fs.series.reserve(family.series.size());
    for (const Series& s : family.series) {
      SeriesSnapshot ss;
      ss.labels = s.labels;
      switch (family.kind) {
        case MetricKind::kCounter:
          ss.value = s.counter->value();
          break;
        case MetricKind::kGauge:
          ss.value = s.gauge->value();
          break;
        case MetricKind::kHistogram: {
          ss.hist.bounds = family.bounds;
          ss.hist.buckets.resize(family.bounds.size() + 1);
          // Read sum first: a concurrent observe() between the two reads then
          // surfaces as bucket-count >= sum coverage rather than a sum with a
          // missing sample, keeping counts monotonic across snapshots.
          ss.hist.sum = s.histogram->sum();
          for (std::size_t i = 0; i <= family.bounds.size(); ++i) {
            ss.hist.buckets[i] = s.histogram->bucket(i);
          }
          break;
        }
      }
      fs.series.push_back(std::move(ss));
    }
    snap.families.push_back(std::move(fs));
  }
  return snap;
}

}  // namespace trinity::obs
