// Periodic snapshot publication.
//
// MetricsExporter owns one background thread that every `period_s` renders a
// registry snapshot as Prometheus text and publishes it as
// `<dir>/metrics.prom`, the one file trinity_top tails. The write goes
// through io::write_file_atomic — write tmp, fsync, rename — so a reader
// never observes a partial document and the io fault matrix (ENOSPC, EIO,
// short write, torn rename) applies to the publish path.
//
// Failure discipline mirrors the job journal: a transient IoError skips the
// cycle (not counted in cycles(), retried next tick); a permanent IoError marks the exporter
// degraded and stops writing, but the in-memory registry keeps counting —
// telemetry loss never takes down serving.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "obs/metrics.hpp"

namespace trinity::obs {

struct ExporterOptions {
  std::string dir;           ///< directory metrics.prom lands in
  double period_s = 1.0;     ///< export cadence
};

class MetricsExporter {
 public:
  /// The registry must outlive the exporter. Starts the export thread.
  MetricsExporter(const MetricsRegistry* registry, ExporterOptions options);
  ~MetricsExporter();
  MetricsExporter(const MetricsExporter&) = delete;
  MetricsExporter& operator=(const MetricsExporter&) = delete;

  /// One synchronous export cycle (also what the thread runs). Returns true
  /// when the snapshot was published. Safe to call concurrently with the
  /// thread; publication is serialized internally.
  bool export_now();

  /// Stops the thread after one final export, so shutdown always leaves the
  /// terminal totals on disk. Idempotent.
  void stop();

  std::uint64_t cycles() const {
    return cycles_.load(std::memory_order_relaxed);
  }
  /// True once a permanent IoError disabled publication.
  bool degraded() const { return degraded_.load(std::memory_order_relaxed); }

  /// `<dir>/metrics.prom`.
  std::string prom_path() const;

 private:
  void loop();

  const MetricsRegistry* registry_;
  ExporterOptions options_;
  std::atomic<std::uint64_t> cycles_{0};
  std::atomic<bool> degraded_{false};
  std::mutex publish_mu_;
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;
  bool stopped_ = false;
  std::thread thread_;
};

}  // namespace trinity::obs
