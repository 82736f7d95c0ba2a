#include "obs/exporter.hpp"

#include <chrono>

#include "io/error.hpp"
#include "io/io_file.hpp"
#include "obs/exposition.hpp"

namespace trinity::obs {

MetricsExporter::MetricsExporter(const MetricsRegistry* registry,
                                 ExporterOptions options)
    : registry_(registry), options_(std::move(options)) {
  thread_ = std::thread([this] { loop(); });
}

MetricsExporter::~MetricsExporter() { stop(); }

std::string MetricsExporter::prom_path() const {
  return options_.dir + "/metrics.prom";
}

bool MetricsExporter::export_now() {
  if (degraded_.load(std::memory_order_relaxed)) return false;
  const std::string prom = to_prometheus(registry_->snapshot());
  std::lock_guard<std::mutex> lock(publish_mu_);
  try {
    io::write_file_atomic(prom_path(), prom);
  } catch (const io::IoError& e) {
    if (!e.transient()) degraded_.store(true, std::memory_order_relaxed);
    return false;
  }
  cycles_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void MetricsExporter::loop() {
  std::unique_lock<std::mutex> lock(stop_mu_);
  while (!stopping_) {
    const auto period = std::chrono::duration<double>(
        options_.period_s > 0 ? options_.period_s : 1.0);
    if (stop_cv_.wait_for(lock, period, [this] { return stopping_; })) break;
    lock.unlock();
    export_now();
    lock.lock();
  }
}

void MetricsExporter::stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    if (stopped_) return;
    stopping_ = true;
    stopped_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  export_now();  // terminal totals always land on disk (unless degraded)
}

}  // namespace trinity::obs
