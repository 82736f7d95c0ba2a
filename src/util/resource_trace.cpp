#include "util/resource_trace.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/rss.hpp"

namespace trinity::util {

const PhaseCounter* PhaseRecord::counter(const std::string& counter_name) const {
  for (const auto& c : counters) {
    if (c.name == counter_name) return &c;
  }
  return nullptr;
}

ResourceTrace::ResourceTrace(int sample_interval_ms) {
  if (sample_interval_ms > 0) {
    sampler_ = std::thread([this, sample_interval_ms] { sampler_loop(sample_interval_ms); });
  }
}

ResourceTrace::~ResourceTrace() {
  stop_.store(true, std::memory_order_relaxed);
  if (sampler_.joinable()) sampler_.join();
}

void ResourceTrace::sampler_loop(int interval_ms) {
  while (!stop_.load(std::memory_order_relaxed)) {
    if (sampling_active_.load(std::memory_order_relaxed)) {
      const std::uint64_t rss = current_rss_bytes();
      std::uint64_t prev = sampled_peak_.load(std::memory_order_relaxed);
      while (rss > prev &&
             !sampled_peak_.compare_exchange_weak(prev, rss, std::memory_order_relaxed)) {
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
}

void ResourceTrace::begin_phase(const std::string& name) {
  if (phase_open_) throw std::logic_error("ResourceTrace: phases may not nest");
  phase_open_ = true;
  open_record_ = PhaseRecord{};
  open_record_.name = name;
  open_record_.start_seconds = trace_clock_.seconds();
  open_record_.rss_before = current_rss_bytes();
  open_cpu_start_ = process_cpu_seconds();
  sampled_peak_.store(open_record_.rss_before, std::memory_order_relaxed);
  sampling_active_.store(true, std::memory_order_relaxed);
  open_wall_.reset();
}

void ResourceTrace::end_phase() {
  if (!phase_open_) throw std::logic_error("ResourceTrace: no open phase");
  sampling_active_.store(false, std::memory_order_relaxed);
  open_record_.wall_seconds = open_wall_.seconds();
  open_record_.cpu_seconds = process_cpu_seconds() - open_cpu_start_;
  open_record_.rss_after = current_rss_bytes();
  open_record_.rss_peak = std::max({sampled_peak_.load(std::memory_order_relaxed),
                                    open_record_.rss_before, open_record_.rss_after});
  records_.push_back(open_record_);
  phase_open_ = false;
}

void ResourceTrace::counter(const std::string& name, double value) {
  if (!phase_open_) throw std::logic_error("ResourceTrace: counter() needs an open phase");
  for (auto& c : open_record_.counters) {
    if (c.name == name) {
      c.value = value;
      return;
    }
  }
  open_record_.counters.push_back(PhaseCounter{name, value});
}

}  // namespace trinity::util
