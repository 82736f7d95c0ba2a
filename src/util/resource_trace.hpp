#pragma once
// ResourceTrace: the paper used Collectl to plot RAM usage against runtime
// for each Trinity stage (Figures 2 and 11). This is the in-library
// substitute: phases are opened and closed by name; each phase records wall
// time, process CPU time, and RSS before/after plus the peak observed by a
// background sampler.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/timer.hpp"

namespace trinity::util {

/// A named scalar attached to a phase by the code running inside it, e.g.
/// "checkpoint_bytes" or "parse_quarantined". Counters carry whatever quantity a
/// stage wants to surface in the trace next to its time/memory row.
struct PhaseCounter {
  std::string name;
  double value = 0.0;
};

/// One completed pipeline phase in a trace.
struct PhaseRecord {
  std::string name;
  double start_seconds = 0.0;     ///< wall-clock offset from trace start
  double wall_seconds = 0.0;      ///< phase duration
  double cpu_seconds = 0.0;       ///< process CPU consumed during the phase
  std::uint64_t rss_before = 0;   ///< RSS at phase entry, bytes
  std::uint64_t rss_after = 0;    ///< RSS at phase exit, bytes
  std::uint64_t rss_peak = 0;     ///< max RSS sampled while phase ran, bytes
  std::vector<PhaseCounter> counters;  ///< attachments, in insertion order

  /// Counter lookup by name; nullptr when absent.
  [[nodiscard]] const PhaseCounter* counter(const std::string& counter_name) const;
};

/// Collects a sequence of named phases with time and memory accounting.
/// Thread-compatible: begin/end must be called from one orchestration
/// thread; the sampler runs on its own thread.
class ResourceTrace {
 public:
  /// @param sample_interval_ms period of the background RSS sampler;
  ///        0 disables sampling (rss_peak falls back to max(before, after)).
  explicit ResourceTrace(int sample_interval_ms = 50);
  ~ResourceTrace();
  ResourceTrace(const ResourceTrace&) = delete;
  ResourceTrace& operator=(const ResourceTrace&) = delete;

  /// Opens a phase. Phases may not nest.
  void begin_phase(const std::string& name);

  /// Closes the currently open phase and appends its record.
  void end_phase();

  /// Attaches a named scalar to the currently open phase. Repeated calls
  /// with the same name overwrite the value (the last write wins), so a
  /// retried stage reports its final attempt. Throws when no phase is open.
  void counter(const std::string& name, double value);

  /// Runs `fn` bracketed by begin/end of a phase named `name`.
  template <typename Fn>
  void phase(const std::string& name, Fn&& fn) {
    begin_phase(name);
    fn();
    end_phase();
  }

  /// All completed phases, in execution order.
  [[nodiscard]] const std::vector<PhaseRecord>& records() const { return records_; }

 private:
  void sampler_loop(int interval_ms);

  std::vector<PhaseRecord> records_;
  Timer trace_clock_;
  bool phase_open_ = false;
  PhaseRecord open_record_;
  double open_cpu_start_ = 0.0;
  Timer open_wall_;

  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> sampled_peak_{0};
  std::atomic<bool> sampling_active_{false};
  std::thread sampler_;
};

}  // namespace trinity::util
