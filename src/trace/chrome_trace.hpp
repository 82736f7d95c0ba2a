#pragma once
// Chrome trace-event export for recorded spans, plus the inverse loader and
// a shape checker used by tests and the scripts/check.sh trace gate.
//
// Mapping (docs/OBSERVABILITY.md "Distributed trace"): each simpi rank
// becomes a Chrome *process* (pid = rank + 1) so Perfetto groups its
// threads together; pid 0 is the orchestration thread that runs the
// pipeline stages. tid is the OpenMP thread index within a rank (0 = the
// rank's main thread). Spans are "X" (complete) events with microsecond
// ts/dur, instants are "i", counter samples are "C", and "M" metadata
// events carry the process/thread names.

#include <cstdint>
#include <string>
#include <vector>

#include "trace/span_recorder.hpp"
#include "util/json.hpp"

namespace trinity::trace {

/// Document-level metadata carried under "otherData".
struct ChromeTraceMeta {
  std::string generator = "trinity_trace";
  std::string clock_domain =
      "process steady clock, seconds since recorder construction";
  std::uint64_t dropped_events = 0;
};

/// Builds the full Chrome trace-event document (sorted by timestamp).
[[nodiscard]] util::Json chrome_trace_json(const std::vector<TraceEvent>& events,
                                           const ChromeTraceMeta& meta = {});

/// chrome_trace_json() serialized with a trailing newline.
[[nodiscard]] std::string chrome_trace_text(const std::vector<TraceEvent>& events,
                                            const ChromeTraceMeta& meta = {});

/// Inverse of chrome_trace_json: reconstructs TraceEvents from a parsed
/// document ("M" metadata events are skipped). Throws std::runtime_error
/// on documents the validator would reject.
[[nodiscard]] std::vector<TraceEvent> events_from_chrome_trace(
    const util::Json& doc);

/// Reads + parses + converts a trace.json file.
[[nodiscard]] std::vector<TraceEvent> read_chrome_trace(const std::string& path);

/// Result of the shape check; `errors` is empty when the document is a
/// well-formed Chrome trace-event JSON by the rules we emit under.
struct TraceShapeReport {
  std::vector<std::string> errors;
  std::size_t num_events = 0;
  [[nodiscard]] bool ok() const { return errors.empty(); }
};

[[nodiscard]] TraceShapeReport validate_chrome_trace(const util::Json& doc);
[[nodiscard]] TraceShapeReport validate_chrome_trace_file(const std::string& path);

}  // namespace trinity::trace
