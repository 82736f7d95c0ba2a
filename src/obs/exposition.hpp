// Rendering and parsing of metrics snapshots.
//
// One on-disk form, published atomically by obs::MetricsExporter as
// `metrics.prom` and tailed by `trinity_top`: the Prometheus text
// exposition. Each family gets `# HELP` / `# TYPE`, then one sample line per
// series; histograms expand to cumulative `_bucket{le=...}` samples plus
// `_sum` and `_count`. The snapshot header (sequence, uptime) closes the
// document as two unlabelled gauges, trinity_metrics_snapshot_sequence and
// trinity_metrics_uptime_seconds.
//
// parse_prometheus_text() is the strict inverse: every sample must belong to
// a family that declared HELP and TYPE, names must match the Prometheus
// charset, histogram bucket series must be cumulative and close with `+Inf`,
// and the document must carry both header gauges and end with a newline.
// The header is written last, so any prefix of a published file (what a
// torn write leaves behind) fails to parse.

#pragma once

#include <string>

#include "obs/metrics.hpp"

namespace trinity::obs {

/// Prometheus text exposition format (version 0.0.4), header gauges last.
std::string to_prometheus(const MetricsSnapshot& snapshot);

/// Strict parse of the text exposition emitted by to_prometheus(). Throws
/// std::runtime_error (with a line number) on: samples without a preceding
/// HELP+TYPE pair, invalid metric/label names, non-cumulative histogram
/// buckets, a histogram missing its `+Inf` bucket / `_sum` / `_count`, a
/// missing header gauge, or a last line without its newline. Returns a
/// snapshot with per-bucket (de-cumulated) counts and the header gauges
/// lifted back into `sequence` / `uptime_s`, so parse(to_prometheus(s))
/// equals s, header included.
MetricsSnapshot parse_prometheus_text(const std::string& text);

}  // namespace trinity::obs
