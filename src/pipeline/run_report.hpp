#pragma once
// The machine-readable run report: one JSON document per pipeline run,
// written to `<work_dir>/run_report.json` by default.
//
// The paper diagnosed its load imbalance by hand — Collectl plots plus
// per-rank printf timing (Figures 7-11). The report is the systematic
// version: everything those figures need (per-rank virtual times, skew
// ratios, per-operation communication volume, the phase timeline with its
// counters) in one versioned document that the `trinity_report` summarizer
// and the figure benches consume without re-running anything.
//
// The schema is documented field-by-field in docs/OBSERVABILITY.md; the
// `schema_version` constant below is the single source of truth and
// scripts/check.sh fails when the docs drift from it. Compatibility rule:
// adding fields is a minor change (readers must ignore unknown keys),
// removing or re-typing one bumps the version.

#include <ostream>
#include <string>
#include <vector>

#include "pipeline/trinity_pipeline.hpp"
#include "util/json.hpp"

namespace trinity::pipeline {

/// Version of the run-report schema this library writes. Must match the
/// "Schema version" stated in docs/OBSERVABILITY.md (enforced by
/// scripts/check.sh) and the "schema_version" field of every emitted
/// report (enforced by run_report_test). v3 added the optional job
/// attribution fields `job_id` / `tenant` / `preemptions`, and v4 extended
/// that job block with `attempts` / `outcome` / `recovered` plus minimal
/// reports (empty phases/comm, no chrysalis section) for jobs that ended
/// without a pipeline run; both belonged to the job server.
/// v5 removes the two ReadsToTranscripts read-prefetch counters (hidden
/// parse and blocked wait seconds) with the prefetch thread that kept them. v6
/// removes GraphFromFasta's overlap-credit seconds: owner sharding routes
/// welds with the blocking alltoallv, so no compute hides behind the exchange.
/// v7 removes ReadsToTranscripts' `r2t_mode` and `index_*` fields with the
/// index mode: the vote map is built for every run. v8 removes the
/// Chrysalis byte ledgers (GraphFromFasta's weld, match and union-find edge
/// bytes, ReadsToTranscripts' assignment bytes) and the hybrid phases'
/// communication counters: the comm[] rows count every byte once. v9 keeps
/// the shape but counts each op on its own row, and only the bytes that
/// crossed between ranks (before it, allgatherv and reduce rows held
/// logical payload on top of inner gatherv/bcast rows, and alltoallv
/// counted its own slot). v10 removes the v3/v4 job block with the job
/// server that wrote it; no report written now carries it. v1-v9 reports
/// keep loading unchanged (the summarizer ignores their job fields).
inline constexpr int kReportSchemaVersion = 10;

/// Builds the report document from a finished run. Pure: no I/O.
[[nodiscard]] util::Json build_run_report(const PipelineOptions& options,
                                          const PipelineResult& result);

/// Pretty-prints `report` to `path` (two-space indent, trailing newline).
void write_run_report(const std::string& path, const util::Json& report);

/// Reads and parses a report file. Throws std::runtime_error when the file
/// is unreadable, is not JSON, or declares a schema_version this library
/// does not understand.
[[nodiscard]] util::Json load_run_report(const std::string& path);

/// Human-readable digest of a report: per-stage imbalance table (max/mean
/// rank virtual time, skew ratio, bytes sent/received, wait time) plus each
/// hybrid stage's per-op traffic. This is what `trinity_report` prints.
void summarize_report(const util::Json& report, std::ostream& out);

}  // namespace trinity::pipeline
