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
/// report (enforced by run_report_test). v3 adds the optional job
/// attribution fields `job_id` / `tenant` / `preemptions` (present only
/// for trinity_serve job runs); v4 extends that job block with
/// `attempts` / `outcome` / `recovered`, and lets the job server write a
/// minimal report (empty phases/comm) for jobs that ended without a
/// pipeline run — quarantined, deadline-killed, hung, or permanently
/// failed — so the ledger is reconstructible for every terminal job.
/// v5 removes the two ReadsToTranscripts read-prefetch counters (hidden
/// parse and blocked wait seconds): the chunk loop is synchronous. v6
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
/// counted its own slot). v1-v8 reports keep loading unchanged.
inline constexpr int kReportSchemaVersion = 9;

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

/// Rolls many run reports up into one per-tenant accounting document —
/// the `trinity_report --aggregate` view over a trinity_serve root dir.
/// Reports without v3 job attribution land under the tenant "-". Pure:
/// callers load the reports (load_run_report) and pass the parsed trees.
/// The result is a JSON object:
///   {"reports": N, "tenants": [{"tenant", "jobs", "wall_s", "cpu_s",
///    "comm_bytes_sent", "comm_bytes_received", "stage_retries",
///    "io_retries", "preemptions", "max_skew"}, ...]}
/// where wall_s sums the reports' phase walls, comm bytes sum every
/// comm[].ranks[].ops row, and max_skew is the worst comm[] skew_ratio
/// seen across the tenant's reports (1.0 when no hybrid stage ran).
[[nodiscard]] util::Json aggregate_run_reports(const std::vector<util::Json>& reports);

/// Prints the aggregate as a per-tenant table.
void summarize_aggregate(const util::Json& aggregate, std::ostream& out);

}  // namespace trinity::pipeline
