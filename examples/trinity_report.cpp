// trinity_report: summarize the JSON run report a pipeline run emits
// (<work_dir>/run_report.json; schema in docs/OBSERVABILITY.md).
//
// Prints the per-stage load-imbalance table — max/mean rank virtual time,
// skew ratio, communication volume, blocked ("wait") time — plus the
// Chrysalis pooling volumes, without re-running anything.
//
// Build & run:
//   cmake -B build && cmake --build build
//   ./build/examples/quickstart --ranks 4          # produces the report
//   ./build/examples/trinity_report /tmp/trinity_quickstart/run_report.json
//
// Flags:
//   --json       re-emit the parsed report compactly on stdout instead of
//                the summary (round-trip check / piping into jq)
//   --trace      when the report carries a "trace_file" field (a run with
//                PipelineOptions::trace_path set), load that Chrome trace
//                and append the critical-path analysis (per-stage critical
//                rank, per-rank blocked time, top-5 spans) to the summary

#include <exception>
#include <iostream>
#include <string>

#include "pipeline/config.hpp"
#include "pipeline/run_report.hpp"
#include "trace/analyze.hpp"
#include "trace/chrome_trace.hpp"

namespace {

// The report stores trace_path as given (work-dir-relative by default), so a
// moved work dir keeps working: resolve it against the report's directory.
std::string resolve_trace_path(const std::string& report_path,
                               const std::string& trace_file) {
  if (!trace_file.empty() && trace_file.front() == '/') return trace_file;
  const auto slash = report_path.find_last_of('/');
  if (slash == std::string::npos) return trace_file;
  return report_path.substr(0, slash + 1) + trace_file;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace trinity;
  Config cfg("trinity_report", "summarize the JSON run report a pipeline run emits");
  cfg.usage("<run_report.json>")
      .flag_bool("json", false, "re-emit the parsed report compactly instead of the summary")
      .flag_bool("trace", false,
                 "load the report's trace_file and append the critical-path analysis");
  try {
    cfg.parse_cli(argc, argv);
  } catch (const ConfigError& e) {
    std::cerr << e.what() << '\n';
    return 2;
  }
  if (cfg.help_requested() || cfg.positional().empty()) {
    std::cout << cfg.help_text();
    return cfg.help_requested() ? 0 : 2;
  }
  const std::string path = cfg.positional().front();
  try {
    const util::Json report = pipeline::load_run_report(path);
    if (cfg.get_bool("json")) {
      std::cout << report.dump() << '\n';
    } else {
      pipeline::summarize_report(report, std::cout);
      if (cfg.get_bool("trace")) {
        const util::Json* trace_file = report.find("trace_file");
        if (trace_file == nullptr) {
          std::cerr << "trinity_report: report has no trace_file field "
                       "(run with PipelineOptions::trace_path set)\n";
          return 1;
        }
        const std::string trace_path =
            resolve_trace_path(path, trace_file->as_string());
        const auto events = trace::read_chrome_trace(trace_path);
        std::cout << '\n' << trace::format_analysis(trace::analyze_trace(events, 5));
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "trinity_report: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
