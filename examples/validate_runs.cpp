// validate_runs: reproduces the paper's Section-IV methodology on a small
// dataset — repeated runs of the original (OpenMP-only) and hybrid
// pipelines, all-to-all Smith–Waterman categorization between them, and a
// two-sample t-test on the per-run metric.
//
// Usage:
//   validate_runs [--runs 4] [--genes 30] [--ranks 4]

#include <cstdio>
#include <iostream>

#include <fstream>

#include "pipeline/config.hpp"
#include "pipeline/trinity_pipeline.hpp"
#include "sim/transcriptome.hpp"
#include "validate/report.hpp"
#include "validate/validate.hpp"

int main(int argc, char** argv) {
  using namespace trinity;
  Config cfg("validate_runs",
             "repeated original-vs-hybrid runs with Smith-Waterman categorization "
             "and a two-sample t-test");
  cfg.flag_int("runs", 4, "runs of each pipeline version")
      .flag_int("genes", 30, "genes to simulate")
      .flag_int("ranks", 4, "ranks for the hybrid runs")
      .flag_string("report", "/tmp/trinity_validation.md", "markdown report path");
  try {
    cfg.parse_cli(argc, argv);
  } catch (const ConfigError& e) {
    std::cerr << e.what() << '\n';
    return 2;
  }
  if (cfg.help_requested()) {
    std::cout << cfg.help_text();
    return 0;
  }
  const int runs = static_cast<int>(cfg.get_int("runs"));
  const auto genes = static_cast<std::size_t>(cfg.get_int("genes"));
  const int ranks = static_cast<int>(cfg.get_int("ranks"));

  auto preset = sim::preset("whitefly_like");
  preset.transcriptome.num_genes = genes;
  const auto data = sim::simulate_dataset(preset);
  std::cout << "dataset: " << data.reads.reads.size() << " reads from "
            << data.transcriptome.transcripts.size() << " reference isoforms\n\n";

  auto run_once = [&](int nranks, std::uint64_t seed) {
    pipeline::PipelineOptions o;
    o.nranks = nranks;
    o.run_seed = seed;
    o.work_dir = "/tmp/trinity_validate_runs";
    return pipeline::run_pipeline(data.reads.reads, o);
  };

  // Repeated runs of each version; the run seed models Trinity's
  // nondeterministic tie-breaking between repeated runs.
  std::vector<std::vector<seq::Sequence>> original;
  std::vector<std::vector<seq::Sequence>> parallel;
  std::vector<double> original_metric;
  std::vector<double> parallel_metric;
  for (int r = 0; r < runs; ++r) {
    original.push_back(run_once(1, static_cast<std::uint64_t>(r) + 1).transcripts);
    parallel.push_back(run_once(ranks, static_cast<std::uint64_t>(r) + 101).transcripts);
    original_metric.push_back(static_cast<double>(original.back().size()));
    parallel_metric.push_back(static_cast<double>(parallel.back().size()));
    std::cout << "run " << (r + 1) << ": original " << original.back().size()
              << " transcripts, parallel " << parallel.back().size() << "\n";
  }

  // "Parallel" bar: parallel run vs original run. "Original" bar: two
  // original runs (the expected level of variation).
  const auto parallel_vs_original = validate::all_to_all_categories(parallel[0], original[0]);
  const auto original_vs_original =
      validate::all_to_all_categories(original[runs > 1 ? 1 : 0], original[0]);

  auto print_counts = [](const char* label, const validate::CategoryCounts& c) {
    std::printf("%-22s (a) full 100%%: %4zu  (b) full <100%%: %4zu  (c) partial: %4zu  "
                "unmatched: %4zu\n",
                label, c.full_identical, c.full_diverged, c.partial, c.unmatched);
  };
  std::cout << "\nall-to-all Smith-Waterman categories (paper Figure 4):\n";
  print_counts("parallel vs original", parallel_vs_original);
  print_counts("original vs original", original_vs_original);

  const auto t = validate::compare_run_metric(original_metric, parallel_metric);
  std::printf("\ntwo-sample t-test on transcript counts: t = %.3f, p = %.3f -> %s\n", t.t,
              t.p_two_sided,
              t.significant_at_5pct ? "SIGNIFICANT DIFFERENCE (unexpected!)"
                                    : "no significant difference (matches the paper)");

  // Full report, markdown + CSV, for the record.
  const std::string report_path = cfg.get_string("report");
  std::ofstream report(report_path);
  validate::write_markdown_report(
      report,
      std::to_string(data.reads.reads.size()) + " reads from " +
          std::to_string(data.transcriptome.transcripts.size()) + " reference isoforms",
      {{"parallel vs original", parallel_vs_original},
       {"original vs original", original_vs_original}},
      {}, t);
  std::cout << "report written to " << report_path << '\n';
  return 0;
}
