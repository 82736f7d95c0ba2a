// Quickstart: simulate a small RNA-seq dataset, run the full parallel
// Trinity pipeline (hybrid Chrysalis on 4 simulated nodes), and report
// assembly statistics plus how well the reference was recovered.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart [--ranks 4] [--genes 40] [--k 25]
//
// Checkpoint/restart (each completed stage is recorded in
// <work-dir>/run_manifest.jsonl unless --no-checkpoint):
//   quickstart --resume                  # skip stages a previous run finished
//   quickstart --fault-rank 1 --fault-stage chrysalis.graph_from_fasta
//              [--fault-op allgatherv --fault-at 1] [--max-attempts 3]
// The fault flags kill the given rank mid-stage (by default at its first
// communication); the pipeline's retry driver then re-launches the stage.
//
// Observability: --trace writes <work-dir>/trace.json, a Chrome trace-event
// timeline of the run (docs/OBSERVABILITY.md "Distributed trace").

#include <cstdio>
#include <iostream>

#include "pipeline/config.hpp"
#include "pipeline/trinity_pipeline.hpp"
#include "sim/transcriptome.hpp"
#include "util/stats.hpp"
#include "validate/validate.hpp"

int main(int argc, char** argv) {
  using namespace trinity;
  pipeline::PipelineOptions defaults;
  defaults.nranks = 4;
  defaults.work_dir = "/tmp/trinity_quickstart";
  defaults.fault_stage = "chrysalis.graph_from_fasta";
  Config cfg("quickstart",
             "simulate a small RNA-seq dataset and run the full parallel Trinity "
             "pipeline");
  cfg.with_pipeline(defaults).flag_int("genes", 40, "genes to simulate");
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
  const auto genes = static_cast<std::size_t>(cfg.get_int("genes"));

  // 1. Simulate a transcriptome and an RNA-seq read set.
  auto preset = sim::preset("tiny");
  preset.transcriptome.num_genes = genes;
  preset.reads.coverage = 25.0;
  preset.reads.expression_sigma = 0.8;
  const auto data = sim::simulate_dataset(preset);
  std::cout << "simulated " << data.transcriptome.genes.size() << " genes, "
            << data.transcriptome.transcripts.size() << " isoforms, "
            << data.reads.reads.size() << " reads\n";

  // 2. Run the pipeline: Jellyfish -> Inchworm -> Chrysalis -> Butterfly.
  pipeline::PipelineOptions options;
  try {
    options = cfg.pipeline_options();
  } catch (const ConfigError& e) {
    std::cerr << e.what() << '\n';
    return 2;
  }
  const int ranks = options.nranks;
  const auto result = pipeline::run_pipeline(data.reads.reads, options);

  if (!result.stages_resumed.empty()) {
    std::cout << "\nresumed from checkpoint, skipped:";
    for (const auto& s : result.stages_resumed) std::cout << ' ' << s;
    std::cout << '\n';
  }
  if (result.stage_retries > 0) {
    std::cout << "recovered from " << result.stage_retries
              << " injected rank failure(s) by re-launching the stage\n";
  }

  std::vector<std::size_t> contig_lengths;
  for (const auto& c : result.contigs) contig_lengths.push_back(c.bases.size());
  std::cout << "\nInchworm:  " << result.contigs.size()
            << " contigs, N50 = " << util::n50(contig_lengths) << " bp\n";
  std::cout << "Chrysalis: " << result.components.num_components() << " components ("
            << (ranks > 1 ? "hybrid simpi+OpenMP" : "OpenMP only") << ", " << ranks
            << " rank(s))\n";
  std::cout << "Butterfly: " << result.transcripts.size() << " transcripts\n";

  // 3. Compare against the simulated ground truth.
  const auto cmp = validate::compare_to_reference(result.transcripts,
                                                  data.transcriptome.transcripts,
                                                  data.transcriptome.gene_of_transcript);
  std::cout << "\nfull-length genes:    " << cmp.full_length_genes << " / "
            << data.transcriptome.genes.size() << '\n'
            << "full-length isoforms: " << cmp.full_length_isoforms << " / "
            << data.transcriptome.transcripts.size() << '\n'
            << "fused transcripts:    " << cmp.fused_isoforms << '\n';

  // 4. Show the per-stage resource trace (the Collectl-style view).
  std::cout << "\nper-stage trace:\n";
  std::printf("%-32s %10s %14s\n", "stage", "wall(s)", "rss_peak(MB)");
  for (const auto& phase : result.trace) {
    std::printf("%-32s %10.3f %14.1f\n", phase.name.c_str(), phase.wall_seconds,
                static_cast<double>(phase.rss_peak) / (1024.0 * 1024.0));
  }
  std::cout << "\nmodeled Chrysalis time on the simulated cluster: "
            << result.chrysalis_virtual_seconds() << " s\n";
  if (!result.trace_file.empty()) {
    std::cout << "trace written to " << result.trace_file
              << " (open in Perfetto, or run trinity_trace on it)\n";
  }
  return 0;
}
