// assemble_fasta: the downstream-user entry point. Assembles transcripts
// de novo from any FASTA/FASTQ read file, in the original shared-memory
// configuration or the paper's hybrid configuration.
//
// Usage:
//   assemble_fasta <reads.fa|reads.fq> [--out transcripts.fa]
//                  [--ranks N] [--k 25] [--min-kmer-count 2]
//                  [--work-dir DIR]
//                  [--gff-distribution crr|block|dynamic]
//                  [--r2t-strategy redundant|master-slave] [--bowtie-split targets|reads]
//                  [--min-node-support N] [--require-paired-support]
//
// With --ranks 1 (default) this is the original OpenMP-only Trinity path;
// with --ranks N > 1 the Chrysalis stages run hybrid over N simulated
// nodes, exactly like `Trinity.pl --nprocs N` in the paper. The strategy
// flags select the paper's published schemes (defaults), its discarded
// prototypes, or its future-work directions (see DESIGN.md).

#include <iostream>

#include "pipeline/config.hpp"
#include "pipeline/trinity_pipeline.hpp"
#include "seq/fasta.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace trinity;
  pipeline::PipelineOptions defaults;
  defaults.work_dir = "/tmp/trinity_assemble";
  Config cfg("assemble_fasta",
             "assemble transcripts de novo from a FASTA/FASTQ read file");
  cfg.usage("<reads.fa|reads.fq>")
      .with_pipeline(defaults)
      .flag_string("out", "transcripts.fa", "output transcript FASTA");
  pipeline::PipelineOptions options;
  try {
    cfg.parse_cli(argc, argv);
    if (!cfg.help_requested()) options = cfg.pipeline_options();
  } catch (const ConfigError& e) {
    std::cerr << e.what() << '\n';
    return 2;
  }
  if (cfg.help_requested() || cfg.positional().empty()) {
    std::cout << cfg.help_text();
    return cfg.help_requested() ? 0 : 2;
  }
  const std::string reads_path = cfg.positional().front();
  const std::string out_path = cfg.get_string("out");

  try {
    const auto result = pipeline::run_pipeline_from_file(reads_path, options);

    std::vector<std::size_t> lengths;
    std::size_t bases = 0;
    for (const auto& t : result.transcripts) {
      lengths.push_back(t.bases.size());
      bases += t.bases.size();
    }
    seq::write_fasta(out_path, result.transcripts, 70);

    std::cout << "assembled " << result.transcripts.size() << " transcripts (" << bases
              << " bp, N50 " << util::n50(lengths) << ") from "
              << result.assignments.size() << " reads\n"
              << "components: " << result.components.num_components() << '\n'
              << "output: " << out_path << '\n';
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
