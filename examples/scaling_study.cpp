// scaling_study: a user-configurable rank sweep over a simulated dataset,
// printing Figure-7/9-style tables for GraphFromFasta, ReadsToTranscripts
// and the distributed Bowtie step on the simulated cluster.
//
// Usage:
//   scaling_study [--genes 150] [--coverage 15] [--k 25]
//                 [--ranks 1,2,4,8,16] [--threads-per-rank 16]

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <sstream>

#include "align/mpi_bowtie.hpp"
#include "chrysalis/graph_from_fasta.hpp"
#include "chrysalis/reads_to_transcripts.hpp"
#include "inchworm/inchworm.hpp"
#include "kmer/counter.hpp"
#include "seq/fasta.hpp"
#include "pipeline/config.hpp"
#include "sim/transcriptome.hpp"
#include "simpi/context.hpp"

namespace {

std::vector<int> parse_ranks(const std::string& csv) {
  std::vector<int> out;
  std::istringstream in(csv);
  std::string token;
  while (std::getline(in, token, ',')) {
    try {
      out.push_back(std::stoi(token));
    } catch (const std::exception&) {
      throw trinity::ConfigError("ranks",
                                 "expected a comma-separated integer list, got '" + csv + "'");
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace trinity;
  Config cfg("scaling_study",
             "rank sweep over a simulated dataset: Figure-7/9-style Chrysalis tables");
  cfg.flag_int("genes", 150, "genes to simulate")
      .flag_double("coverage", 15.0, "read coverage")
      .flag_int("k", 25, "k-mer size")
      .flag_int("threads-per-rank", 16, "modeled threads per node")
      .flag_string("ranks", "1,2,4,8,16", "comma-separated rank counts to sweep");
  std::vector<int> ranks;
  try {
    cfg.parse_cli(argc, argv);
    ranks = parse_ranks(cfg.get_string("ranks"));
  } catch (const ConfigError& e) {
    std::cerr << e.what() << '\n';
    return 2;
  }
  if (cfg.help_requested()) {
    std::cout << cfg.help_text();
    return 0;
  }
  const auto genes = static_cast<std::size_t>(cfg.get_int("genes"));
  const double coverage = cfg.get_double("coverage");
  const int k = static_cast<int>(cfg.get_int("k"));
  const int threads_per_rank = static_cast<int>(cfg.get_int("threads-per-rank"));

  // Workload: simulate, count k-mers, assemble contigs once; the sweep
  // re-runs only the Chrysalis stages, as the paper's benchmarks do.
  auto preset = sim::preset("tiny");
  preset.name = "scaling";
  preset.transcriptome.num_genes = genes;
  preset.reads.coverage = coverage;
  const auto data = sim::simulate_dataset(preset);

  kmer::CounterOptions copt;
  copt.k = k;
  kmer::KmerCounter counter(copt);
  counter.add_sequences(data.reads.reads);

  inchworm::InchwormOptions iopt;
  iopt.k = k;
  inchworm::Inchworm assembler(iopt);
  assembler.load_counts(counter.dump());
  const auto contigs = assembler.assemble();

  const std::string work_dir = "/tmp/trinity_scaling";
  std::filesystem::create_directories(work_dir);
  const std::string reads_path = work_dir + "/reads.fa";
  seq::write_fasta(reads_path, data.reads.reads);

  std::cout << "workload: " << data.reads.reads.size() << " reads, " << contigs.size()
            << " Inchworm contigs; " << threads_per_rank
            << " modeled threads per node\n\n";

  std::printf("%6s | %12s %12s %12s | %12s %12s | %12s\n", "nodes", "gff_loop1(s)",
              "gff_loop2(s)", "gff_total(s)", "r2t_loop(s)", "r2t_total(s)",
              "bowtie(s)");
  std::printf("%.6s-+-%.38s-+-%.25s-+-%.12s\n", "------",
              "--------------------------------------",
              "-------------------------", "------------");

  for (const int nranks : ranks) {
    chrysalis::GraphFromFastaOptions gff;
    gff.k = k;
    gff.model_threads_per_rank = threads_per_rank;
    chrysalis::ReadsToTranscriptsOptions r2t;
    r2t.k = k;
    r2t.model_threads_per_rank = threads_per_rank;
    align::AlignerOptions aopt;

    chrysalis::GffTiming gff_timing;
    chrysalis::R2TTiming r2t_timing;
    align::DistributedBowtieTiming bowtie_timing;

    simpi::run(nranks, [&](simpi::Context& ctx) {
      const auto bowtie = align::distributed_bowtie(ctx, contigs, data.reads.reads, aopt);
      const auto g = chrysalis::run_hybrid(ctx, contigs, counter, gff);
      const auto r =
          chrysalis::run_hybrid(ctx, contigs, g.components, reads_path, r2t, work_dir);
      if (ctx.rank() == 0) {
        gff_timing = g.timing;
        r2t_timing = r.timing;
        bowtie_timing = bowtie.timing;
      }
    });

    std::printf("%6d | %12.3f %12.3f %12.3f | %12.3f %12.3f | %12.3f\n", nranks,
                gff_timing.loop1.max(), gff_timing.loop2.max(), gff_timing.total_seconds(),
                r2t_timing.main_loop.max(), r2t_timing.total_seconds(),
                bowtie_timing.total_seconds());
  }
  std::cout << "\ntimes are virtual seconds on the simulated cluster (measured per-rank\n"
               "CPU work / modeled threads + alpha-beta communication model).\n";
  return 0;
}
