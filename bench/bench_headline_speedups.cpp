// Headline numbers (abstract + §V text) — the paper's summary table:
//   * GraphFromFasta: 4.5x at 16 nodes, 20.7x at 192 nodes vs 1-node OpenMP
//   * ReadsToTranscripts: 19.75x at 32 nodes
//   * Bowtie: ~3x at 128 nodes
//   * Chrysalis overall: >50 h -> <5 h (>10x)
//
// This bench reproduces the same ratios on the simulated cluster at the
// scaled rank counts and prints paper-vs-measured side by side.

#include "align/mpi_bowtie.hpp"
#include "bench_common.hpp"
#include "chrysalis/graph_from_fasta.hpp"
#include "chrysalis/reads_to_transcripts.hpp"
#include "fasplit/fasplit.hpp"
#include "simpi/context.hpp"

int main(int argc, char** argv) {
  using namespace trinity;
  auto cfg = bench::bench_config("bench_headline_speedups", "Headline speedups: abstract / Section V summary numbers");
  cfg.flag_int("genes", 400, "genes to simulate (scales the dataset)");
  cfg.flag_int("ranks", 16, "rank count for the measured world(s)");
  int parse_exit = 0;
  if (!bench::parse_or_exit(cfg, argc, argv, &parse_exit)) return parse_exit;
  const auto genes = static_cast<std::size_t>(cfg.get_int("genes"));
  const int max_ranks = static_cast<int>(cfg.get_int("ranks"));

  bench::banner("Headline speedups", "abstract / Section V summary numbers");
  const auto w = bench::make_workload("sugarbeet_like", genes, "headline");
  bench::describe(w);

  // --- GraphFromFasta --------------------------------------------------------
  chrysalis::GraphFromFastaOptions gff;
  gff.k = bench::kK;
  gff.kernel_repeats = 200;
  gff.model_threads_per_rank = 1;
  gff.sharding = chrysalis::ShardingStrategy::kPooled;  // the paper's scheme
  double gff_base = 0.0;
  double gff_par = 0.0;
  chrysalis::ComponentSet components;
  for (const int nranks : {1, max_ranks}) {
    simpi::run(nranks, [&](simpi::Context& ctx) {
      const auto r = chrysalis::run_hybrid(ctx, w.contigs, w.counter, gff);
      if (ctx.rank() == 0) {
        (nranks == 1 ? gff_base : gff_par) = r.timing.total_seconds();
        if (nranks == 1) components = r.components;
      }
    });
  }

  // --- ReadsToTranscripts ----------------------------------------------------
  chrysalis::ReadsToTranscriptsOptions r2t;
  r2t.k = bench::kK;
  r2t.max_mem_reads = 20000;
  r2t.kernel_repeats = 30;
  r2t.model_threads_per_rank = 1;
  double r2t_base = 0.0;
  double r2t_par = 0.0;
  for (const int nranks : {1, max_ranks}) {
    simpi::run(nranks, [&](simpi::Context& ctx) {
      const auto r = chrysalis::run_hybrid(ctx, w.contigs, components, w.reads_path, r2t,
                                           w.work_dir);
      if (ctx.rank() == 0) (nranks == 1 ? r2t_base : r2t_par) = r.timing.total_seconds();
    });
  }

  // --- Bowtie ------------------------------------------------------------------
  align::AlignerOptions aopt;
  aopt.model_threads_per_rank = 1;  // node-count scaling, as in Figs 7-9
  const double pyfasta_model = static_cast<double>(seq::total_bases(w.contigs)) / 1.0e6;
  double bowtie_base = 0.0;
  double bowtie_par = 0.0;
  for (const int nranks : {1, max_ranks}) {
    simpi::run(nranks, [&](simpi::Context& ctx) {
      const auto r = align::distributed_bowtie(ctx, w.contigs, w.dataset.reads.reads, aopt);
      if (ctx.rank() == 0) {
        const double t = pyfasta_model + r.timing.align_seconds_max + r.timing.merge_seconds;
        (nranks == 1 ? bowtie_base : bowtie_par) = t;
      }
    });
  }

  const double chrysalis_base = gff_base + r2t_base + bowtie_base;
  const double chrysalis_par = gff_par + r2t_par + bowtie_par;

  std::printf("%-22s | %12s | %12s | %9s | %s\n", "component", "1 node (s)",
              "parallel (s)", "speedup", "paper");
  std::printf("%-22s | %12.3f | %12.3f | %8.2fx | 4.5x@16 -> 20.7x@192 nodes\n",
              "GraphFromFasta", gff_base, gff_par, gff_base / gff_par);
  std::printf("%-22s | %12.3f | %12.3f | %8.2fx | 19.75x@32 nodes\n", "ReadsToTranscripts",
              r2t_base, r2t_par, r2t_base / r2t_par);
  std::printf("%-22s | %12.3f | %12.3f | %8.2fx | ~3x@128 nodes (PyFasta-bound)\n", "Bowtie",
              bowtie_base, bowtie_par, bowtie_base / bowtie_par);
  std::printf("%-22s | %12.3f | %12.3f | %8.2fx | >50 h -> <5 h (>10x)\n",
              "Chrysalis (all three)", chrysalis_base, chrysalis_par,
              chrysalis_base / chrysalis_par);
  std::printf("\nmeasured at %d simulated nodes (one modeled thread per rank; node-count scaling).\n", max_ranks);
  return 0;
}
