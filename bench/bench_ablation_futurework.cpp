// Ablation — the paper's Section VI future-work directions, implemented
// and measured against the published design:
//
//  1. "a dynamic partitioning strategy to reduce this load imbalance":
//     self-scheduling via an RMA work counter vs chunked round-robin.
//  2. The read-split alternative of Bozdag et al. (the paper's Bowtie
//     partitioning is "a special case of their more general study"):
//     split reads + replicate index vs split targets + PyFasta.

#include "align/mpi_bowtie.hpp"
#include "bench_common.hpp"
#include "chrysalis/graph_from_fasta.hpp"
#include "simpi/context.hpp"

int main(int argc, char** argv) {
  using namespace trinity;
  auto cfg = bench::bench_config("bench_ablation_futurework", "Ablation (future work): Section VI directions vs the published design");
  cfg.flag_int("genes", 400, "genes to simulate (scales the dataset)");
  int parse_exit = 0;
  if (!bench::parse_or_exit(cfg, argc, argv, &parse_exit)) return parse_exit;
  const auto genes = static_cast<std::size_t>(cfg.get_int("genes"));

  bench::banner("Ablation (future work)", "Section VI directions vs the published design");
  const auto w = bench::make_workload("sugarbeet_like", genes, "futurework");
  bench::describe(w);

  // --- 1: dynamic self-scheduling vs chunked round-robin ---------------------
  std::printf("1) GraphFromFasta loop distribution (80 kernel repeats):\n");
  std::printf("%6s | %-18s %11s %11s %9s %9s\n", "nodes", "strategy", "loops_max",
              "loops_min", "max/min", "comm(s)");
  for (const int nranks : {4, 8, 16}) {
    for (const auto dist :
         {chrysalis::Distribution::kChunkedRoundRobin, chrysalis::Distribution::kDynamic}) {
      chrysalis::GraphFromFastaOptions options;
      options.k = bench::kK;
      options.kernel_repeats = 80;
      options.model_threads_per_rank = 1;
      options.distribution = dist;
      // Pooled: owner mode's loop 2 scans every contig on every rank, so
      // only the paper's scheme distributes loop 2 by contig.
      options.sharding = chrysalis::ShardingStrategy::kPooled;
      chrysalis::GffTiming timing;
      simpi::run(nranks, [&](simpi::Context& ctx) {
        const auto r = chrysalis::run_hybrid(ctx, w.contigs, w.counter, options);
        if (ctx.rank() == 0) timing = r.timing;
      });
      const double max_t = timing.loop1.max() + timing.loop2.max();
      const double min_t = timing.loop1.min() + timing.loop2.min();
      std::printf("%6d | %-18s %11.3f %11.3f %9.2f %9.4f\n", nranks,
                  dist == chrysalis::Distribution::kDynamic ? "dynamic (future)"
                                                            : "chunked-rr (paper)",
                  max_t, min_t, min_t > 0 ? max_t / min_t : 0.0, timing.comm_seconds);
    }
  }

  // --- 2: target-split vs read-split Bowtie --------------------------------------
  std::printf("\n2) Distributed Bowtie partitioning:\n");
  std::printf("%6s | %-22s %11s %11s %9s\n", "nodes", "split", "align_max", "align_min",
              "total(s)");
  align::AlignerOptions aopt;
  aopt.model_threads_per_rank = 1;
  const double pyfasta_model = static_cast<double>(seq::total_bases(w.contigs)) / 1.0e6;
  for (const int nranks : {4, 8, 16}) {
    for (const auto split : {align::BowtieSplit::kTargets, align::BowtieSplit::kReads}) {
      align::DistributedBowtieTiming timing;
      simpi::run(nranks, [&](simpi::Context& ctx) {
        const auto r =
            align::distributed_bowtie(ctx, w.contigs, w.dataset.reads.reads, aopt, split);
        if (ctx.rank() == 0) timing = r.timing;
      });
      const double split_cost =
          split == align::BowtieSplit::kTargets ? pyfasta_model : 0.0;
      std::printf("%6d | %-22s %11.3f %11.3f %9.3f\n", nranks,
                  split == align::BowtieSplit::kReads ? "reads (Bozdag-style)"
                                                      : "targets + PyFasta",
                  timing.align_seconds_max, timing.align_seconds_min,
                  split_cost + timing.align_seconds_max + timing.merge_seconds);
    }
  }

  std::printf("\nexpected shapes: dynamic narrows the max/min gap at a small RMA cost;\n"
              "read-split avoids the PyFasta overhead but pays the replicated index\n"
              "build.\n");
  return 0;
}
