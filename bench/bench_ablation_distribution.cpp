// Ablation — the design choices Section III narrates but does not plot:
//
//  1. GraphFromFasta distribution: the paper first "pre-allocated chunks of
//     Inchworm contigs to each MPI process" (contiguous blocks), which
//     "did not give us a good speedup", then switched to chunked
//     round-robin. This bench measures both under the same workload: the
//     block scheme concentrates the long contigs (and the weld-dense
//     regions) on few ranks, inflating the max/min rank-time ratio.
//
//  2. ReadsToTranscripts chunk distribution: the first design had a master
//     rank read and ship chunks to slaves ("relatively heavy
//     communications ... which leads to a bottleneck particularly as the
//     number of slave nodes increases"); the final design streams
//     redundantly on every rank with zero communication. This bench
//     compares the two strategies' loop times and communication costs.

#include "bench_common.hpp"
#include "chrysalis/graph_from_fasta.hpp"
#include "chrysalis/reads_to_transcripts.hpp"
#include "simpi/context.hpp"

int main(int argc, char** argv) {
  using namespace trinity;
  auto cfg = bench::bench_config("bench_ablation_distribution", "Ablation: distribution strategies the paper tried and discarded");
  cfg.flag_int("genes", 400, "genes to simulate (scales the dataset)");
  int parse_exit = 0;
  if (!bench::parse_or_exit(cfg, argc, argv, &parse_exit)) return parse_exit;
  const auto genes = static_cast<std::size_t>(cfg.get_int("genes"));

  bench::banner("Ablation", "distribution strategies the paper tried and discarded");
  const auto w = bench::make_workload("sugarbeet_like", genes, "ablation");
  bench::describe(w);

  // --- 1: chunked round-robin vs pre-allocated blocks in GraphFromFasta ----
  std::printf("GraphFromFasta distribution (loop1+loop2 per rank, %d kernel repeats):\n", 80);
  std::printf("%6s | %-18s %11s %11s %11s\n", "nodes", "strategy", "max(s)", "min(s)",
              "max/min");
  for (const int nranks : {4, 8, 16}) {
    for (const auto dist :
         {chrysalis::Distribution::kChunkedRoundRobin, chrysalis::Distribution::kBlock}) {
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
      std::printf("%6d | %-18s %11.3f %11.3f %11.2f\n", nranks,
                  dist == chrysalis::Distribution::kBlock ? "block (discarded)"
                                                          : "chunked-rr (final)",
                  max_t, min_t, min_t > 0 ? max_t / min_t : 0.0);
    }
  }

  // --- 2: redundant streaming vs master/slave in ReadsToTranscripts ---------
  chrysalis::GraphFromFastaOptions gff;
  gff.k = bench::kK;
  const auto components = chrysalis::run_shared(w.contigs, w.counter, gff).components;

  std::printf("\nReadsToTranscripts chunk distribution:\n");
  std::printf("%6s | %-24s %11s %11s %11s\n", "nodes", "strategy", "loop_max(s)", "comm(s)",
              "total(s)");
  for (const int nranks : {2, 4, 8}) {
    for (const auto strategy :
         {chrysalis::R2TStrategy::kRedundantStreaming, chrysalis::R2TStrategy::kMasterSlave}) {
      chrysalis::ReadsToTranscriptsOptions options;
      options.k = bench::kK;
      options.max_mem_reads = 20000;
      options.kernel_repeats = 6;
      options.model_threads_per_rank = 1;
      options.strategy = strategy;
      chrysalis::R2TTiming timing;
      simpi::run(nranks, [&](simpi::Context& ctx) {
        const auto r = chrysalis::run_hybrid(ctx, w.contigs, components, w.reads_path,
                                             options, w.work_dir);
        if (ctx.rank() == 0) timing = r.timing;
      });
      std::printf("%6d | %-24s %11.3f %11.3f %11.3f\n", nranks,
                  strategy == chrysalis::R2TStrategy::kMasterSlave
                      ? "master/slave (discarded)"
                      : "redundant (final)",
                  timing.main_loop.max(), timing.comm_seconds, timing.total_seconds());
    }
  }
  std::printf("\npaper: block pre-allocation was discarded for poor speedup; master/slave\n"
              "was discarded for its communication bottleneck as slave counts grow.\n");
  return 0;
}
