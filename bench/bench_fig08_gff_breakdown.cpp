// Figure 8 — "Breakdown of GraphFromFasta times showing the times taken in
// loop 1, 2 and non-parallel regions. All times are normalized to 100%."
//
// Paper shape: the two parallel loops account for 92.4% of GraphFromFasta
// at 16 nodes but the non-parallel regions (the shared-k-mer setup, weld
// pooling/dedup, pairing and clustering) grow to ~63% of the total at 128
// nodes — Amdahl's law in action; at 192 nodes loop-2 imbalance pushes the
// loop share back up.

#include "bench_common.hpp"
#include "chrysalis/graph_from_fasta.hpp"
#include "simpi/context.hpp"

int main(int argc, char** argv) {
  using namespace trinity;
  auto cfg = bench::bench_config("bench_fig08_gff_breakdown", "Figure 8: GraphFromFasta time breakdown, normalized to 100%");
  cfg.flag_int("genes", 400, "genes to simulate (scales the dataset)");
  cfg.flag_int("kernel-repeats", 60, "per-item kernel repeats (cost-model calibration)");
  cfg.flag_int("trials", 2, "trials per configuration (minimum kept)");
  int parse_exit = 0;
  if (!bench::parse_or_exit(cfg, argc, argv, &parse_exit)) return parse_exit;
  const auto genes = static_cast<std::size_t>(cfg.get_int("genes"));
  const int repeats = static_cast<int>(cfg.get_int("kernel-repeats"));

  bench::banner("Figure 8", "GraphFromFasta time breakdown, normalized to 100%");
  const auto w = bench::make_workload("sugarbeet_like", genes, "fig08");
  bench::describe(w);

  chrysalis::GraphFromFastaOptions options;
  options.k = bench::kK;
  options.kernel_repeats = repeats;
  // Pure node-count scaling: one modeled thread per rank keeps the
  // loop-to-serial time ratio consistent (the serial regions are not
  // divided by a thread count either).
  options.model_threads_per_rank = 1;
  // The paper's weld pooling (Section III.B), whose dedup and pairing are
  // part of the non-parallel share plotted here.
  options.sharding = chrysalis::ShardingStrategy::kPooled;

  bench::JsonSink json(cfg, "fig08_gff_breakdown");
  std::printf("%6s | %9s %9s %14s | %9s | %6s\n", "nodes", "loop1(%)", "loop2(%)",
              "nonparallel(%)", "total(s)", "skew");
  const int trials = static_cast<int>(cfg.get_int("trials"));
  for (const int nranks : {1, 2, 4, 8, 16, 24}) {
    chrysalis::GffTiming timing;
    bench::CommSummary comm;
    for (int trial = 0; trial < trials; ++trial) {
      chrysalis::GffTiming t;
      const auto ranks = simpi::run(nranks, [&](simpi::Context& ctx) {
        const auto r = chrysalis::run_hybrid(ctx, w.contigs, w.counter, options);
        if (ctx.rank() == 0) t = r.timing;
      });
      if (trial == 0 || t.total_seconds() < timing.total_seconds()) {
        timing = t;
        comm = bench::summarize_comm(ranks);
      }
    }
    const double total = timing.total_seconds();
    const double loop1 = timing.loop1.max() / total * 100.0;
    const double loop2 = timing.loop2.max() / total * 100.0;
    std::printf("%6d | %9.1f %9.1f %14.1f | %9.3f | %6.2f\n", nranks, loop1, loop2,
                100.0 - loop1 - loop2, total, comm.skew);
    json.begin_entry();
    json.field("nodes", static_cast<std::int64_t>(nranks));
    json.field("loop1_pct", loop1);
    json.field("loop2_pct", loop2);
    json.field("nonparallel_pct", 100.0 - loop1 - loop2);
    json.field("total_s", total);
    json.field("comm_bytes_received", static_cast<std::int64_t>(comm.bytes_received));
    json.field("comm_wait_s", comm.wait_seconds);
    json.field("skew_ratio", comm.skew);
  }
  std::printf("\npaper: loops = 92.4%% of the total at 16 nodes, falling to 36.7%% at 128\n"
              "nodes as the non-parallel share grows; the share of the loops rises again\n"
              "at 192 nodes due to loop-2 load imbalance.\n");
  return 0;
}
