// Figure 7 — "Results of parallel (MPI+OpenMP) GraphFromFasta
// implementation showing the time taken in the loops and the total time
// taken in GraphFromFasta with increasing number of nodes."
//
// Paper series: loop 1 and loop 2 times (lowest and highest rank, as a
// measure of load imbalance) plus the total GraphFromFasta time, for
// 16..192 nodes of 16 threads. Here: simpi ranks 1..24, 16 modeled threads
// per rank, on the sugarbeet_like workload. Expected shape (paper §V.A):
// both loops speed up with rank count; loop 2 suffers visible max/min
// imbalance at high rank counts; total time speeds up less than the loops
// because the non-parallel regions grow in share (Figure 8).
//
// Each rank count is measured once per ShardingStrategy — pooled (the
// paper's blocking weld Allgatherv) and owner (blocking alltoallv weld
// routing, then a distributed union-find) — and both modes must produce
// identical components (asserted; exit 1 on mismatch). The JSON series
// carries both modes with the Allgatherv and Alltoallv waits and the weld
// exchange's pool_wait_s, so the owner mode's traffic reduction is directly
// diffable.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "bench_common.hpp"
#include "chrysalis/graph_from_fasta.hpp"
#include "simpi/context.hpp"

namespace {

/// Sum of the per-rank wall time blocked in a collective's waits.
double op_wait(const std::vector<trinity::simpi::RankResult>& ranks,
               trinity::simpi::CommOp op) {
  double total = 0.0;
  for (const auto& r : ranks) total += r.comm.of(op).wait_seconds;
  return total;
}

/// One trial's measurements of a (ranks, sharding) configuration.
struct Trial {
  double loop1_max, loop1_min, loop2_max, loop2_min, total;
  double comm_wait, ag_wait, a2a_wait, pool_wait, skew;
};

/// The median over trials of one measurement (the mean of the middle two
/// for an even count).
double median_of(const std::vector<Trial>& trials, double Trial::*field) {
  std::vector<double> v;
  for (const auto& t : trials) v.push_back(t.*field);
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace trinity;
  auto cfg = bench::bench_config("bench_fig07_gff_scaling", "Figure 7: hybrid GraphFromFasta scaling (sugarbeet workload)");
  cfg.flag_int("genes", 400, "genes to simulate (scales the dataset)");
  cfg.flag_int("kernel-repeats", 100, "per-item kernel repeats (cost-model calibration)");
  cfg.flag_int("trials", 3, "trials per configuration (each row reports their median)");
  int parse_exit = 0;
  if (!bench::parse_or_exit(cfg, argc, argv, &parse_exit)) return parse_exit;
  const auto genes = static_cast<std::size_t>(cfg.get_int("genes"));
  const int repeats = static_cast<int>(cfg.get_int("kernel-repeats"));

  bench::banner("Figure 7", "hybrid GraphFromFasta scaling (sugarbeet workload)");
  const auto w = bench::make_workload("sugarbeet_like", genes, "fig07");
  bench::describe(w);

  chrysalis::GraphFromFastaOptions options;
  options.k = bench::kK;
  options.kernel_repeats = repeats;
  // Pure node-count scaling: one modeled thread per rank keeps the
  // loop-to-serial time ratio consistent (the serial regions are not
  // divided by a thread count either).
  options.model_threads_per_rank = 1;

  bench::CsvSink csv(
      cfg,
      "nodes,sharding,loop1_max,loop1_min,loop2_max,loop2_min,total,speedup,"
      "comm_bytes,allgatherv_wait,alltoallv_wait,skew");
  bench::JsonSink json(cfg, "fig07_gff_scaling");
  std::printf("%6s %8s | %11s %11s | %11s %11s | %11s | %8s | %10s %9s %6s\n", "nodes",
              "sharding", "loop1_max", "loop1_min", "loop2_max", "loop2_min", "total(s)",
              "speedup", "comm(B)", "ag_wait", "skew");
  const int trials = static_cast<int>(cfg.get_int("trials"));
  if (trials < 1) throw ConfigError("trials", "must be at least 1");
  double base_total = 0.0;
  for (const int nranks : {1, 2, 4, 8, 16, 24}) {
    std::vector<std::int32_t> reference_components;  // from the pooled run
    for (const auto sharding :
         {chrysalis::ShardingStrategy::kPooled, chrysalis::ShardingStrategy::kOwner}) {
      options.sharding = sharding;
      const char* mode = chrysalis::to_string(sharding);
      // Median of N trials: rank threads oversubscribe the host, and a
      // descheduled thread's CPU clock picks up scheduler noise in either
      // direction. The communication volume is the same in every trial.
      std::vector<Trial> samples;
      bench::CommSummary comm;
      std::vector<std::int32_t> components;
      for (int trial = 0; trial < trials; ++trial) {
        chrysalis::GffTiming t;
        std::vector<std::int32_t> c;
        const auto ranks = simpi::run(nranks, [&](simpi::Context& ctx) {
          const auto r = chrysalis::run_hybrid(ctx, w.contigs, w.counter, options);
          if (ctx.rank() == 0) {
            t = r.timing;
            c = r.components.component_of;
          }
        });
        comm = bench::summarize_comm(ranks);
        samples.push_back({t.loop1.max(), t.loop1.min(), t.loop2.max(), t.loop2.min(),
                           t.total_seconds(), comm.wait_seconds,
                           op_wait(ranks, simpi::CommOp::kAllgatherv),
                           op_wait(ranks, simpi::CommOp::kAlltoallv), t.pool_wait_seconds,
                           comm.skew});
        components = std::move(c);
      }
      const auto med = [&](double Trial::*field) { return median_of(samples, field); };
      const double total = med(&Trial::total);
      // Owner-sharding the weld exchange may not change the clustering:
      // both modes are asserted bit-identical on the contig -> component
      // table.
      if (sharding == chrysalis::ShardingStrategy::kPooled) {
        reference_components = components;
      } else if (components != reference_components) {
        std::fprintf(stderr,
                     "bench_fig07: sharding=%s changed the components at %d ranks\n",
                     mode, nranks);
        return 1;
      }
      if (nranks == 1 && sharding == chrysalis::ShardingStrategy::kPooled) base_total = total;
      std::printf(
          "%6d %8s | %11.3f %11.3f | %11.3f %11.3f | %11.3f | %7.2fx | %10llu %9.3f %6.2f\n",
          nranks, mode, med(&Trial::loop1_max), med(&Trial::loop1_min),
          med(&Trial::loop2_max), med(&Trial::loop2_min), total, base_total / total,
          static_cast<unsigned long long>(comm.bytes_received), med(&Trial::ag_wait),
          med(&Trial::skew));
      csv.row(nranks, mode, med(&Trial::loop1_max), med(&Trial::loop1_min),
              med(&Trial::loop2_max), med(&Trial::loop2_min), total, base_total / total,
              comm.bytes_received, med(&Trial::ag_wait), med(&Trial::a2a_wait),
              med(&Trial::skew));
      json.begin_entry();
      json.field("nodes", static_cast<std::int64_t>(nranks));
      json.field("sharding", std::string(mode));
      json.field("trials", static_cast<std::int64_t>(trials));
      json.field("loop1_max", med(&Trial::loop1_max));
      json.field("loop1_min", med(&Trial::loop1_min));
      json.field("loop2_max", med(&Trial::loop2_max));
      json.field("loop2_min", med(&Trial::loop2_min));
      json.field("total_s", total);
      json.field("speedup", base_total / total);
      json.field("comm_bytes_sent", static_cast<std::int64_t>(comm.bytes_sent));
      json.field("comm_bytes_received", static_cast<std::int64_t>(comm.bytes_received));
      json.field("comm_wait_s", med(&Trial::comm_wait));
      json.field("allgatherv_wait_s", med(&Trial::ag_wait));
      json.field("alltoallv_wait_s", med(&Trial::a2a_wait));
      json.field("pool_wait_s", med(&Trial::pool_wait));
      json.field("skew_ratio", med(&Trial::skew));
    }
  }
  std::printf("\npaper: loops speed up ~8-12x over the node range; total GraphFromFasta\n"
              "4.5x@16 -> 20.7x@192 nodes vs the 1-node OpenMP baseline; load imbalance\n"
              "(max vs min rank) grows with node count, worst in loop 2. sharding=owner\n"
              "routes welds point-to-point instead of pooling (identical output).\n");
  return 0;
}
