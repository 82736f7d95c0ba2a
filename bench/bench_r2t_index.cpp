// Microbenchmark for index mode: the persistent TranscriptIndex (an mmap
// image of the k-mer -> bundle vote map) vs building that map per run, on
// the fig09 workload. Three setup costs are measured (host wall time, best of
// --repeats): the voting map built from scratch (what every vote-mode run
// pays), a cold index build (+ serialize to disk), and a warm mmap load of
// the serialized index (what every later index-mode run pays instead).
//
// The gate is the warm path: --min-speedup (default 1.0) fails the binary
// unless vote_setup / warm_load reaches the threshold — the point of
// persisting the index is that repeat runs skip the setup region entirely.
// Assignment parity is asserted first (run_shared in vote mode vs a warm
// index-mode run over the same reads must agree byte-for-byte, and the
// warm run must report index_source "mmap" with a zero build time), so the
// speedup can never come from computing something different.
//
// By default the series is written to BENCH_r2t_index.json in the working
// directory ({"bench":"r2t_index","series":[...]}), the scripts/check.sh
// perf-gate artifact.

#include <chrono>
#include <cstring>
#include <vector>

#include "bench_common.hpp"
#include "chrysalis/graph_from_fasta.hpp"
#include "chrysalis/reads_to_transcripts.hpp"
#include "chrysalis/transcript_index.hpp"

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool same_assignments(const std::vector<trinity::chrysalis::ReadAssignment>& a,
                      const std::vector<trinity::chrysalis::ReadAssignment>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(),
                      a.size() * sizeof(trinity::chrysalis::ReadAssignment)) == 0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace trinity;
  Config cfg("bench_r2t_index",
             "mmapped TranscriptIndex vs per-run voting-map setup");
  cfg.flag_int("genes", 400, "genes to simulate (scales the dataset)")
      .flag_int("repeats", 5, "timed repetitions per setup path (minimum kept)")
      .flag_double("min-speedup", 1.0,
                   "fail (exit 1) unless vote_setup / warm_mmap_load reaches this; "
                   "0 disables the gate")
      .flag_string("csv", "", "also write the measured series as CSV to this path")
      .flag_string("json", "BENCH_r2t_index.json",
                   "write the series as one JSON document to this path");
  int parse_exit = 0;
  if (!bench::parse_or_exit(cfg, argc, argv, &parse_exit)) return parse_exit;

  bench::banner("r2t-index", "mmapped TranscriptIndex vs per-run voting-map setup");
  const auto genes = static_cast<std::size_t>(cfg.get_int("genes"));
  const int repeats = static_cast<int>(cfg.get_int("repeats"));
  const auto w = bench::make_workload("sugarbeet_like", genes, "r2t_index");
  bench::describe(w);

  chrysalis::GraphFromFastaOptions gff;
  gff.k = bench::kK;
  const auto components = chrysalis::run_shared(w.contigs, w.counter, gff).components;
  const std::string index_path = w.work_dir + "/transcript_index.bin";

  // --- setup-cost passes (best of N) ---------------------------------------
  double t_vote_setup = 0.0, t_build = 0.0, t_load = 0.0;
  std::size_t map_entries = 0, index_entries = 0, image_bytes = 0;
  for (int rep = 0; rep < repeats; ++rep) {
    double t0 = now_seconds();
    const auto map = chrysalis::build_bundle_kmer_map(w.contigs, components, bench::kK);
    const double vote = now_seconds() - t0;
    map_entries = map.size();

    t0 = now_seconds();
    const auto built = chrysalis::TranscriptIndex::build(w.contigs, components, bench::kK);
    built.save(index_path);
    const double build = now_seconds() - t0;

    t0 = now_seconds();
    const auto loaded = chrysalis::TranscriptIndex::load(index_path);
    const double load = now_seconds() - t0;
    index_entries = loaded.num_kmers();
    image_bytes = loaded.image_bytes();

    if (rep == 0 || vote < t_vote_setup) t_vote_setup = vote;
    if (rep == 0 || build < t_build) t_build = build;
    if (rep == 0 || load < t_load) t_load = load;
  }
  if (index_entries != map_entries) {
    std::fprintf(stderr, "bench_r2t_index: index holds %zu k-mers, voting map %zu\n",
                 index_entries, map_entries);
    return 1;
  }

  // --- end-to-end parity: vote mode vs a warm index-mode run ---------------
  chrysalis::ReadsToTranscriptsOptions options;
  options.k = bench::kK;
  options.max_mem_reads = 20000;
  const auto vote_run =
      chrysalis::run_shared(w.contigs, components, w.reads_path, options);
  options.mode = chrysalis::R2TMode::kIndex;
  options.index_path = index_path;  // present on disk: kAuto warm-loads it
  const auto index_run =
      chrysalis::run_shared(w.contigs, components, w.reads_path, options, w.work_dir);
  if (!same_assignments(vote_run.assignments, index_run.assignments)) {
    std::fprintf(stderr, "bench_r2t_index: index mode changed the assignments\n");
    return 1;
  }
  if (index_run.timing.index_source != "mmap" ||
      index_run.timing.index_build_seconds != 0.0) {
    std::fprintf(stderr,
                 "bench_r2t_index: warm run did not mmap-load (source '%s', build %.3fs)\n",
                 index_run.timing.index_source.c_str(),
                 index_run.timing.index_build_seconds);
    return 1;
  }
  const double cold_speedup = t_vote_setup / std::max(t_build, 1e-9);
  const double warm_speedup = t_vote_setup / std::max(t_load, 1e-9);

  bench::CsvSink csv(cfg, "path,setup_s,entries,speedup_vs_vote");
  bench::JsonSink json(cfg, "r2t_index");
  std::printf("%12s | %10s | %10s | %10s\n", "path", "setup(s)", "entries", "vs vote");
  struct Row {
    const char* path;
    double seconds;
    double speedup;
  };
  for (const Row& row : {Row{"vote_setup", t_vote_setup, 1.0},
                         Row{"index_build", t_build, cold_speedup},
                         Row{"mmap_load", t_load, warm_speedup}}) {
    std::printf("%12s | %10.4f | %10zu | %9.2fx\n", row.path, row.seconds, index_entries,
                row.speedup);
    csv.row(row.path, row.seconds, index_entries, row.speedup);
    json.begin_entry();
    json.field("path", std::string(row.path));
    json.field("setup_s", row.seconds);
    json.field("entries", static_cast<std::int64_t>(index_entries));
    json.field("image_bytes", static_cast<std::int64_t>(image_bytes));
    json.field("speedup_vs_vote", row.speedup);
  }
  std::printf("\nvote setup %.4fs | cold build+save %.4fs (%.2fx) | warm mmap load %.4fs "
              "(%.2fx); %zu k-mers, %.1f MiB on disk\n",
              t_vote_setup, t_build, cold_speedup, t_load, warm_speedup, index_entries,
              static_cast<double>(image_bytes) / (1024.0 * 1024.0));

  const double min_speedup = cfg.get_double("min-speedup");
  if (min_speedup > 0.0 && warm_speedup < min_speedup) {
    std::fprintf(stderr,
                 "bench_r2t_index: warm-load speedup %.2fx is below --min-speedup %.2f\n",
                 warm_speedup, min_speedup);
    return 1;
  }
  return 0;
}
