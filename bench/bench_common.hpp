#pragma once
// Shared machinery for the figure benches.
//
// Every bench binary regenerates one table/figure from the paper's
// evaluation section (see DESIGN.md's experiment index). The workload is
// the `sugarbeet_like` preset unless a figure used a different dataset.
// Node counts are scaled from the paper's 16–192 iDataPlex nodes to simpi
// ranks {1..24}; times are virtual seconds on the simulated cluster
// (measured per-rank CPU work / modeled threads + alpha-beta comm model).
//
// The host CPU clock ticks at 10 ms, so per-contig kernels are repeated
// (`kernel_repeats`) to hold per-rank loop times well above the tick; this
// also restores a realistic per-item cost — the production Chrysalis
// kernels are far heavier than this reproduction's hash-based ones.

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "inchworm/inchworm.hpp"
#include "kmer/counter.hpp"
#include "pipeline/config.hpp"
#include "seq/fasta.hpp"
#include "sim/transcriptome.hpp"
#include "simpi/context.hpp"
#include "util/json.hpp"
#include "util/log.hpp"

namespace trinity::bench {

/// The shared bench flag spec: every figure bench gets --csv and --json
/// sinks plus the unified parse/--help/deprecation machinery; per-bench
/// flags are declared on the returned Config before parse_cli().
inline Config bench_config(const char* program, const char* description) {
  Config cfg(program, description);
  cfg.flag_string("csv", "", "also write the measured series as CSV to this path")
      .flag_string("json", "", "also write the series as one JSON document to this path");
  return cfg;
}

/// parse_cli + help/deprecation boilerplate; returns false when the bench
/// should exit (help shown or a ConfigError was printed, *exit_code set).
inline bool parse_or_exit(Config& cfg, int argc, const char* const* argv, int* exit_code) {
  try {
    cfg.parse_cli(argc, argv);
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    *exit_code = 2;
    return false;
  }
  if (cfg.help_requested()) {
    std::fputs(cfg.help_text().c_str(), stdout);
    *exit_code = 0;
    return false;
  }
  return true;
}

/// A prepared Chrysalis input: simulated reads, their k-mer counts, and the
/// Inchworm contigs, plus the reads written to disk for streaming stages.
struct Workload {
  sim::Dataset dataset;
  kmer::KmerCounter counter;
  std::vector<seq::Sequence> contigs;
  std::string work_dir;
  std::string reads_path;
};

inline constexpr int kK = 25;  // Trinity's default k

/// Builds the standard bench workload. `genes` scales the dataset.
inline Workload make_workload(const std::string& preset_name, std::size_t genes,
                              const std::string& tag) {
  auto preset = sim::preset(preset_name);
  if (genes > 0) preset.transcriptome.num_genes = genes;

  Workload w{sim::simulate_dataset(preset),
             kmer::KmerCounter([] {
               kmer::CounterOptions c;
               c.k = kK;
               return c;
             }()),
             {},
             "/tmp/trinity_bench_" + tag,
             ""};
  w.counter.add_sequences(w.dataset.reads.reads);

  inchworm::InchwormOptions io;
  io.k = kK;
  io.min_contig_length = kK;
  inchworm::Inchworm assembler(io);
  assembler.load_counts(w.counter.dump());
  w.contigs = assembler.assemble();

  std::filesystem::create_directories(w.work_dir);
  w.reads_path = w.work_dir + "/reads.fa";
  seq::write_fasta(w.reads_path, w.dataset.reads.reads);
  return w;
}

/// Aggregate communication/imbalance view of one simpi::run — the
/// comm-volume and skew columns the figure benches report next to their
/// timing series (semantics in docs/OBSERVABILITY.md).
struct CommSummary {
  std::uint64_t bytes_sent = 0;      ///< payload sent, summed over ranks and ops
  std::uint64_t bytes_received = 0;  ///< payload received, summed likewise
  double wait_seconds = 0.0;         ///< total time ranks sat blocked ("skew time")
  double skew = 1.0;                 ///< max/mean rank virtual time
};

inline CommSummary summarize_comm(const std::vector<simpi::RankResult>& ranks) {
  CommSummary s;
  for (const auto& r : ranks) {
    s.bytes_sent += r.comm.total_bytes_sent();
    s.bytes_received += r.comm.total_bytes_received();
    s.wait_seconds += r.comm.total_wait_seconds();
  }
  s.skew = simpi::skew_ratio(ranks);
  return s;
}

/// Optional CSV sink: when --csv <path> is given, figure benches also
/// write their series as plottable CSV.
class CsvSink {
 public:
  CsvSink(const Config& cfg, const std::string& header) {
    const auto path = cfg.get_string("csv");
    if (path.empty()) return;
    out_.open(path);
    if (out_) out_ << header << '\n';
  }
  template <typename... Ts>
  void row(const Ts&... values) {
    if (!out_.is_open()) return;
    bool first = true;
    ((out_ << (first ? "" : ",") << values, first = false), ...);
    out_ << '\n';
  }

 private:
  std::ofstream out_;
};

/// Optional JSON sink: when --json <path> is given, a bench also writes its
/// results as one machine-readable document,
///   {"bench": "<name>", "series": [{...}, ...]}
/// — one series entry per measured configuration, scalar fields only,
/// serialized by util::Json. The CSV sink stays the plotting format; JSON
/// is for the scripts that compare runs (scripts/check.sh and CI-style
/// regression diffing).
class JsonSink {
 public:
  JsonSink(const Config& cfg, std::string bench) : bench_(std::move(bench)) {
    const auto path = cfg.get_string("json");
    if (!path.empty()) out_.open(path);
  }

  ~JsonSink() {
    if (!out_.is_open()) return;
    util::Json series = util::Json::array();
    for (auto& entry : entries_) series.push_back(std::move(entry));
    util::Json doc = util::Json::object();
    doc.set("bench", bench_);
    doc.set("series", std::move(series));
    out_ << doc.dump() << '\n';
  }

  void begin_entry() { entries_.push_back(util::Json::object()); }
  void field(const char* name, const std::string& value) { set(name, value); }
  /// JSON has no inf or NaN: a non-finite value is written as null.
  void field(const char* name, double value) {
    set(name, std::isfinite(value) ? util::Json(value) : util::Json());
  }
  void field(const char* name, std::int64_t value) { set(name, value); }
  void field(const char* name, bool value) { set(name, value); }

 private:
  void set(const char* name, util::Json value) {
    if (entries_.empty()) begin_entry();
    entries_.back().set(name, std::move(value));
  }

  std::string bench_;
  std::vector<util::Json> entries_;
  std::ofstream out_;
};

/// Prints the bench banner: which paper artifact this regenerates.
inline void banner(const char* figure, const char* description) {
  std::printf("==================================================================\n");
  std::printf("%s — %s\n", figure, description);
  std::printf("==================================================================\n");
}

/// Prints the workload header line.
inline void describe(const Workload& w) {
  std::printf("workload: %zu reference isoforms, %zu reads, %zu Inchworm contigs (%zu bp)\n\n",
              w.dataset.transcriptome.transcripts.size(), w.dataset.reads.reads.size(),
              w.contigs.size(), seq::total_bases(w.contigs));
}

}  // namespace trinity::bench
