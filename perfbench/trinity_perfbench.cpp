// trinity_perfbench: the compiled half of the end-to-end benchmark. run.py
// generates inputs and checks outputs; this program calls the Trinity
// libraries and prints one JSON object per command on stdout.
//
//   trinity_perfbench simulate --preset NAME --seed N --out DIR
//       Simulates the preset's transcriptome (always the preset's own) and
//       reads whose expression levels and sampling come from N; N = 0 gives
//       exactly sim::simulate_dataset(preset). Writes DIR/reads.fa (the only
//       file the assembler sees), DIR/reference.fa (the true isoforms) and
//       DIR/genes.tsv (gene id and reads sampled per isoform).
//   trinity_perfbench assemble --reads FA --work DIR --nranks R [--run-seed S]
//                             [--trace]
//       One timed run_pipeline call in DIR/pipeline, then the k-mer
//       recovery check of its transcripts against the truth next to FA.
//       --trace then rebuilds the same stage sequence from the layers'
//       public functions in DIR/traced, timing each call (per-layer metrics).
//   trinity_perfbench validate --transcripts FA --original FA --truth DIR
//       The Section-IV comparisons, timed: compare_to_reference against the
//       truth in DIR (Figs 5/6) and all_to_all_categories against the
//       "original" run's transcripts (Fig 4).
//
// Times are measured here, with steady_clock (wall) and the process CPU
// clock around library calls; no span inside the program is read.

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "align/aligner.hpp"
#include "align/mpi_bowtie.hpp"
#include "butterfly/butterfly.hpp"
#include "checkpoint/manifest.hpp"
#include "chrysalis/components_io.hpp"
#include "chrysalis/graph_from_fasta.hpp"
#include "chrysalis/reads_to_transcripts.hpp"
#include "chrysalis/scaffold.hpp"
#include "inchworm/inchworm.hpp"
#include "kmer/counter.hpp"
#include "pipeline/trinity_pipeline.hpp"
#include "seq/fasta.hpp"
#include "sim/transcriptome.hpp"
#include "simpi/context.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"
#include "validate/validate.hpp"

namespace fs = std::filesystem;
using namespace trinity;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// "--key value" pairs and bare "--flag"s after the command word.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) throw std::invalid_argument("unexpected argument " + key);
      key = key.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "";
      }
    }
  }
  [[nodiscard]] bool has(const std::string& key) const { return values_.count(key) != 0; }
  [[nodiscard]] std::string get(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) throw std::invalid_argument("missing --" + key);
    return it->second;
  }
  [[nodiscard]] long long get_int(const std::string& key, long long fallback) const {
    return has(key) ? std::stoll(get(key)) : fallback;
  }

 private:
  std::map<std::string, std::string> values_;
};

// --- simulate ----------------------------------------------------------------

int cmd_simulate(const Args& args) {
  const auto preset = sim::preset(args.get("preset"));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 0));
  const fs::path out = args.get("out");
  fs::create_directories(out);

  const auto start = Clock::now();
  util::Rng rng(preset.seed);
  sim::Dataset data;
  data.transcriptome = sim::simulate_transcriptome(preset.transcriptome, rng);
  if (seed != 0) rng = util::Rng(preset.seed ^ (seed * 0x9e3779b97f4a7c15ULL));
  data.reads = sim::simulate_reads(data.transcriptome, preset.reads, rng);
  const double simulate_s = seconds_since(start);

  seq::write_fasta((out / "reads.fa").string(), data.reads.reads);
  seq::write_fasta((out / "reference.fa").string(), data.transcriptome.transcripts);
  std::vector<std::size_t> reads_of(data.transcriptome.transcripts.size(), 0);
  for (const auto t : data.reads.transcript_of_read) ++reads_of[static_cast<std::size_t>(t)];
  std::ofstream genes(out / "genes.tsv");
  for (std::size_t i = 0; i < data.transcriptome.transcripts.size(); ++i) {
    genes << data.transcriptome.transcripts[i].name << '\t'
          << data.transcriptome.gene_of_transcript[i] << '\t' << reads_of[i] << '\n';
  }
  if (!genes.flush()) throw std::runtime_error("cannot write genes.tsv");

  util::Json json = util::Json::object();
  json.set("simulate_s", simulate_s);
  json.set("reads", data.reads.reads.size());
  json.set("isoforms", data.transcriptome.transcripts.size());
  json.set("genes", data.transcriptome.genes.size());
  std::cout << json.dump() << std::endl;
  return 0;
}

// --- the traced stage sequence -----------------------------------------------

/// Wall seconds per layer, accumulated from the spans the benchmark wraps
/// around each library call.
class LayerSpans {
 public:
  template <class F>
  void time(const std::string& layer, F&& body) {
    const auto start = Clock::now();
    body();
    seconds_[layer] += seconds_since(start);
  }
  [[nodiscard]] double operator[](const std::string& layer) const {
    const auto it = seconds_.find(layer);
    return it == seconds_.end() ? 0.0 : it->second;
  }
  [[nodiscard]] double total() const {
    double sum = 0.0;
    for (const auto& [layer, s] : seconds_) sum += s;
    return sum;
  }

 private:
  std::map<std::string, double> seconds_;
};

/// The simpi RankResults of one hybrid stage, reduced to layer metrics.
void put_simpi(util::Json& json, const std::string& stage,
               const std::vector<simpi::RankResult>& ranks) {
  std::uint64_t bytes = 0, calls = 0;
  double wait = 0.0, virtual_max = 0.0;
  for (const auto& r : ranks) {
    bytes += r.comm.total_bytes_sent();
    calls += r.comm.total_calls();
    wait += r.comm.total_wait_seconds();
    virtual_max = std::max(virtual_max, r.virtual_seconds());
  }
  const std::string prefix = "simpi." + stage + ".";
  json.set(prefix + "bytes", bytes);
  json.set(prefix + "calls", calls);
  json.set(prefix + "wait_s", wait);
  json.set(prefix + "skew", simpi::skew_ratio(ranks));
  json.set(prefix + "virtual_s", virtual_max);
}

/// Rebuilds run_pipeline's stage sequence (write_input, jellyfish, inchworm,
/// chrysalis.bowtie, scaffold, chrysalis.graph_from_fasta,
/// chrysalis.reads_to_transcripts, butterfly) from the layers' public
/// functions, with the same options, artifacts and checkpoint hashing.
/// Artifact writes are timed as the io layer; a hybrid stage's SAM is
/// written after its world joins rather than from rank 0 inside it.
void traced_assembly(const std::vector<seq::Sequence>& reads,
                     const pipeline::PipelineOptions& options, const std::string& work,
                     util::Json& json) {
  fs::create_directories(work);
  LayerSpans spans;
  std::uint64_t bytes_written = 0, bytes_hashed = 0;
  const auto write = [&](const std::string& rel, const std::function<void()>& body) {
    spans.time("io", body);
    bytes_written += fs::file_size(fs::path(work) / rel);
  };
  const auto hash_artifacts = [&](const std::vector<std::string>& artifacts) {
    spans.time("checkpoint", [&] {
      for (const auto& rel : artifacts) {
        bytes_hashed += checkpoint::capture_artifact(work, rel).bytes;
      }
    });
  };
  const std::string reads_path = work + "/reads.fa";
  const bool hybrid = options.nranks > 1;
  std::vector<simpi::RankResult> bowtie_ranks, gff_ranks, r2t_ranks;

  const auto start = Clock::now();

  write("reads.fa", [&] { seq::write_fasta(reads_path, reads); });
  hash_artifacts({"reads.fa"});

  // Jellyfish.
  kmer::CounterOptions counter_options;
  counter_options.k = options.k;
  counter_options.canonical = true;
  counter_options.num_threads = options.omp_threads;
  kmer::KmerCounter counter(counter_options);
  std::vector<kmer::KmerCount> counts;
  spans.time("kmer.count", [&] { counter.add_sequences(reads); });
  spans.time("kmer.dump", [&] { counts = counter.dump(); });
  write("kmers.bin", [&] { kmer::write_dump_binary(work + "/kmers.bin", counts, options.k); });
  hash_artifacts({"reads.fa", "kmers.bin"});

  // Inchworm.
  std::vector<seq::Sequence> contigs;
  spans.time("inchworm", [&] {
    inchworm::InchwormOptions iw;
    iw.k = options.k;
    iw.min_kmer_count = options.min_kmer_count;
    iw.min_contig_length = static_cast<std::size_t>(options.k);
    iw.tie_break_seed = options.run_seed;
    inchworm::Inchworm assembler(iw);
    assembler.load_counts(counts);
    contigs = assembler.assemble();
  });
  write("inchworm.fa", [&] { seq::write_fasta(work + "/inchworm.fa", contigs); });
  hash_artifacts({"kmers.bin", "inchworm.fa"});

  // Chrysalis: Bowtie.
  align::AlignerOptions aligner_options;
  aligner_options.num_threads = options.omp_threads;
  aligner_options.kernel_repeats = options.bowtie_kernel_repeats;
  aligner_options.model_threads_per_rank = options.model_threads_per_rank;
  std::vector<align::SamRecord> sam;
  double bowtie_virtual = 0.0;
  spans.time("align", [&] {
    if (!hybrid) {
      const auto cpu_start = util::thread_cpu_seconds();
      const align::ContigIndex index(contigs, aligner_options);
      const align::SeedExtendAligner aligner(index);
      sam = aligner.align_all(reads);
      bowtie_virtual = (util::thread_cpu_seconds() - cpu_start) /
                       static_cast<double>(std::max(options.model_threads_per_rank, 1));
    } else {
      bowtie_ranks = simpi::run(
          options.nranks,
          [&](simpi::Context& ctx) {
            auto dist = align::distributed_bowtie(ctx, contigs, reads, aligner_options,
                                                  options.bowtie_split);
            if (ctx.rank() == 0) {
              sam = std::move(dist.records);
              bowtie_virtual = dist.timing.total_seconds();
            }
          },
          options.comm);
    }
  });
  write("bowtie.sam", [&] { align::write_sam(work + "/bowtie.sam", sam, contigs); });
  hash_artifacts({"inchworm.fa", "reads.fa", "bowtie.sam"});
  std::size_t aligned = 0;
  for (const auto& r : sam) aligned += r.aligned() ? 1 : 0;

  // Chrysalis: scaffolding pairs, then GraphFromFasta.
  std::vector<chrysalis::ContigPair> scaffold;
  if (options.bowtie_scaffolding) {
    spans.time("chrysalis.scaffold", [&] {
      scaffold = chrysalis::scaffold_pairs(sam, contigs, chrysalis::ScaffoldOptions{});
    });
  }
  chrysalis::GraphFromFastaOptions gff;
  gff.k = options.k;
  gff.min_weld_support = options.min_weld_support;
  gff.omp_threads = options.omp_threads;
  gff.model_threads_per_rank = options.model_threads_per_rank;
  gff.kernel_repeats = options.gff_kernel_repeats;
  gff.distribution = options.gff_distribution;
  gff.sharding = options.gff_sharding;
  chrysalis::ComponentSet components;
  double gff_virtual = 0.0;
  spans.time("chrysalis.gff", [&] {
    if (!hybrid) {
      auto r = chrysalis::run_shared(contigs, counter, gff, scaffold);
      components = std::move(r.components);
      gff_virtual = r.timing.total_seconds();
    } else {
      gff_ranks = simpi::run(
          options.nranks,
          [&](simpi::Context& ctx) {
            auto r = chrysalis::run_hybrid(ctx, contigs, counter, gff, scaffold);
            if (ctx.rank() == 0) {
              components = std::move(r.components);
              gff_virtual = r.timing.total_seconds();
            }
          },
          options.comm);
    }
  });
  write("components.txt",
        [&] { chrysalis::write_components(work + "/components.txt", components); });
  hash_artifacts({"inchworm.fa", "kmers.bin", "bowtie.sam", "components.txt"});

  // Chrysalis: ReadsToTranscripts (writes its own merged output file).
  chrysalis::ReadsToTranscriptsOptions r2t;
  r2t.k = options.k;
  r2t.max_mem_reads = options.max_mem_reads;
  r2t.omp_threads = options.omp_threads;
  r2t.model_threads_per_rank = options.model_threads_per_rank;
  r2t.kernel_repeats = options.r2t_kernel_repeats;
  r2t.strategy = options.r2t_strategy;
  r2t.output_mode = options.r2t_output_mode;
  r2t.parse_policy = options.parse_policy;
  r2t.mode = options.r2t_mode;
  r2t.index_lifecycle = options.r2t_index;
  if (options.r2t_mode == chrysalis::R2TMode::kIndex) {
    r2t.index_path = work + "/transcript_index.bin";
  }
  std::vector<chrysalis::ReadAssignment> assignments;
  double r2t_virtual = 0.0;
  spans.time("chrysalis.r2t", [&] {
    if (!hybrid) {
      auto r = chrysalis::run_shared(contigs, components, reads_path, r2t, work);
      assignments = std::move(r.assignments);
      r2t_virtual = r.timing.total_seconds();
    } else {
      r2t_ranks = simpi::run(
          options.nranks,
          [&](simpi::Context& ctx) {
            auto r = chrysalis::run_hybrid(ctx, contigs, components, reads_path, r2t, work);
            if (ctx.rank() == 0) {
              assignments = std::move(r.assignments);
              r2t_virtual = r.timing.total_seconds();
            }
          },
          options.comm);
    }
  });
  hash_artifacts({"inchworm.fa", "components.txt", "reads.fa", "readsToComponents.out.tsv"});
  std::size_t assigned = 0;
  for (const auto& a : assignments) assigned += a.component >= 0 ? 1 : 0;

  // Butterfly.
  std::vector<seq::Sequence> transcripts;
  spans.time("butterfly", [&] {
    butterfly::ButterflyOptions bf;
    bf.k = options.k;
    bf.tie_break_seed = options.run_seed;
    bf.min_node_support = options.butterfly_min_node_support;
    bf.require_paired_support = options.butterfly_require_paired_support;
    transcripts = butterfly::run_butterfly(contigs, components, assignments, reads, bf);
  });
  write("Trinity.fa", [&] { seq::write_fasta(work + "/Trinity.fa", transcripts); });
  hash_artifacts({"inchworm.fa", "components.txt", "readsToComponents.out.tsv", "reads.fa",
              "Trinity.fa"});

  const double total = seconds_since(start);
  const double count_s = spans["kmer.count"];
  json.set("traced_s", total);
  json.set("kmer.count_s", count_s);
  json.set("kmer.dump_s", spans["kmer.dump"]);
  json.set("kmer.distinct", counter.distinct());
  json.set("kmer.kmers_per_s", static_cast<double>(counter.total()) / count_s);
  json.set("inchworm.assemble_s", spans["inchworm"]);
  json.set("inchworm.contigs", contigs.size());
  json.set("align.bowtie_s", spans["align"]);
  json.set("align.aligned_ratio", static_cast<double>(aligned) /
                                     static_cast<double>(std::max<std::size_t>(sam.size(), 1)));
  json.set("chrysalis.scaffold_s", spans["chrysalis.scaffold"]);
  json.set("chrysalis.gff_s", spans["chrysalis.gff"]);
  json.set("chrysalis.components", components.num_components());
  json.set("chrysalis.r2t_s", spans["chrysalis.r2t"]);
  json.set("chrysalis.r2t_assigned_ratio",
           static_cast<double>(assigned) /
               static_cast<double>(std::max<std::size_t>(reads.size(), 1)));
  put_simpi(json, "bowtie", bowtie_ranks);
  put_simpi(json, "gff", gff_ranks);
  put_simpi(json, "r2t", r2t_ranks);
  json.set("chrysalis.virtual_s", bowtie_virtual + gff_virtual + r2t_virtual);
  json.set("butterfly.s", spans["butterfly"]);
  json.set("butterfly.transcripts", transcripts.size());
  json.set("checkpoint.hash_s", spans["checkpoint"]);
  json.set("checkpoint.bytes", bytes_hashed);
  json.set("io.write_s", spans["io"]);
  json.set("io.bytes_written", bytes_written);
  json.set("trace.unattributed_s", total - spans.total());
}

// --- assemble and validate ---------------------------------------------------

/// The simulator's truth, as written by `simulate` next to reads.fa.
struct Truth {
  std::vector<seq::Sequence> reference;  ///< every isoform
  std::vector<std::int32_t> gene_of;     ///< gene id per isoform
  std::vector<std::size_t> reads_of;     ///< reads sampled per isoform
};

Truth read_truth(const fs::path& dir) {
  Truth truth;
  truth.reference = seq::read_all((dir / "reference.fa").string());
  std::ifstream in(dir / "genes.tsv");
  std::string name;
  std::int32_t gene = 0;
  std::size_t reads = 0;
  while (in >> name >> gene >> reads) {
    truth.gene_of.push_back(gene);
    truth.reads_of.push_back(reads);
  }
  if (truth.gene_of.size() != truth.reference.size()) {
    throw std::runtime_error("genes.tsv does not match reference.fa in " + dir.string());
  }
  return truth;
}

/// Reference isoforms whose k-mers appear in the transcripts at >= 95%
/// coverage, counted with the k-mer layer's own counter.
struct Recovery {
  std::size_t recovered = 0;
  std::size_t expressed = 0;            ///< isoforms sampled at >= 10x
  std::size_t recovered_expressed = 0;  ///< ... of which recovered
  std::size_t expressed_kmers = 0;      ///< k-mers of the expressed isoforms
  std::size_t recovered_kmers = 0;      ///< ... found in the transcripts
};

Recovery recover_isoforms(const std::vector<seq::Sequence>& transcripts, const Truth& truth,
                          int k) {
  // One thread: the check is small, and a single thread keeps its timing
  // independent of how busy the other cores are.
  kmer::CounterOptions counter_options;
  counter_options.k = k;
  counter_options.num_threads = 1;
  kmer::KmerCounter assembled(counter_options);
  assembled.add_sequences(transcripts);
  const seq::KmerCodec codec(k);
  Recovery out;
  for (std::size_t i = 0; i < truth.reference.size(); ++i) {
    const auto& bases = truth.reference[i].bases;
    const auto kmers = codec.extract(bases);
    std::size_t present = 0;
    for (const auto& occ : kmers) present += assembled.count_of(occ.code) > 0 ? 1 : 0;
    const bool recovered = !kmers.empty() && present * 100 >= kmers.size() * 95;
    const bool expressed = truth.reads_of[i] * 100 >= bases.size() * 10;
    out.recovered += recovered ? 1 : 0;
    out.expressed += expressed ? 1 : 0;
    out.recovered_expressed += recovered && expressed ? 1 : 0;
    if (expressed) {
      out.expressed_kmers += kmers.size();
      out.recovered_kmers += present;
    }
  }
  return out;
}

/// Wall and process CPU seconds (all threads, user + system) of a call.
struct Cost {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

template <class F>
Cost measure(F&& body) {
  const auto start = Clock::now();
  const double cpu_start = util::process_cpu_seconds();
  body();
  return {seconds_since(start), util::process_cpu_seconds() - cpu_start};
}

int cmd_assemble(const Args& args) {
  const std::string work = args.get("work");
  if (fs::exists(work)) throw std::runtime_error("work dir must be fresh: " + work);
  const auto reads = seq::read_all(args.get("reads"));
  const Truth truth = read_truth(fs::path(args.get("reads")).parent_path());

  pipeline::PipelineOptions options;
  options.nranks = static_cast<int>(args.get_int("nranks", 1));
  options.run_seed = static_cast<std::uint64_t>(args.get_int("run-seed", 0));
  options.work_dir = work + "/pipeline";

  util::Json json = util::Json::object();
  pipeline::PipelineResult result;
  const Cost assembly = measure([&] { result = pipeline::run_pipeline(reads, options); });
  json.set("assembly_s", assembly.wall_s);
  json.set("assembly_cpu_s", assembly.cpu_s);
  json.set("reads", reads.size());
  json.set("transcripts", result.transcripts.size());
  json.set("transcript_bases", seq::total_bases(result.transcripts));
  json.set("references", truth.reference.size());
  json.set("trinity_fa", options.work_dir + "/Trinity.fa");

  Recovery recovery;
  const Cost check =
      measure([&] { recovery = recover_isoforms(result.transcripts, truth, options.k); });
  json.set("validate.recovery_s", check.wall_s);
  json.set("recovered_isoforms", recovery.recovered);
  json.set("expressed_isoforms", recovery.expressed);
  json.set("recovered_expressed", recovery.recovered_expressed);
  json.set("expressed_kmers", recovery.expressed_kmers);
  json.set("recovered_kmers", recovery.recovered_kmers);

  if (args.has("trace")) {
    traced_assembly(reads, options, work + "/traced", json);
    json.set("traced_trinity_fa", work + "/traced/Trinity.fa");
  }
  std::cout << json.dump() << std::endl;
  return 0;
}

int cmd_validate(const Args& args) {
  const auto transcripts = seq::read_all(args.get("transcripts"));
  const auto original = seq::read_all(args.get("original"));
  const Truth truth = read_truth(args.get("truth"));

  validate::ReferenceComparison cmp;
  validate::CategoryCounts cat;
  const Cost reference = measure([&] {
    cmp = validate::compare_to_reference(transcripts, truth.reference, truth.gene_of);
  });
  const Cost all_to_all =
      measure([&] { cat = validate::all_to_all_categories(transcripts, original); });

  util::Json json = util::Json::object();
  json.set("validate_s", reference.wall_s + all_to_all.wall_s);
  json.set("validate_cpu_s", reference.cpu_s + all_to_all.cpu_s);
  json.set("validate.reference_s", reference.wall_s);
  json.set("validate.all_to_all_s", all_to_all.wall_s);
  json.set("validate.queries", transcripts.size());
  json.set("references", truth.reference.size());
  json.set("full_length_genes", cmp.full_length_genes);
  json.set("full_length_isoforms", cmp.full_length_isoforms);
  json.set("fused_transcripts", cmp.fused_isoforms);
  json.set("fig4_identical", cat.full_identical);
  json.set("fig4_total", cat.total());
  std::cout << json.dump() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) {
      throw std::invalid_argument("usage: trinity_perfbench simulate|assemble|validate ...");
    }
    const std::string command = argv[1];
    const Args args(argc, argv);
    if (command == "simulate") return cmd_simulate(args);
    if (command == "assemble") return cmd_assemble(args);
    if (command == "validate") return cmd_validate(args);
    throw std::invalid_argument("unknown command " + command);
  } catch (const std::exception& e) {
    std::cerr << "trinity_perfbench: " << e.what() << '\n';
    return 1;
  }
}
