// Section-IV validation speed: the library's Smith–Waterman path against
// the scalar baseline it replaced, on the presets of Figures 4-6.
//
// The library path (validate::all_to_all_categories and
// validate::compare_to_reference) scores both strands of every candidate
// in linear memory, with the AVX2 kernel where the CPU has it, and traces
// back only the Figure-4 winner and the Figure-5/6 candidates whose score
// clears the full-length floor. The baseline is the naive loop: a
// full-matrix scalar alignment with traceback on both strands of every
// candidate. Both use the same k-mer candidate filter, so any difference
// in CategoryCounts or ReferenceComparison is an error (exit 1).
//
// Per preset, one original (1 rank) and one parallel (--ranks) assembly
// are compared: Figure 4 aligns parallel against original, Figures 5/6
// align parallel against the reference. Times are host wall seconds of the
// single-threaded comparisons, best of --repeats. --min-speedup gates the
// combined speedup; a kernel table reports cells per second of the four
// kernels on one long pair. JSON goes to --json (BENCH_sw.json by default).

#include <chrono>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "pipeline/trinity_pipeline.hpp"
#include "seq/dna.hpp"
#include "sw/kernels.hpp"
#include "util/rng.hpp"
#include "validate/validate.hpp"

namespace {

using namespace trinity;

double now_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

sw::Alignment scalar_best_strand(const std::string& query, const std::string& target) {
  const sw::Scoring scoring;
  const auto fwd = sw::kernels::align_scalar(query, target, scoring);
  const auto rev = sw::kernels::align_scalar(seq::reverse_complement(query), target, scoring);
  return fwd.score >= rev.score ? fwd : rev;
}

/// The naive Figure-4 loop.
validate::CategoryCounts scalar_categories(const std::vector<seq::Sequence>& queries,
                                           const std::vector<seq::Sequence>& targets) {
  const validate::ValidationOptions options;
  const validate::CandidateFinder finder(targets, options);
  validate::CategoryCounts counts;
  for (const auto& query : queries) {
    sw::Alignment best;
    for (const auto t : finder.candidates(query)) {
      const auto aln = scalar_best_strand(query.bases, targets[static_cast<std::size_t>(t)].bases);
      if (aln.score > best.score) best = aln;
    }
    if (best.score <= 0) {
      ++counts.unmatched;
    } else if (best.query_coverage(query.bases.size()) < options.full_length_coverage) {
      ++counts.partial;
      counts.partial_identities.push_back(best.identity());
    } else if (best.identity() >= options.identical_threshold) {
      ++counts.full_identical;
    } else {
      ++counts.full_diverged;
    }
  }
  return counts;
}

/// The naive Figures-5/6 loop.
validate::ReferenceComparison scalar_reference(const std::vector<seq::Sequence>& reconstructed,
                                               const std::vector<seq::Sequence>& reference,
                                               const std::vector<std::int32_t>& gene_of) {
  const validate::ValidationOptions options;
  const validate::CandidateFinder finder(reference, options);
  std::set<std::int32_t> refs, genes, fused_genes;
  validate::ReferenceComparison out;
  for (const auto& rec : reconstructed) {
    std::set<std::int32_t> hit_genes;
    for (const auto t : finder.candidates(rec)) {
      const auto& ref = reference[static_cast<std::size_t>(t)].bases;
      const auto aln = scalar_best_strand(ref, rec.bases);
      if (aln.score > 0 && aln.query_coverage(ref.size()) >= options.full_length_coverage &&
          aln.identity() >= options.min_fused_identity) {
        refs.insert(t);
        genes.insert(gene_of[static_cast<std::size_t>(t)]);
        hit_genes.insert(gene_of[static_cast<std::size_t>(t)]);
      }
    }
    if (hit_genes.size() >= 2) {
      ++out.fused_isoforms;
      fused_genes.insert(hit_genes.begin(), hit_genes.end());
    }
  }
  out.full_length_isoforms = refs.size();
  out.full_length_genes = genes.size();
  out.fused_genes = fused_genes.size();
  return out;
}

struct Outputs {
  validate::CategoryCounts categories;
  validate::ReferenceComparison reference;
  double seconds = 0.0;
};

bool same(const Outputs& a, const Outputs& b) {
  const auto& x = a.categories;
  const auto& y = b.categories;
  const auto& r = a.reference;
  const auto& s = b.reference;
  return x.full_identical == y.full_identical && x.full_diverged == y.full_diverged &&
         x.partial == y.partial && x.unmatched == y.unmatched &&
         x.partial_identities == y.partial_identities &&
         r.full_length_genes == s.full_length_genes &&
         r.full_length_isoforms == s.full_length_isoforms && r.fused_genes == s.fused_genes &&
         r.fused_isoforms == s.fused_isoforms;
}

/// Best-of-`repeats` timing of one comparison pair.
template <typename Run>
Outputs best_of(int repeats, Run&& run) {
  Outputs best;
  for (int rep = 0; rep < repeats; ++rep) {
    const double t0 = now_seconds();
    Outputs out = run();
    out.seconds = now_seconds() - t0;
    if (rep == 0 || out.seconds < best.seconds) best = std::move(out);
  }
  return best;
}

struct Preset {
  const char* figure;
  const char* dataset;
  double shared_utr_probability;  ///< < 0 keeps the preset's own
};

}  // namespace

int main(int argc, char** argv) {
  Config cfg("bench_sw", "Section-IV validation: score-then-traceback SW vs the scalar baseline");
  cfg.flag_int("genes", 60, "genes to simulate per preset (0 keeps the preset's size)")
      .flag_int("ranks", 4, "ranks of the parallel assembly")
      .flag_int("repeats", 1, "timed repetitions per path (minimum kept)")
      .flag_double("min-speedup", 0.0,
                   "fail (exit 1) unless the combined speedup reaches this; 0 disables the gate")
      .flag_string("json", "BENCH_sw.json", "write the series as one JSON document to this path");
  int parse_exit = 0;
  if (!bench::parse_or_exit(cfg, argc, argv, &parse_exit)) return parse_exit;
  const auto genes = static_cast<std::size_t>(cfg.get_int("genes"));
  const int ranks = static_cast<int>(cfg.get_int("ranks"));
  const int repeats = static_cast<int>(cfg.get_int("repeats"));

  bench::banner("Section IV", "Smith-Waterman validation: library path vs scalar baseline");
  std::printf("AVX2 kernels: %s\n\n", sw::kernels::avx2_available() ? "yes" : "no (scalar)");

  bench::JsonSink json(cfg, "sw");
  std::printf("%-6s %-30s %7s | %10s %10s %8s | %s\n", "figure", "dataset", "queries", "library(s)",
              "scalar(s)", "speedup", "fig4 a/b/c/none  full genes/isoforms  fused");
  double library_total = 0.0;
  double scalar_total = 0.0;
  bool identical = true;
  const Preset presets[] = {{"fig04", "whitefly_like", -1.0},
                            {"fig05", "schizophrenia_like", -1.0},
                            {"fig05", "drosophila_like", -1.0},
                            {"fig06", "schizophrenia_like", 0.35},
                            {"fig06", "drosophila_like", 0.35}};
  for (const auto& preset : presets) {
    auto p = sim::preset(preset.dataset);
    if (genes > 0) p.transcriptome.num_genes = genes;
    if (preset.shared_utr_probability >= 0.0) {
      p.transcriptome.shared_utr_probability = preset.shared_utr_probability;
    }
    const auto data = sim::simulate_dataset(p);
    auto assemble = [&](int nranks, std::uint64_t seed) {
      pipeline::PipelineOptions o;
      o.k = bench::kK;
      o.nranks = nranks;
      o.run_seed = seed;
      o.work_dir = std::string("/tmp/trinity_bench_sw_") + preset.dataset;
      return pipeline::run_pipeline(data.reads.reads, o).transcripts;
    };
    const auto original = assemble(1, 1);
    const auto parallel = assemble(ranks, 2);
    const auto& reference = data.transcriptome.transcripts;
    const auto& gene_of = data.transcriptome.gene_of_transcript;

    const auto library = best_of(repeats, [&] {
      return Outputs{validate::all_to_all_categories(parallel, original),
                     validate::compare_to_reference(parallel, reference, gene_of)};
    });
    const auto scalar = best_of(repeats, [&] {
      return Outputs{scalar_categories(parallel, original),
                     scalar_reference(parallel, reference, gene_of)};
    });
    const bool match = same(library, scalar);
    identical = identical && match;
    library_total += library.seconds;
    scalar_total += scalar.seconds;

    const std::string name = std::string(preset.dataset) +
                             (preset.shared_utr_probability >= 0.0 ? "+shared_utr" : "");
    const auto& c = library.categories;
    const auto& r = library.reference;
    std::printf("%-6s %-30s %7zu | %10.3f %10.3f %7.1fx | %zu/%zu/%zu/%zu  %zu/%zu  %zu%s\n",
                preset.figure, name.c_str(), parallel.size(), library.seconds, scalar.seconds,
                scalar.seconds / library.seconds, c.full_identical, c.full_diverged, c.partial,
                c.unmatched, r.full_length_genes, r.full_length_isoforms, r.fused_isoforms,
                match ? "" : "  OUTPUTS DIFFER");
    json.begin_entry();
    json.field("figure", std::string(preset.figure));
    json.field("dataset", name);
    json.field("queries", static_cast<std::int64_t>(parallel.size()));
    json.field("library_s", library.seconds);
    json.field("scalar_s", scalar.seconds);
    json.field("speedup", scalar.seconds / library.seconds);
    json.field("identical", match);
    json.field("full_identical", static_cast<std::int64_t>(c.full_identical));
    json.field("full_diverged", static_cast<std::int64_t>(c.full_diverged));
    json.field("partial", static_cast<std::int64_t>(c.partial));
    json.field("unmatched", static_cast<std::int64_t>(c.unmatched));
    json.field("full_length_genes", static_cast<std::int64_t>(r.full_length_genes));
    json.field("full_length_isoforms", static_cast<std::int64_t>(r.full_length_isoforms));
    json.field("fused_isoforms", static_cast<std::int64_t>(r.fused_isoforms));
  }
  const double speedup = scalar_total / library_total;
  std::printf("\ncombined: library %.3f s, scalar %.3f s -> %.1fx; outputs %s\n", library_total,
              scalar_total, speedup, identical ? "identical" : "DIFFER");

  // Kernel throughput on one long pair with a few point mutations.
  util::Rng rng(7);
  std::string query(2000, 'A');
  for (auto& base : query) base = "ACGT"[rng.uniform_below(4)];
  std::string target = query;
  for (std::size_t pos = 97; pos < target.size(); pos += 211) target[pos] = 'N';
  const double cells = static_cast<double>(query.size() * target.size());
  std::printf("\nkernel cells/s on a %zu x %zu pair:\n", query.size(), target.size());
  const sw::Scoring scoring;
  const bool avx2 = sw::kernels::avx2_available();
  struct Kernel {
    const char* name;
    bool runnable;
    std::function<int()> run;
  };
  const Kernel kernels[] = {
      {"score_scalar", true, [&] { return sw::kernels::score_scalar(query, target, scoring).score; }},
      {"score_avx2", avx2, [&] { return sw::kernels::score_avx2(query, target, scoring).score; }},
      {"align_scalar", true, [&] { return sw::kernels::align_scalar(query, target, scoring).score; }},
      {"align_avx2", avx2, [&] { return sw::kernels::align_avx2(query, target, scoring).score; }},
  };
  for (const auto& kernel : kernels) {
    if (!kernel.runnable) continue;
    int calls = 0;
    const double t0 = now_seconds();
    double elapsed = 0.0;
    while (elapsed < 0.3) {
      if (kernel.run() <= 0) return 1;
      ++calls;
      elapsed = now_seconds() - t0;
    }
    const double rate = cells * calls / elapsed;
    std::printf("  %-13s %6.3f G cells/s\n", kernel.name, rate / 1e9);
    json.begin_entry();
    json.field("kernel", std::string(kernel.name));
    json.field("cells_per_s", rate);
  }

  if (!identical) {
    std::fprintf(stderr, "bench_sw: library and scalar outputs differ\n");
    return 1;
  }
  const double min_speedup = cfg.get_double("min-speedup");
  if (min_speedup > 0.0 && speedup < min_speedup) {
    std::fprintf(stderr, "bench_sw: combined speedup %.2fx is below --min-speedup %.2f\n",
                 speedup, min_speedup);
    return 1;
  }
  return 0;
}
