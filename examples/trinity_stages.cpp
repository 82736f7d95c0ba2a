// trinity_stages: run the Trinity pipeline one stage at a time, exchanging
// data through files — exactly how Trinity's own executables compose
// ("the files being output from one software module are then consumed by
// the following module"). Each subcommand is restartable, so a failed or
// tuned stage can be rerun without repeating the others.
//
// Usage:
//   trinity_stages jellyfish <reads.fa>              --out kmers.bin [--k 25]
//   trinity_stages inchworm  <kmers.bin>             --out inchworm.fa [--k 25]
//   trinity_stages chrysalis <inchworm.fa> <reads.fa> --out-dir DIR
//                            [--ranks N] [--k 25] [--sam bowtie.sam]
//                            [--gff-sharding pooled|owner]
//                            [--resume] [--fault-rank R [--fault-op OP
//                            --fault-at N]] [--max-attempts M]
//   trinity_stages butterfly <inchworm.fa> <DIR> <reads.fa> --out Trinity.fa
//                            [--k 25]
//
// The chrysalis stage writes <DIR>/components.txt and
// <DIR>/readsToComponents.out.tsv; butterfly consumes both. --ranks is
// the paper's Trinity.pl --nprocs extension: > 1 runs the hybrid Chrysalis.
//
// Chrysalis also records a checkpoint manifest in DIR: --resume skips the
// whole stage when the recorded inputs/outputs still validate, and the
// fault flags kill rank R mid-run (at its first communication unless
// --fault-op/--fault-at pick a specific collective entry), after which the
// stage is re-launched up to --max-attempts times.

#include <algorithm>
#include <filesystem>
#include <iostream>

#include "align/mpi_bowtie.hpp"
#include "align/sam_io.hpp"
#include "butterfly/butterfly.hpp"
#include "checkpoint/fingerprint.hpp"
#include "checkpoint/manifest.hpp"
#include "chrysalis/components_io.hpp"
#include "chrysalis/graph_from_fasta.hpp"
#include "chrysalis/reads_to_transcripts.hpp"
#include "chrysalis/scaffold.hpp"
#include "inchworm/inchworm.hpp"
#include "kmer/counter.hpp"
#include "seq/fasta.hpp"
#include "simpi/context.hpp"
#include "pipeline/config.hpp"
#include "util/hash.hpp"

namespace {

using namespace trinity;

int usage() {
  std::cerr << "usage: trinity_stages <jellyfish|inchworm|chrysalis|butterfly> ...\n"
            << "  jellyfish <reads.fa> --out kmers.bin [--k 25]\n"
            << "  inchworm  <kmers.bin> --out inchworm.fa [--k 25]\n"
            << "  chrysalis <inchworm.fa> <reads.fa> --out-dir DIR [--ranks N] [--k 25]\n"
            << "            [--resume] [--fault-rank R [--fault-op OP --fault-at N]]\n"
            << "            [--max-attempts M]\n"
            << "  butterfly <inchworm.fa> <DIR> <reads.fa> --out Trinity.fa [--k 25]\n";
  return 2;
}

int stage_jellyfish(const Config& cfg, int k) {
  const auto reads = seq::read_all(cfg.positional()[1]);
  kmer::CounterOptions o;
  o.k = k;
  kmer::KmerCounter counter(o);
  // Only the k-mers the later stages keep at their default thresholds, as
  // run_pipeline counts: the same reads give the same kmers.bin.
  counter.count_solid(reads, std::min(inchworm::InchwormOptions{}.min_kmer_count,
                                      chrysalis::GraphFromFastaOptions{}.min_weld_support));
  const auto counts = counter.dump();
  std::string out = cfg.get_string("out");
  if (out.empty()) out = "kmers.bin";
  kmer::write_dump_binary(out, counts, k);
  std::cout << "jellyfish: " << reads.size() << " reads -> " << counts.size()
            << " distinct " << k << "-mers -> " << out << '\n';
  return 0;
}

int stage_inchworm(const Config& cfg, int k) {
  const auto counts = kmer::read_dump_binary(cfg.positional()[1], k);
  inchworm::InchwormOptions o;
  o.k = k;
  o.min_contig_length = static_cast<std::size_t>(k);
  inchworm::Inchworm assembler(o);
  assembler.load_counts(counts);
  const auto contigs = assembler.assemble();
  std::string out = cfg.get_string("out");
  if (out.empty()) out = "inchworm.fa";
  seq::write_fasta(out, contigs);
  std::cout << "inchworm: " << counts.size() << " k-mers -> " << contigs.size()
            << " contigs (" << assembler.stats().bases_assembled << " bp) -> " << out << '\n';
  return 0;
}

int stage_chrysalis(const Config& cfg, int k) {
  const auto contigs = seq::read_all(cfg.positional()[1]);
  const std::string reads_path = cfg.positional()[2];
  const auto reads = seq::read_all(reads_path);
  const std::string out_dir = cfg.get_string("out-dir");
  std::filesystem::create_directories(out_dir);
  const int nprocs = static_cast<int>(cfg.get_int("ranks"));

  kmer::CounterOptions copt;
  copt.k = k;
  chrysalis::GraphFromFastaOptions gff;
  gff.k = k;
  kmer::KmerCounter counter(copt);
  counter.count_solid(reads, gff.min_weld_support);  // the welds read no other k-mer
  const std::string sharding = cfg.get_string("gff-sharding");
  if (!chrysalis::sharding_from_string(sharding, &gff.sharding)) {
    throw ConfigError("gff-sharding",
                      "must be one of pooled, owner (got '" + sharding + "')");
  }
  chrysalis::ReadsToTranscriptsOptions r2t;
  r2t.k = k;

  // Checkpoint: the stage's outputs in out_dir, fingerprinted by its
  // options and the content of both inputs (which live outside out_dir, so
  // they fold into the fingerprint instead of the artifact list).
  const std::uint64_t fp = checkpoint::FingerprintBuilder()
                               .add("stage", std::string_view("chrysalis"))
                               .add("k", static_cast<std::int64_t>(k))
                               .add("inchworm", util::hash_file(cfg.positional()[1]))
                               .add("reads", util::hash_file(reads_path))
                               .digest();
  const std::string manifest_path = out_dir + "/run_manifest.jsonl";
  auto manifest = checkpoint::RunManifest::load(manifest_path);
  if (cfg.get_bool("resume")) {
    const auto* rec = manifest.find("chrysalis");
    if (rec != nullptr &&
        checkpoint::validate_stage(*rec, out_dir, fp, {}) == checkpoint::StageCheck::kValid) {
      std::cout << "chrysalis: checkpoint valid; skipping (outputs in " << out_dir << ")\n";
      return 0;
    }
    std::cout << "chrysalis: checkpoint invalid or absent; running\n";
  }

  simpi::FaultPlan fault = cfg.fault_plan();
  if (fault.enabled()) fault.arm();  // one fire across every re-launch below
  const int max_attempts = static_cast<int>(cfg.get_int("max-attempts"));

  chrysalis::ComponentSet components;
  std::size_t assigned = 0;
  int attempts = 1;
  // An existing Bowtie SAM file can be consumed instead of realigning —
  // the file-exchange interop Trinity's own stages rely on.
  const std::string sam_path = cfg.get_string("sam");
  if (nprocs == 1) {
    std::vector<align::SamRecord> sam;
    if (!sam_path.empty()) {
      sam = align::read_sam(sam_path).records;
      // read_sam's target ids index its own header; remap to our contigs.
      for (auto& r : sam) {
        if (!r.aligned()) continue;
        const auto it = std::find_if(contigs.begin(), contigs.end(), [&](const auto& c) {
          return c.name == r.target_name;
        });
        if (it == contigs.end()) throw std::runtime_error("--sam references unknown contig");
        r.target_id = static_cast<std::int32_t>(it - contigs.begin());
      }
    } else {
      const align::ContigIndex index(contigs, align::AlignerOptions{});
      sam = align::SeedExtendAligner(index).align_all(reads);
    }
    const auto scaffold = chrysalis::scaffold_pairs(sam, contigs, {});
    components = chrysalis::run_shared(contigs, counter, gff, scaffold).components;
    const auto r = chrysalis::run_shared(contigs, components, reads_path, r2t, out_dir);
    assigned = r.assignments.size();
  } else {
    // The paper's mechanism: the Chrysalis sub-steps run under mpirun —
    // here re-launched on a rank failure, like the pipeline's retry driver.
    const auto run_world = [&] {
      simpi::run(
          nprocs,
          [&](simpi::Context& ctx) {
            const auto bowtie =
                align::distributed_bowtie(ctx, contigs, reads, align::AlignerOptions{});
            std::vector<chrysalis::ContigPair> scaffold;
            if (ctx.rank() == 0) {
              scaffold = chrysalis::scaffold_pairs(bowtie.records, contigs, {});
            }
            // Every rank must use identical scaffold pairs.
            std::vector<std::int32_t> wire;
            if (ctx.rank() == 0) {
              for (const auto& p : scaffold) {
                wire.push_back(p.a);
                wire.push_back(p.b);
              }
            }
            ctx.bcast(wire, 0);
            scaffold.clear();
            for (std::size_t i = 0; i + 1 < wire.size(); i += 2) {
              scaffold.push_back({wire[i], wire[i + 1]});
            }
            const auto g = chrysalis::run_hybrid(ctx, contigs, counter, gff, scaffold);
            const auto r =
                chrysalis::run_hybrid(ctx, contigs, g.components, reads_path, r2t, out_dir);
            if (ctx.rank() == 0) {
              components = g.components;
              assigned = r.assignments.size();
            }
          },
          {}, fault);
    };
    for (;; ++attempts) {
      try {
        run_world();
        break;
      } catch (const simpi::RankFaultError& e) {
        if (attempts >= max_attempts) throw;
        std::cout << "chrysalis: world aborted (" << e.what() << "); re-launching "
                  << attempts + 1 << "/" << max_attempts << '\n';
      } catch (const simpi::AbortedError& e) {
        if (attempts >= max_attempts) throw;
        std::cout << "chrysalis: world aborted (" << e.what() << "); re-launching "
                  << attempts + 1 << "/" << max_attempts << '\n';
      }
    }
  }

  chrysalis::write_components(out_dir + "/components.txt", components);

  checkpoint::StageRecord rec;
  rec.stage = "chrysalis";
  rec.fingerprint = fp;
  rec.complete = true;
  rec.attempt = attempts;
  rec.outputs.push_back(checkpoint::capture_artifact(out_dir, "components.txt"));
  rec.outputs.push_back(checkpoint::capture_artifact(out_dir, "readsToComponents.out.tsv"));
  manifest.upsert(std::move(rec));
  manifest.commit();

  std::cout << "chrysalis (" << (nprocs == 1 ? "shared-memory" : "hybrid") << ", nprocs="
            << nprocs << "): " << contigs.size() << " contigs -> "
            << components.num_components() << " components; " << assigned
            << " reads assigned -> " << out_dir << "/{components.txt,readsToComponents.out.tsv}\n";
  if (attempts > 1) {
    std::cout << "chrysalis: recovered from " << attempts - 1
              << " injected rank failure(s)\n";
  }
  return 0;
}

int stage_butterfly(const Config& cfg, int k) {
  const auto contigs = seq::read_all(cfg.positional()[1]);
  const std::string dir = cfg.positional()[2];
  const auto reads = seq::read_all(cfg.positional()[3]);
  const auto components = chrysalis::read_components(dir + "/components.txt");
  const auto assignments =
      chrysalis::read_assignments(dir + "/readsToComponents.out.tsv");

  butterfly::ButterflyOptions o;
  o.k = k;
  const auto transcripts =
      butterfly::run_butterfly(contigs, components, assignments, reads, o);
  std::string out = cfg.get_string("out");
  if (out.empty()) out = "Trinity.fa";
  seq::write_fasta(out, transcripts, 70);
  std::cout << "butterfly: " << components.num_components() << " components -> "
            << transcripts.size() << " transcripts -> " << out << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace trinity;
  Config cfg("trinity_stages", "run the Trinity pipeline one stage at a time");
  cfg.usage("<jellyfish|inchworm|chrysalis|butterfly> <inputs...>")
      .flag_int("k", 25, "k-mer size")
      .flag_string("out", "", "output file (per-stage default when empty)")
      .flag_string("out-dir", "chrysalis_out", "chrysalis output directory")
      .flag_int("ranks", 1, "hybrid Chrysalis rank count (1 = shared-memory)")
      .flag_string("sam", "", "existing Bowtie SAM to consume instead of realigning")
      .flag_bool("resume", false, "skip chrysalis when its checkpoint validates")
      .flag_string("gff-sharding", "owner", "hybrid Chrysalis weld movement: pooled or owner")
      .with_fault_flags();
  try {
    cfg.parse_cli(argc, argv);
  } catch (const ConfigError& e) {
    std::cerr << e.what() << '\n';
    return 2;
  }
  if (cfg.help_requested()) {
    std::cout << cfg.help_text();
    return 0;
  }
  const int k = static_cast<int>(cfg.get_int("k"));
  const auto& pos = cfg.positional();
  try {
    if (pos.size() >= 2 && pos[0] == "jellyfish") return stage_jellyfish(cfg, k);
    if (pos.size() >= 2 && pos[0] == "inchworm") return stage_inchworm(cfg, k);
    if (pos.size() >= 3 && pos[0] == "chrysalis") return stage_chrysalis(cfg, k);
    if (pos.size() >= 4 && pos[0] == "butterfly") return stage_butterfly(cfg, k);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return usage();
}
