// Checkpoint/restart overhead — what fault tolerance costs and what it
// saves. Three configurations of the same hybrid pipeline run:
//
//   off     checkpointing disabled (the seed repo's behaviour)
//   on      checkpointing enabled: every stage hashed + manifest committed
//   resume  a run killed by an injected rank fault mid-Chrysalis, then
//           re-launched with resume=true, completing from the checkpoint
//
// Reported per configuration: host wall time, modeled (virtual) Chrysalis
// time, total checkpoint overhead (the "<stage>.checkpoint" trace phases),
// and the stage execution/resume counts. With --json <path> the same
// numbers are written as a machine-readable series.
//
// The "on" run also measures the hashing against the scheme it replaced:
// byte-serial FNV-1a over every manifest record's inputs and outputs (the
// pipeline used to re-hash each input it consumed). --min-hash-speedup gates
// that baseline's seconds over the run's summed StageRecord
// checkpoint_seconds, and the bench fails unless the summed
// checkpoint_bytes counters equal the distinct artifact bytes: each
// artifact hashed exactly once.

#include <fstream>
#include <map>
#include <stdexcept>

#include "bench_common.hpp"
#include "checkpoint/manifest.hpp"
#include "pipeline/trinity_pipeline.hpp"
#include "util/timer.hpp"

namespace {

/// The deleted artifact hash, kept as the baseline: FNV-1a 64, one byte
/// per multiply, over a file read in 64 KiB blocks.
std::uint64_t fnv1a_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::uint64_t state = 0xcbf29ce484222325ULL;
  char buf[1 << 16];
  while (in) {
    in.read(buf, sizeof(buf));
    for (std::streamsize i = 0; i < in.gcount(); ++i) {
      state ^= static_cast<unsigned char>(buf[i]);
      state *= 0x100000001b3ULL;
    }
  }
  return state;
}

/// The checkpointed run's hashing, read back from its manifest and trace.
struct HashLedger {
  double seconds = 0.0;             ///< summed StageRecord checkpoint_seconds
  std::uint64_t bytes = 0;          ///< summed checkpoint_bytes phase counters
  std::uint64_t distinct_bytes = 0; ///< sizes of the distinct artifacts
  double baseline_seconds = 0.0;    ///< FNV-1a over every record's inputs + outputs
  std::uint64_t baseline_bytes = 0;
};

HashLedger hash_ledger(const std::string& work_dir,
                       const trinity::pipeline::PipelineResult& result) {
  using namespace trinity;
  HashLedger ledger;
  for (const auto& phase : result.trace) {
    if (const auto* c = phase.counter("checkpoint_bytes")) {
      ledger.bytes += static_cast<std::uint64_t>(c->value);
    }
  }
  const auto manifest =
      checkpoint::RunManifest::load(work_dir + "/" + pipeline::kManifestFileName);
  std::map<std::string, std::uint64_t> distinct;
  volatile std::uint64_t sink = 0;  // keeps the baseline digests live
  util::Timer baseline;
  for (const auto& record : manifest.records()) {
    ledger.seconds += record.checkpoint_seconds;
    for (const auto* artifacts : {&record.inputs, &record.outputs}) {
      for (const auto& a : *artifacts) {
        sink = sink ^ fnv1a_file(work_dir + "/" + a.path);
        ledger.baseline_bytes += a.bytes;
        distinct[a.path] = a.bytes;
      }
    }
  }
  ledger.baseline_seconds = baseline.seconds();
  for (const auto& [path, bytes] : distinct) ledger.distinct_bytes += bytes;
  return ledger;
}

struct Measurement {
  std::string config;
  double wall_seconds = 0.0;
  double chrysalis_virtual_seconds = 0.0;
  double checkpoint_seconds = 0.0;
  std::int64_t stages_executed = 0;
  std::int64_t stages_resumed = 0;
  std::int64_t stage_retries = 0;
};

Measurement measure(const std::string& config, const trinity::pipeline::PipelineResult& result,
                    double wall_seconds) {
  Measurement m;
  m.config = config;
  m.wall_seconds = wall_seconds;
  m.chrysalis_virtual_seconds = result.chrysalis_virtual_seconds();
  for (const auto& phase : result.trace) {
    if (phase.name.size() > 11 &&
        phase.name.compare(phase.name.size() - 11, 11, ".checkpoint") == 0) {
      m.checkpoint_seconds += phase.wall_seconds;
    }
  }
  m.stages_executed = static_cast<std::int64_t>(result.stages_executed.size());
  m.stages_resumed = static_cast<std::int64_t>(result.stages_resumed.size());
  m.stage_retries = result.stage_retries;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace trinity;
  auto cfg = bench::bench_config("bench_checkpoint_overhead", "Checkpoint overhead: pipeline cost with checkpointing off / on / resume-after-fault");
  cfg.flag_int("genes", 120, "genes to simulate (scales the dataset)");
  cfg.flag_int("ranks", 4, "rank count for the measured world(s); at least 2")
      .flag_double("min-hash-speedup", 0.0,
                   "fail (exit 1) unless FNV-1a over every record's inputs and outputs "
                   "takes this many times the run's checkpoint_seconds; 0 disables the gate");
  int parse_exit = 0;
  if (!bench::parse_or_exit(cfg, argc, argv, &parse_exit)) return parse_exit;
  const auto genes = static_cast<std::size_t>(cfg.get_int("genes"));
  const int nranks = static_cast<int>(cfg.get_int("ranks"));
  if (nranks < 2) {
    // The resume series kills rank 1 inside the hybrid GraphFromFasta; a
    // 1-rank run takes the shared-memory path, where no rank can die.
    std::fprintf(stderr, "%s\n",
                 ConfigError("ranks", "must be >= 2: the resume series kills rank 1 inside "
                                      "the hybrid GraphFromFasta, which a 1-rank run never "
                                      "enters")
                     .what());
    return 2;
  }

  bench::banner("Checkpoint overhead",
                "pipeline cost with checkpointing off / on / resume-after-fault");

  auto preset = sim::preset("sugarbeet_like");
  preset.transcriptome.num_genes = genes;
  const auto data = sim::simulate_dataset(preset);
  std::printf("workload: %zu reference isoforms, %zu reads, %d ranks\n\n",
              data.transcriptome.transcripts.size(), data.reads.reads.size(), nranks);

  pipeline::PipelineOptions base;
  base.k = bench::kK;
  base.nranks = nranks;
  base.trace_sample_interval_ms = 0;

  std::vector<Measurement> series;
  HashLedger ledger;

  {
    auto options = base;
    options.checkpoint = false;
    options.work_dir = "/tmp/trinity_bench_ckpt_off";
    util::Timer wall;
    const auto result = pipeline::run_pipeline(data.reads.reads, options);
    series.push_back(measure("off", result, wall.seconds()));
  }

  {
    auto options = base;
    options.work_dir = "/tmp/trinity_bench_ckpt_on";
    util::Timer wall;
    const auto result = pipeline::run_pipeline(data.reads.reads, options);
    series.push_back(measure("on", result, wall.seconds()));
    ledger = hash_ledger(options.work_dir, result);
  }

  {
    auto options = base;
    options.work_dir = "/tmp/trinity_bench_ckpt_resume";
    std::filesystem::remove(options.work_dir + "/" + pipeline::kManifestFileName);
    // Kill rank 1 at its first communication inside GraphFromFasta; with a
    // single attempt the run dies exactly like a real job loss.
    options.fault.rank = 1;
    options.fault.after_virtual_seconds = 0.0;
    options.fault_stage = "chrysalis.graph_from_fasta";
    options.retry.max_attempts = 1;
    try {
      (void)pipeline::run_pipeline(data.reads.reads, options);
      throw std::logic_error("injected fault did not fire");
    } catch (const simpi::RankFaultError&) {
      // Expected: the job is gone; the manifest survives.
    }
    auto relaunch = base;
    relaunch.work_dir = options.work_dir;
    relaunch.resume = true;
    util::Timer wall;
    const auto result = pipeline::run_pipeline(data.reads.reads, relaunch);
    series.push_back(measure("resume", result, wall.seconds()));
  }

  std::printf("%-8s %10s %14s %16s %10s %10s\n", "config", "wall(s)", "chrysalis(vs)",
              "checkpoint(s)", "executed", "resumed");
  for (const auto& m : series) {
    std::printf("%-8s %10.3f %14.2f %16.4f %10lld %10lld\n", m.config.c_str(),
                m.wall_seconds, m.chrysalis_virtual_seconds, m.checkpoint_seconds,
                static_cast<long long>(m.stages_executed),
                static_cast<long long>(m.stages_resumed));
  }
  const double off_wall = series[0].wall_seconds;
  const double on_wall = series[1].wall_seconds;
  std::printf("\ncheckpointing overhead: %.1f%% of wall time "
              "(%.4fs of hashing + manifest commits);\n"
              "resume after a mid-Chrysalis rank loss redid %lld of %zu stages.\n",
              100.0 * (on_wall - off_wall) / off_wall, series[1].checkpoint_seconds,
              static_cast<long long>(series[2].stages_executed),
              static_cast<std::size_t>(series[2].stages_executed + series[2].stages_resumed));

  const double hash_speedup =
      ledger.seconds > 0.0 ? ledger.baseline_seconds / ledger.seconds : 0.0;
  std::printf("\nartifact hashing (on): %llu B in %.4fs, %llu B of distinct artifacts;\n"
              "FNV-1a over every record's inputs and outputs: %llu B in %.4fs (%.1fx)\n",
              static_cast<unsigned long long>(ledger.bytes), ledger.seconds,
              static_cast<unsigned long long>(ledger.distinct_bytes),
              static_cast<unsigned long long>(ledger.baseline_bytes),
              ledger.baseline_seconds, hash_speedup);

  bench::JsonSink json(cfg, "checkpoint_overhead");
  for (const auto& m : series) {
    json.begin_entry();
    json.field("config", m.config);
    json.field("ranks", static_cast<std::int64_t>(nranks));
    json.field("wall_seconds", m.wall_seconds);
    json.field("chrysalis_virtual_seconds", m.chrysalis_virtual_seconds);
    json.field("checkpoint_seconds", m.checkpoint_seconds);
    json.field("stages_executed", m.stages_executed);
    json.field("stages_resumed", m.stages_resumed);
    json.field("stage_retries", m.stage_retries);
    if (m.config == "on") {
      json.field("hash_seconds", ledger.seconds);
      json.field("hash_bytes", static_cast<std::int64_t>(ledger.bytes));
      json.field("distinct_artifact_bytes", static_cast<std::int64_t>(ledger.distinct_bytes));
      json.field("fnv_baseline_seconds", ledger.baseline_seconds);
      json.field("fnv_baseline_bytes", static_cast<std::int64_t>(ledger.baseline_bytes));
      json.field("hash_speedup", hash_speedup);
    }
  }

  if (ledger.bytes != ledger.distinct_bytes) {
    std::fprintf(stderr,
                 "bench_checkpoint_overhead: hashed %llu B, but the distinct artifacts "
                 "total %llu B\n",
                 static_cast<unsigned long long>(ledger.bytes),
                 static_cast<unsigned long long>(ledger.distinct_bytes));
    return 1;
  }
  const double min_hash_speedup = cfg.get_double("min-hash-speedup");
  if (min_hash_speedup > 0.0 && hash_speedup < min_hash_speedup) {
    std::fprintf(stderr,
                 "bench_checkpoint_overhead: hash speedup %.2fx is below "
                 "--min-hash-speedup %.2f\n",
                 hash_speedup, min_hash_speedup);
    return 1;
  }
  return 0;
}
