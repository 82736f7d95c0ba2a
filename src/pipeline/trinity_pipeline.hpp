#pragma once
// The Trinity workflow driver: Jellyfish -> Inchworm -> Chrysalis (Bowtie,
// GraphFromFasta, ReadsToTranscripts, FastaToDebruijn/QuantifyGraph) ->
// Butterfly, with the Trinity.pl-style nprocs switch the paper added:
// nranks == 1 runs the original shared-memory (OpenMP-only) code paths,
// nranks > 1 runs the hybrid simpi+OpenMP code paths, "prepending" the
// Chrysalis sub-steps with a simulated mpirun.
//
// Like Trinity, stages exchange data through files in a work directory
// (the reads FASTA is written once and then *streamed* by
// ReadsToTranscripts), and a ResourceTrace records the wall/CPU/RSS
// timeline that Figures 2 and 11 plot.
//
// Checkpoint/restart: those stage files double as checkpoints. With
// checkpointing on (default), every completed stage is recorded in a
// RunManifest (work_dir/run_manifest.jsonl, atomic commits). A re-launch
// with `resume = true` validates the manifest against the current options
// fingerprint and the on-disk artifacts, skips every stage that is still
// valid, and re-runs from the first invalid one — so a run killed by a
// rank failure resumes instead of starting over. In-process, a bounded
// retry/backoff driver re-launches a stage whose simpi world aborted
// (simpi::AbortedError / RankFaultError); `fault` + `fault_stage` inject
// such failures for testing.

#include <cstdint>
#include <string>
#include <vector>

#include "align/mpi_bowtie.hpp"
#include "checkpoint/manifest.hpp"
#include "checkpoint/retry.hpp"
#include "chrysalis/graph_from_fasta.hpp"
#include "chrysalis/reads_to_transcripts.hpp"
#include "butterfly/butterfly.hpp"
#include "io/error.hpp"
#include "io/fault_plan.hpp"
#include "seq/fasta.hpp"
#include "simpi/cost_model.hpp"
#include "simpi/fault.hpp"
#include "util/resource_trace.hpp"

namespace trinity::pipeline {

/// Whole-pipeline configuration.
struct PipelineOptions {
  int k = 25;                      ///< k-mer size used by every stage
  std::uint32_t min_kmer_count = 2;   ///< Inchworm error-pruning threshold
  std::uint32_t min_weld_support = 2; ///< GraphFromFasta weld support
  std::size_t max_mem_reads = 5000;   ///< ReadsToTranscripts chunk size
  bool bowtie_scaffolding = true;  ///< feed Bowtie pairs into clustering

  int nranks = 1;                  ///< 1 = original shared-memory Trinity
  int model_threads_per_rank = 16; ///< simulated per-node thread count
  int omp_threads = 0;             ///< real OpenMP threads (0 = auto)
  simpi::CommCostModel comm;       ///< interconnect model for hybrid runs

  std::string work_dir;            ///< stage file exchange; created if absent
  std::uint64_t run_seed = 0;      ///< models Trinity's run-to-run variation
  int trace_sample_interval_ms = 25;  ///< RSS sampler period (0 disables)

  // Strategy selection (the paper's published schemes by default; the
  // alternatives are its discarded attempts and future-work directions,
  // all implemented — see DESIGN.md).
  chrysalis::Distribution gff_distribution = chrysalis::Distribution::kChunkedRoundRobin;
  /// How GraphFromFasta moves weld data between ranks (--gff-sharding).
  /// Owner-computes by default: it moves fewer bytes and holds less per
  /// rank than the paper's pooled scheme. Scheduling-only — both strategies
  /// produce byte-identical components (the pipeline tests and
  /// bench_gff_shard assert it), so it is excluded from the options
  /// fingerprint like the other strategy selections.
  chrysalis::ShardingStrategy gff_sharding = chrysalis::ShardingStrategy::kOwner;
  chrysalis::R2TStrategy r2t_strategy = chrysalis::R2TStrategy::kRedundantStreaming;
  // perfbench compile shim that nothing in src/ reads; the benchmark PR of
  // ROADMAP item 7 deletes it.
  chrysalis::R2TOutputMode r2t_output_mode = chrysalis::R2TOutputMode::kPerRankConcat;
  // perfbench compile shim; the benchmark PR of ROADMAP item 7 deletes it.
  // run_pipeline rejects kIndex with std::invalid_argument.
  chrysalis::R2TMode r2t_mode = chrysalis::R2TMode::kVote;
  // perfbench compile shim; the benchmark PR of ROADMAP item 7 deletes it.
  chrysalis::IndexLifecycle r2t_index = chrysalis::IndexLifecycle::kAuto;
  align::BowtieSplit bowtie_split = align::BowtieSplit::kTargets;
  std::uint32_t butterfly_min_node_support = 0;  ///< read reconciliation
  bool butterfly_require_paired_support = false; ///< paired reconciliation
  /// Cost-model calibration for the trace benches (Figures 2 and 11):
  /// per-item kernel repeats for the three Chrysalis sub-steps, restoring
  /// the production tools' much heavier per-item costs so the stage *shape*
  /// (Chrysalis dominating the pipeline) reproduces. All default to 1.
  int bowtie_kernel_repeats = 1;
  int gff_kernel_repeats = 1;
  int r2t_kernel_repeats = 1;

  // --- checkpoint / restart ---------------------------------------------------

  /// Record each completed stage in work_dir/run_manifest.jsonl. The only
  /// cost is hashing the stage artifacts (measured as "<stage>.checkpoint"
  /// trace phases and by bench_checkpoint_overhead).
  bool checkpoint = true;
  /// Skip stages whose manifest record validates against the options
  /// fingerprint and on-disk artifacts; re-run from the first invalid one.
  bool resume = false;
  /// In-process recovery: a stage whose simpi world aborts is re-launched
  /// up to retry.max_attempts times with exponential backoff.
  checkpoint::RetryPolicy retry;
  /// Injected rank fault (testing/benching); disabled by default.
  simpi::FaultPlan fault;
  /// Stage whose simpi world receives `fault` ("chrysalis.bowtie",
  /// "chrysalis.graph_from_fasta", or "chrysalis.reads_to_transcripts").
  std::string fault_stage;
  /// Injected storage fault (testing/benching); disabled by default.
  /// Installed process-wide for the duration of the run (see
  /// io::ScopedFaultInjection) and armed once, so a transient fault fires
  /// exactly once even when the retry driver re-launches the stage.
  /// Transient faults (eio, short_write) are retried in process; permanent
  /// ones (enospc, torn_rename) fail the run with a typed io::IoError,
  /// leaving the checkpoints for a `resume = true` re-launch.
  io::IoFaultPlan io_fault;

  // --- input robustness -------------------------------------------------------

  /// How FASTA/FASTQ readers treat malformed records (seq/fasta.hpp):
  /// kStrict throws io::ParseError with path/line/byte-offset; kTolerant
  /// quarantines and completes; kRepair additionally fixes what it can.
  /// Applies to the input reads file and the ReadsToTranscripts stream.
  seq::ParsePolicy parse_policy = seq::ParsePolicy::kStrict;

  // --- observability ----------------------------------------------------------

  /// Write the versioned JSON run report (docs/OBSERVABILITY.md) when the
  /// run finishes: phase timeline, per-rank communication counters, and
  /// the Chrysalis work-distribution metrics.
  bool emit_report = true;
  /// Report destination; empty means `<work_dir>/run_report.json`.
  std::string report_path;
  /// Distributed span tracing (docs/OBSERVABILITY.md "Distributed trace"):
  /// empty (the default) disables tracing entirely — instrumented code
  /// collapses to one atomic load per hook. Non-empty installs a
  /// trace::SpanRecorder for the run and writes a Chrome trace-event JSON
  /// (loadable in Perfetto / chrome://tracing, minable by trinity_trace) to
  /// this path when the run finishes; a relative path is joined to
  /// work_dir. The report gains an additive "trace_file" field.
  std::string trace_path;
};

/// Fingerprint over every output-affecting option plus a digest of the
/// input reads. Scheduling-only knobs (nranks, thread counts, cost model,
/// kernel repeats, distribution/strategy selections) are excluded: the
/// paper's equivalence claim — enforced by the pipeline tests — is that
/// they never change results, so resuming under a different schedule is
/// legitimate.
[[nodiscard]] std::uint64_t options_fingerprint(const PipelineOptions& options,
                                                const std::vector<seq::Sequence>& reads);

/// Manifest filename inside the work directory.
inline constexpr const char* kManifestFileName = "run_manifest.jsonl";

/// Default run-report filename inside the work directory.
inline constexpr const char* kReportFileName = "run_report.json";

/// Per-rank communication counters for one hybrid stage — the simpi
/// RankResults of that stage's world, kept verbatim so imbalance can be
/// recomputed from first principles. Stages run with nranks == 1 (and
/// stages skipped on resume) have no entry.
struct StageCommMetrics {
  std::string stage;                     ///< e.g. "chrysalis.graph_from_fasta"
  std::vector<simpi::RankResult> ranks;  ///< one entry per rank, in rank order

  /// Max-over-mean rank virtual time: 1.0 = perfectly balanced.
  [[nodiscard]] double skew_ratio() const { return simpi::skew_ratio(ranks); }
};

/// Everything a run produces, including the per-stage timings each figure
/// bench consumes.
struct PipelineResult {
  std::vector<seq::Sequence> contigs;                 ///< Inchworm output
  chrysalis::ComponentSet components;                 ///< Chrysalis bundles
  std::vector<chrysalis::ReadAssignment> assignments; ///< ReadsToTranscripts
  std::vector<seq::Sequence> transcripts;             ///< Butterfly output

  /// Distributed Bowtie timing; at nranks == 1 the modeled one-node
  /// alignment time fills align_seconds_{max,min}.
  align::DistributedBowtieTiming bowtie_timing;
  chrysalis::GffTiming gff_timing;
  chrysalis::R2TTiming r2t_timing;

  std::vector<util::PhaseRecord> trace;  ///< wall/CPU/RSS per stage

  /// Per-rank communication counters for each hybrid stage executed this
  /// run, in pipeline order (final attempt when a stage was retried).
  std::vector<StageCommMetrics> stage_comm;
  /// Path of the emitted JSON run report; empty when emit_report is false.
  std::string report_path;
  /// Path of the emitted Chrome trace; empty when tracing was disabled.
  std::string trace_file;

  /// Stage execution log: stages recomputed this run, in pipeline order.
  std::vector<std::string> stages_executed;
  /// Stages skipped because their checkpoint validated (resume runs).
  std::vector<std::string> stages_resumed;
  /// Stage re-launches performed by the retry driver (0 in fault-free runs).
  int stage_retries = 0;
  /// Subset of stage_retries caused by transient io::IoError (the retry
  /// driver fails fast on permanent ones).
  int io_retries = 0;
  /// Parse quarantine/repair counts over the whole run: the input-file read
  /// (run_pipeline_from_file) merged with the ReadsToTranscripts stream.
  /// All-zero under kStrict (a malformed record throws instead).
  io::ParseDiagnostics parse;
  /// Fingerprint this run recorded/validated manifest entries under.
  std::uint64_t options_fingerprint = 0;

  /// Modeled Chrysalis time (Bowtie + GraphFromFasta + ReadsToTranscripts),
  /// the quantity the paper's abstract reduces from >50 h to <5 h.
  [[nodiscard]] double chrysalis_virtual_seconds() const;
};

/// Runs the pipeline on in-memory reads. The reads are also written to
/// `<work_dir>/reads.fa` for the streaming stages.
PipelineResult run_pipeline(const std::vector<seq::Sequence>& reads,
                            const PipelineOptions& options);

/// Runs the pipeline on a FASTA/FASTQ file, read under
/// `options.parse_policy`; quarantine counts from that read surface in
/// PipelineResult::parse and the run report.
PipelineResult run_pipeline_from_file(const std::string& reads_path,
                                      const PipelineOptions& options);

}  // namespace trinity::pipeline
