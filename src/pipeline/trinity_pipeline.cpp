#include "pipeline/trinity_pipeline.hpp"

#include <algorithm>
#include <exception>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "align/sam_io.hpp"
#include "checkpoint/fingerprint.hpp"
#include "io/io_file.hpp"
#include "pipeline/run_report.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/span_recorder.hpp"
#include "chrysalis/components_io.hpp"
#include "chrysalis/scaffold.hpp"
#include "inchworm/inchworm.hpp"
#include "kmer/counter.hpp"
#include "seq/fasta.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace trinity::pipeline {

double PipelineResult::chrysalis_virtual_seconds() const {
  return bowtie_timing.total_seconds() + gff_timing.total_seconds() +
         r2t_timing.total_seconds();
}

std::uint64_t options_fingerprint(const PipelineOptions& options,
                                  const std::vector<seq::Sequence>& reads) {
  util::ContentHash reads_digest;
  for (const auto& r : reads) {
    reads_digest.update(r.name).update("\n").update(r.bases).update("\n");
  }
  return checkpoint::FingerprintBuilder()
      .add("k", static_cast<std::int64_t>(options.k))
      .add("min_kmer_count", static_cast<std::uint64_t>(options.min_kmer_count))
      .add("min_weld_support", static_cast<std::uint64_t>(options.min_weld_support))
      .add("max_mem_reads", static_cast<std::uint64_t>(options.max_mem_reads))
      .add("bowtie_scaffolding", options.bowtie_scaffolding)
      .add("run_seed", options.run_seed)
      .add("butterfly_min_node_support",
           static_cast<std::uint64_t>(options.butterfly_min_node_support))
      .add("butterfly_require_paired_support", options.butterfly_require_paired_support)
      .add("reads", reads_digest.digest())
      .digest();
}

namespace {

std::string ensure_work_dir(const PipelineOptions& options) {
  std::string dir = options.work_dir;
  if (dir.empty()) {
    dir = (std::filesystem::temp_directory_path() / "trinity_work").string();
  }
  std::filesystem::create_directories(dir);
  return dir;
}

// Stage artifact filenames (work-dir relative). components.txt follows the
// trinity_stages convention so the staged CLI and the pipeline interoperate.
constexpr const char* kReadsFile = "reads.fa";
constexpr const char* kKmersFile = "kmers.bin";
constexpr const char* kContigsFile = "inchworm.fa";
constexpr const char* kSamFile = "bowtie.sam";
constexpr const char* kComponentsFile = "components.txt";
constexpr const char* kAssignmentsFile = "readsToComponents.out.tsv";
constexpr const char* kTranscriptsFile = "Trinity.fa";

/// Returns the heap pages freed so far to the OS. The driver calls it
/// before each executing stage: hybrid stages allocate on simpi rank
/// threads and OpenMP workers, each in a malloc arena of its own, and an
/// arena keeps the pages of its freed blocks resident until it is
/// trimmed. Without it, a 4-rank run's later stages carried 40-60 MB that
/// no object held.
void release_free_memory() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

/// Records a hybrid stage's per-rank results, the run report's comm[]
/// section (replacing any earlier attempt's entry, so a retried stage
/// reports its final attempt).
void record_stage_comm(PipelineResult& result, const std::string& stage,
                       std::vector<simpi::RankResult> ranks) {
  StageCommMetrics metrics{stage, std::move(ranks)};
  for (auto& m : result.stage_comm) {
    if (m.stage == stage) {
      m = std::move(metrics);
      return;
    }
  }
  result.stage_comm.push_back(std::move(metrics));
}

/// Orchestrates one pipeline run as a sequence of checkpointed stages.
///
/// Each stage declares its input/output artifacts and two bodies: compute
/// (run the stage, writing its outputs) and load (rebuild the in-memory
/// products from the outputs of a previous run; empty where only a later
/// stage's compute body reads them, which then loads them itself). The driver decides per
/// stage whether to resume or execute, retries aborted simpi worlds, and
/// commits a manifest record after each completed stage. It hashes each
/// artifact once per run: a stage's outputs when it executes or resumes,
/// its inputs never, since they are earlier outputs already in hashed_.
class StageDriver {
 public:
  StageDriver(const PipelineOptions& options, std::string work_dir,
              util::ResourceTrace& trace, PipelineResult& result, std::string trace_ref,
              trace::SpanRecorder* recorder, double recorder_epoch_offset)
      : options_(options),
        work_dir_(std::move(work_dir)),
        manifest_path_(work_dir_ + "/" + kManifestFileName),
        trace_(trace),
        result_(result),
        trace_ref_(std::move(trace_ref)),
        recorder_(recorder),
        recorder_epoch_offset_(recorder_epoch_offset) {
    if (options_.checkpoint || options_.resume) {
      manifest_ = checkpoint::RunManifest::load(manifest_path_);
      if (manifest_.dropped_lines() > 0) {
        LOG_WARN() << "pipeline: dropped " << manifest_.dropped_lines()
                   << " corrupt manifest line(s) in " << manifest_path_;
      }
    } else {
      manifest_ = checkpoint::RunManifest(manifest_path_);
    }
    // One-shot budget across all stages and attempts of this run: a
    // transient injected fault fires once even when the stage is retried.
    fault_ = options_.fault;
    if (fault_.enabled()) fault_.arm();
  }

  void stage(const std::string& name, const std::vector<std::string>& inputs,
             const std::vector<std::string>& outputs,
             const std::function<void()>& compute, const std::function<void()>& load) {
    if (can_resume(name, outputs)) {
      trace_.phase(name + ".resumed", load);
      result_.stages_resumed.push_back(name);
      sync_trace();
      return;
    }
    chain_valid_ = false;  // everything downstream recomputes too
    release_free_memory();
    const Execution exec = execute_with_retry(name, compute);
    result_.stages_executed.push_back(name);
    if (options_.checkpoint) record(name, inputs, outputs, exec);
    sync_trace();
  }

  /// Stage-end trace maintenance: synthesizes one pipeline-category span
  /// (plus rss counter samples) for every ResourceTrace phase closed since
  /// the last call, then drains the recorder's thread buffers — the
  /// "drained at stage end" contract that bounds buffer occupancy. The
  /// span is stamped from the PhaseRecord itself, so the analyzer's stage
  /// wall times equal the run report's exactly; the (sub-microsecond)
  /// epoch skew between the resource-trace clock and the recorder clock is
  /// bridged by recorder_epoch_offset_.
  void sync_trace() {
    if (recorder_ == nullptr) return;
    const auto& phases = trace_.records();
    for (; synced_phases_ < phases.size(); ++synced_phases_) {
      const util::PhaseRecord& pr = phases[synced_phases_];
      trace::TraceEvent span;
      span.kind = trace::EventKind::kSpan;
      span.name = pr.name;
      span.category = trace::kCatPipeline;
      span.start_s = pr.start_seconds + recorder_epoch_offset_;
      span.dur_s = pr.wall_seconds;
      span.args.push_back({"cpu_s", pr.cpu_seconds});
      span.args.push_back({"rss_peak_b", static_cast<double>(pr.rss_peak)});
      for (const auto& c : pr.counters) span.args.push_back({c.name, c.value});
      recorder_->record(std::move(span));

      for (const auto& [offset, rss] :
           {std::pair<double, std::uint64_t>{0.0, pr.rss_before},
            std::pair<double, std::uint64_t>{pr.wall_seconds, pr.rss_after}}) {
        trace::TraceEvent sample;
        sample.kind = trace::EventKind::kCounter;
        sample.name = "rss_bytes";
        sample.category = trace::kCatPipeline;
        sample.start_s = pr.start_seconds + recorder_epoch_offset_ + offset;
        sample.value = static_cast<double>(rss);
        recorder_->record(std::move(sample));
      }
    }
    auto drained = recorder_->drain();
    events_.insert(events_.end(), std::make_move_iterator(drained.begin()),
                   std::make_move_iterator(drained.end()));
  }

  /// Everything drained so far (moved out once, at trace-write time).
  [[nodiscard]] std::vector<trace::TraceEvent> take_trace_events() {
    return std::move(events_);
  }

  [[nodiscard]] simpi::FaultPlan fault_for(const std::string& name) const {
    return options_.fault_stage == name ? fault_ : simpi::FaultPlan{};
  }

 private:
  bool can_resume(const std::string& name, const std::vector<std::string>& outputs) {
    if (!options_.resume || !chain_valid_) return false;
    const checkpoint::StageRecord* record = manifest_.find(name);
    if (record == nullptr) return false;
    auto check =
        checkpoint::validate_stage(*record, work_dir_, result_.options_fingerprint, hashed_);
    if (check == checkpoint::StageCheck::kValid) {
      for (const auto& a : record->outputs) hashed_[a.path] = a;
      // A record that omits a declared output (a hand-edited line) would
      // resume without that file ever being checked.
      if (std::all_of(outputs.begin(), outputs.end(),
                      [&](const std::string& p) { return hashed_.count(p) > 0; })) {
        return true;
      }
      check = checkpoint::StageCheck::kArtifactMissing;
    }
    LOG_INFO() << "pipeline: stage " << name << " not resumable (" << to_string(check)
               << "); re-running from here";
    return false;
  }

  struct Execution {
    double wall_seconds = 0.0;
    int attempts = 1;  ///< 1 when the stage succeeded first try
  };

  Execution execute_with_retry(const std::string& name, const std::function<void()>& compute) {
    const checkpoint::RetryPolicy& policy = options_.retry;
    for (int attempt = 1;; ++attempt) {
      std::exception_ptr error;
      const std::string label = attempt == 1 ? name : name + ".retry" + std::to_string(attempt);
      // The phase must close even when the stage throws, so the aborted
      // attempt still shows up in the trace; the exception is re-examined
      // outside.
      trace_.phase(label, [&] {
        try {
          compute();
        } catch (...) {
          error = std::current_exception();
        }
      });
      // The closed phase already measured this attempt's wall time.
      if (!error) return {trace_.records().back().wall_seconds, attempt};
      try {
        std::rethrow_exception(error);
      } catch (const simpi::RankFaultError& e) {
        handle_abort(name, e.what(), attempt, policy);
      } catch (const simpi::AbortedError& e) {
        handle_abort(name, e.what(), attempt, policy);
      } catch (const io::IoError& e) {
        // The typed-error contract: transient storage failures are retried
        // like an aborted world; permanent ones (ENOSPC, torn rename) fail
        // fast — the committed checkpoints are the recovery path.
        if (!e.transient()) throw;
        handle_abort(name, e.what(), attempt, policy);
        ++result_.io_retries;
      }
      // io::ParseError (malformed input) is deliberately not caught:
      // retrying cannot fix bytes that are wrong on disk.
      // Retrying: another writer may share the work dir (a re-launched
      // driver), so reread the manifest before the next attempt.
      manifest_ = checkpoint::RunManifest::load(manifest_path_);
      checkpoint::sleep_seconds(policy.backoff_for(attempt));
    }
  }

  /// Rethrows when the retry budget is exhausted; otherwise logs and counts.
  void handle_abort(const std::string& name, const char* what, int attempt,
                    const checkpoint::RetryPolicy& policy) {
    trace::instant("stage.abort", trace::kCatPipeline,
                   name + ": " + what, {{"attempt", static_cast<double>(attempt)}});
    if (attempt >= policy.max_attempts) throw;
    ++result_.stage_retries;
    LOG_WARN() << "pipeline: stage " << name << " aborted (" << what << "); retry "
               << attempt + 1 << "/" << policy.max_attempts;
  }

  void record(const std::string& name, const std::vector<std::string>& inputs,
              const std::vector<std::string>& outputs, const Execution& exec) {
    // Hashing the outputs and committing the manifest is the checkpoint
    // overhead; it gets its own trace phase so Fig-2/11-style traces (and
    // bench_checkpoint_overhead) can show it per stage.
    trace_.phase(name + ".checkpoint", [&] {
      util::Timer timer;
      std::uint64_t bytes = 0;
      checkpoint::StageRecord record;
      record.stage = name;
      record.fingerprint = result_.options_fingerprint;
      record.complete = true;
      record.attempt = exec.attempts;
      record.wall_seconds = exec.wall_seconds;
      record.trace = trace_ref_;
      for (const auto& p : outputs) {
        const auto& a = hashed_[p] = checkpoint::capture_artifact(work_dir_, p);
        bytes += a.bytes;
        record.outputs.push_back(a);
      }
      // Inputs are earlier stages' outputs, hashed when those ran or resumed.
      for (const auto& p : inputs) record.inputs.push_back(hashed_.at(p));
      record.checkpoint_seconds = timer.seconds();
      trace_.counter("checkpoint_bytes", static_cast<double>(bytes));
      manifest_.upsert(std::move(record));
      manifest_.commit();
    });
  }

  const PipelineOptions& options_;
  std::string work_dir_;
  std::string manifest_path_;
  util::ResourceTrace& trace_;
  PipelineResult& result_;
  checkpoint::RunManifest manifest_;
  checkpoint::ArtifactTable hashed_;  ///< artifacts hashed this run, by path
  simpi::FaultPlan fault_;
  std::string trace_ref_;  ///< run-report path stamped into stage records
  bool chain_valid_ = true;  ///< false after the first recomputed stage

  trace::SpanRecorder* recorder_;       ///< null when tracing is off
  double recorder_epoch_offset_;        ///< recorder time at ResourceTrace start
  std::size_t synced_phases_ = 0;       ///< phases already synthesized
  std::vector<trace::TraceEvent> events_;  ///< drained so far, in drain order
};

/// Shared body of run_pipeline / run_pipeline_from_file. `input_parse`
/// carries the quarantine counts of the input-file read when the caller
/// streamed the reads off disk (null when they arrived in memory).
PipelineResult run_pipeline_impl(const std::vector<seq::Sequence>& reads,
                                 const PipelineOptions& options,
                                 const io::ParseDiagnostics* input_parse) {
  if (options.nranks < 1) throw std::invalid_argument("run_pipeline: nranks must be >= 1");
  if (options.retry.max_attempts < 1) {
    throw std::invalid_argument("run_pipeline: retry.max_attempts must be >= 1");
  }
  if (options.r2t_mode == chrysalis::R2TMode::kIndex) {
    throw std::invalid_argument("run_pipeline: ReadsToTranscripts index mode was removed");
  }
  // Install the storage fault plan for the whole run; armed once so a
  // retried stage does not re-trip a consumed transient fault.
  io::ScopedFaultInjection io_fault_guard(options.io_fault);
  PipelineResult result;
  if (input_parse != nullptr) result.parse = *input_parse;
  const std::string work_dir = ensure_work_dir(options);
  const std::string reads_path = work_dir + "/" + kReadsFile;
  result.options_fingerprint = options_fingerprint(options, reads);

  // Resolve the run-report destination up front: stage manifest records
  // point at it (the "trace" field) as they are committed.
  const std::string report_path =
      !options.emit_report
          ? ""
          : (options.report_path.empty() ? work_dir + "/" + kReportFileName
                                         : options.report_path);
  const std::string report_ref =
      !options.emit_report
          ? ""
          : (options.report_path.empty() ? std::string(kReportFileName) : options.report_path);

  // Span tracing: off unless trace_path is set. The recorder is installed
  // process-wide for the run; everything instrumented (simpi collectives,
  // loop chunks, io calls) records into it, and the driver drains it at
  // every stage boundary.
  const std::string trace_path =
      options.trace_path.empty()
          ? ""
          : (options.trace_path.front() == '/' ? options.trace_path
                                               : work_dir + "/" + options.trace_path);
  std::unique_ptr<trace::SpanRecorder> recorder;
  std::optional<trace::ScopedRecording> recording;
  if (!trace_path.empty()) {
    recorder = std::make_unique<trace::SpanRecorder>();
    recording.emplace(recorder.get());
  }

  util::ResourceTrace trace(options.trace_sample_interval_ms);
  // Pipeline stage spans are stamped on the ResourceTrace clock; measure
  // its epoch on the recorder clock so the two align on one timeline.
  const double recorder_epoch_offset = recorder ? recorder->now() : 0.0;
  StageDriver driver(options, work_dir, trace, result, report_ref, recorder.get(),
                     recorder_epoch_offset);

  // Stage files: Trinity modules exchange data through the filesystem —
  // which is exactly what makes them checkpoints.
  driver.stage(
      "write_input", {}, {kReadsFile},
      [&] { seq::write_fasta(reads_path, reads); },  //
      [&] {});  // reads are already in memory; the file validated on disk

  // --- Jellyfish: k-mer counting --------------------------------------------
  kmer::CounterOptions counter_options;
  counter_options.k = options.k;
  counter_options.canonical = true;
  counter_options.num_threads = options.omp_threads;
  kmer::KmerCounter counter(counter_options);
  std::vector<kmer::KmerCount> counts;
  // A resumed stage loads nothing: its products stay on disk until the
  // body of an executing reader loads them (guarded by these flags, since
  // a retry runs that body again). A fully resumed run reads neither.
  bool counted = false;  // counter and counts hold this run's k-mer counts
  bool aligned = false;  // sam holds this run's alignments
  driver.stage(
      "jellyfish", {kReadsFile}, {kKmersFile},
      [&] {
        // Only the k-mers some consumer keeps: Inchworm prunes below
        // min_kmer_count and a weld needs min_weld_support. count_solid
        // replaces the counter's contents, so a retry of this body (e.g.
        // after a transient I/O failure on the dump) counts afresh.
        counter.count_solid(reads, std::min(options.min_kmer_count, options.min_weld_support));
        counts = counter.dump();
        kmer::write_dump_binary(work_dir + "/" + kKmersFile, counts, options.k);
        counted = true;
      },
      [&] {});

  // --- Inchworm: greedy contigs ---------------------------------------------
  driver.stage(
      "inchworm", {kKmersFile}, {kContigsFile},
      [&] {
        if (!counted) counts = kmer::read_dump_binary(work_dir + "/" + kKmersFile, options.k);
        inchworm::InchwormOptions iw;
        iw.k = options.k;
        iw.min_kmer_count = options.min_kmer_count;
        // Keep isoform-junction fragments: a branch leftover is ~2k-2 bases,
        // and Chrysalis needs it to weld the isoforms into one component.
        iw.min_contig_length = static_cast<std::size_t>(options.k);
        iw.tie_break_seed = options.run_seed;
        inchworm::Inchworm assembler(iw);
        assembler.load_counts(counts);
        result.contigs = assembler.assemble();
        seq::write_fasta(work_dir + "/" + kContigsFile, result.contigs);
      },
      [&] { result.contigs = seq::read_all(work_dir + "/" + kContigsFile); });
  // Each stage's data is dropped once the last stage reading it is done
  // (never inside a stage body, which a retry runs again):
  // the dump after Inchworm, the SAM records after scaffolding, the read
  // k-mer counter after GraphFromFasta.
  counts = std::vector<kmer::KmerCount>();

  // --- Chrysalis ---------------------------------------------------------------
  align::AlignerOptions aligner_options;
  aligner_options.num_threads = options.omp_threads;
  aligner_options.kernel_repeats = options.bowtie_kernel_repeats;
  aligner_options.model_threads_per_rank = options.model_threads_per_rank;

  std::vector<align::SamRecord> sam;
  driver.stage(
      "chrysalis.bowtie", {kContigsFile, kReadsFile}, {kSamFile},
      [&] {
        if (options.nranks == 1) {
          util::ThreadCpuTimer cpu;
          // The records are built once the index (and its copy of the
          // contigs) is gone and its pages are back with the OS: while it
          // lives, a read holds a Placement. Left in malloc's free lists,
          // those pages did not take the records, whose ~20 MB then came
          // on top of the index's peak.
          std::vector<align::Placement> placements;
          {
            const align::ContigIndex index(result.contigs, aligner_options);
            placements = align::SeedExtendAligner(index).place_reads(reads);
          }
          release_free_memory();
          sam = align::sam_records(reads, placements, result.contigs);
          // One node with model_threads_per_rank threads: the aligner loop is
          // embarrassingly parallel, so model the division directly.
          result.bowtie_timing.align_seconds_max = result.bowtie_timing.align_seconds_min =
              cpu.seconds() / static_cast<double>(std::max(options.model_threads_per_rank, 1));
          align::write_sam(work_dir + "/" + kSamFile, sam, result.contigs);
        } else {
          auto rank_results = simpi::run(
              options.nranks,
              [&](simpi::Context& ctx) {
                auto dist = align::distributed_bowtie(ctx, result.contigs, reads,
                                                      aligner_options, options.bowtie_split);
                if (ctx.rank() == 0) {
                  sam = std::move(dist.records);
                  result.bowtie_timing = dist.timing;
                  align::write_sam(work_dir + "/" + kSamFile, sam, result.contigs);
                }
              },
              options.comm, driver.fault_for("chrysalis.bowtie"));
          record_stage_comm(result, "chrysalis.bowtie", std::move(rank_results));
        }
        aligned = true;
      },
      [&] {});

  // Scaffolding is the SAM records' only reader. When Bowtie resumed,
  // GraphFromFasta's body derives the pairs from bowtie.sam instead.
  std::vector<chrysalis::ContigPair> scaffold;
  bool scaffolded = !options.bowtie_scaffolding;
  if (aligned && !scaffolded) {
    scaffold = chrysalis::scaffold_pairs(sam, result.contigs, chrysalis::ScaffoldOptions{});
    scaffolded = true;
  }
  sam = std::vector<align::SamRecord>();
  const auto load_sam = [&] {
    // write_sam's @SQ header lists the contigs in index order, so the
    // parsed target ids already match; the name map guards against a
    // hand-edited file that still hashes clean (impossible) or future
    // format drift.
    auto sam_file = align::read_sam(work_dir + "/" + kSamFile);
    std::unordered_map<std::string, std::int32_t> id_of;
    for (std::size_t i = 0; i < result.contigs.size(); ++i) {
      id_of.emplace(result.contigs[i].name, static_cast<std::int32_t>(i));
    }
    for (auto& r : sam_file.records) {
      if (!r.aligned()) continue;
      const auto it = id_of.find(r.target_name);
      if (it == id_of.end()) {
        throw std::runtime_error("resume: bowtie.sam references unknown contig " +
                                 r.target_name);
      }
      r.target_id = it->second;
    }
    return std::move(sam_file.records);
  };

  chrysalis::GraphFromFastaOptions gff;
  gff.k = options.k;
  gff.min_weld_support = options.min_weld_support;
  gff.omp_threads = options.omp_threads;
  gff.model_threads_per_rank = options.model_threads_per_rank;
  gff.kernel_repeats = options.gff_kernel_repeats;
  gff.distribution = options.gff_distribution;
  gff.sharding = options.gff_sharding;

  driver.stage(
      "chrysalis.graph_from_fasta", {kContigsFile, kKmersFile, kSamFile}, {kComponentsFile},
      [&] {
        if (!counted) {
          counter = kmer::KmerCounter(counter_options);
          counter.add_counts(kmer::read_dump_binary(work_dir + "/" + kKmersFile, options.k));
          counted = true;
        }
        if (!scaffolded) {
          scaffold = chrysalis::scaffold_pairs(load_sam(), result.contigs,
                                               chrysalis::ScaffoldOptions{});
          scaffolded = true;
        }
        if (options.nranks == 1) {
          auto r = chrysalis::run_shared(result.contigs, counter, gff, scaffold);
          result.components = std::move(r.components);
          result.gff_timing = r.timing;
        } else {
          auto rank_results = simpi::run(
              options.nranks,
              [&](simpi::Context& ctx) {
                auto r = chrysalis::run_hybrid(ctx, result.contigs, counter, gff, scaffold);
                if (ctx.rank() == 0) {
                  result.components = std::move(r.components);
                  result.gff_timing = r.timing;
                }
              },
              options.comm, driver.fault_for("chrysalis.graph_from_fasta"));
          record_stage_comm(result, "chrysalis.graph_from_fasta", std::move(rank_results));
        }
        chrysalis::write_components(work_dir + "/" + kComponentsFile, result.components);
      },
      [&] {
        result.components = chrysalis::read_components(work_dir + "/" + kComponentsFile);
      });
  counter = kmer::KmerCounter(counter_options);

  chrysalis::ReadsToTranscriptsOptions r2t;
  r2t.k = options.k;
  r2t.max_mem_reads = options.max_mem_reads;
  r2t.omp_threads = options.omp_threads;
  r2t.model_threads_per_rank = options.model_threads_per_rank;
  r2t.kernel_repeats = options.r2t_kernel_repeats;
  r2t.strategy = options.r2t_strategy;
  r2t.parse_policy = options.parse_policy;

  // Assigned (not merged) in the stage body: idempotent across retries.
  io::ParseDiagnostics r2t_parse;
  driver.stage(
      "chrysalis.reads_to_transcripts", {kContigsFile, kComponentsFile, kReadsFile},
      {kAssignmentsFile},
      [&] {
        if (options.nranks == 1) {
          auto r = chrysalis::run_shared(result.contigs, result.components, reads_path, r2t,
                                         work_dir);
          result.assignments = std::move(r.assignments);
          result.r2t_timing = r.timing;
          r2t_parse = r.parse;
        } else {
          auto rank_results = simpi::run(
              options.nranks,
              [&](simpi::Context& ctx) {
                auto r = chrysalis::run_hybrid(ctx, result.contigs, result.components,
                                               reads_path, r2t, work_dir);
                if (ctx.rank() == 0) {
                  result.assignments = std::move(r.assignments);
                  result.r2t_timing = r.timing;
                  r2t_parse = r.parse;
                }
              },
              options.comm, driver.fault_for("chrysalis.reads_to_transcripts"));
          record_stage_comm(result, "chrysalis.reads_to_transcripts", std::move(rank_results));
        }
        trace.counter("parse_quarantined", static_cast<double>(r2t_parse.records_quarantined()));
        trace.counter("parse_repaired", static_cast<double>(r2t_parse.records_repaired));
      },
      [&] {
        result.assignments =
            chrysalis::read_assignments(work_dir + "/" + kAssignmentsFile);
      });

  // --- Butterfly (includes FastaToDebruijn + QuantifyGraph per component) ---
  driver.stage(
      "butterfly", {kContigsFile, kComponentsFile, kAssignmentsFile, kReadsFile},
      {kTranscriptsFile},
      [&] {
        butterfly::ButterflyOptions bf;
        bf.k = options.k;
        bf.tie_break_seed = options.run_seed;
        bf.min_node_support = options.butterfly_min_node_support;
        bf.require_paired_support = options.butterfly_require_paired_support;
        result.transcripts = butterfly::run_butterfly(result.contigs, result.components,
                                                      result.assignments, reads, bf);
        seq::write_fasta(work_dir + "/" + kTranscriptsFile, result.transcripts);
      },
      [&] { result.transcripts = seq::read_all(work_dir + "/" + kTranscriptsFile); });

  result.parse.merge(r2t_parse);
  result.trace = trace.records();
  if (recorder) {
    driver.sync_trace();  // catch events recorded after the last stage
    recording.reset();    // uninstall before writing the file
    trace::ChromeTraceMeta meta;
    meta.dropped_events = recorder->dropped_events();
    // Through the io layer: the trace write obeys the same fault-injection
    // and typed-error contract as every other durable artifact.
    io::write_file(trace_path,
                   trace::chrome_trace_text(driver.take_trace_events(), meta));
    result.trace_file = trace_path;
  }
  if (options.emit_report) {
    result.report_path = report_path;
    write_run_report(report_path, build_run_report(options, result));
  }
  return result;
}

}  // namespace

PipelineResult run_pipeline(const std::vector<seq::Sequence>& reads,
                            const PipelineOptions& options) {
  return run_pipeline_impl(reads, options, nullptr);
}

PipelineResult run_pipeline_from_file(const std::string& reads_path,
                                      const PipelineOptions& options) {
  io::ParseDiagnostics input_parse;
  const auto reads = seq::read_all(reads_path, options.parse_policy, &input_parse);
  return run_pipeline_impl(reads, options, &input_parse);
}

}  // namespace trinity::pipeline
