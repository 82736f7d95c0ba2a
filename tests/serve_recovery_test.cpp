// Crash-safety for the serve layer: the durable job journal (append,
// replay, torn-tail tolerance, injected storage faults), and restart
// recovery — a server rebuilt over a journal prefix re-admits queued and
// in-flight jobs, resumes their checkpoint manifests byte-identically
// with zero duplicated stage work, keeps terminal ids registered
// (quarantine rejection survives restarts), and degrades to journal-less
// serving when the journal device itself fails.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "io/error.hpp"
#include "io/io_file.hpp"
#include "pipeline/run_report.hpp"
#include "pipeline/trinity_pipeline.hpp"
#include "seq/fasta.hpp"
#include "serve/journal.hpp"
#include "serve/server.hpp"
#include "sim/transcriptome.hpp"
#include "test_helpers.hpp"
#include "util/json.hpp"

namespace trinity::serve {
namespace {

using trinity::testing::TempDir;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Simulated reads written to disk once, shared by every test job.
const std::string& shared_reads_path() {
  static const std::string path = [] {
    auto p = sim::preset("tiny");
    p.reads.coverage = 25.0;
    p.reads.expression_sigma = 0.7;
    const auto data = sim::simulate_dataset(p);
    static TempDir dir("serve_rec_reads");  // outlives every test in the binary
    const std::string reads = dir.file("reads.fa");
    seq::write_fasta(reads, data.reads.reads);
    return reads;
  }();
  return path;
}

/// Byte-reproducible job options (single OpenMP thread, no RSS sampler).
pipeline::PipelineOptions job_options(int nranks = 2) {
  pipeline::PipelineOptions o;
  o.k = 15;
  o.nranks = nranks;
  o.omp_threads = 1;
  o.model_threads_per_rank = 4;
  o.trace_sample_interval_ms = 0;
  return o;
}

JobSpec make_spec(const std::string& tenant, const std::string& job_id) {
  JobSpec spec;
  spec.tenant = tenant;
  spec.job_id = job_id;
  spec.reads_path = shared_reads_path();
  spec.options = job_options();
  return spec;
}

JobStatus status_of(const JobServer& server, const std::string& job_id) {
  for (const auto& job : server.jobs()) {
    if (job.job_id == job_id) return job;
  }
  ADD_FAILURE() << "no job " << job_id;
  return {};
}

JournalEvent event(const std::string& type, const std::string& job_id,
                   const std::string& tenant, std::int64_t seq, int attempts = 0,
                   const std::string& detail = {}) {
  JournalEvent ev;
  ev.event = type;
  ev.job_id = job_id;
  ev.tenant = tenant;
  ev.seq = seq;
  ev.attempts = attempts;
  ev.detail = detail;
  return ev;
}

int count_events(const std::string& journal_path, const std::string& type,
                 const std::string& job_id) {
  int n = 0;
  for (const JournalEvent& ev : JobJournal::replay(journal_path).events) {
    if (ev.event == type && ev.job_id == job_id) ++n;
  }
  return n;
}

bool contains(const std::vector<std::string>& haystack, const std::string& needle) {
  for (const auto& s : haystack) {
    if (s == needle) return true;
  }
  return false;
}

std::vector<std::string> string_list(const util::Json& report, const std::string& key) {
  std::vector<std::string> out;
  for (const util::Json& item : report.at(key).items()) out.push_back(item.as_string());
  return out;
}

// --- journal format ---------------------------------------------------------------

TEST(Journal, EventRoundTripsThroughLine) {
  JournalEvent ev = event("quarantine", "j7", "alice", 42, 3, "transient: EIO");
  ev.preemptions = 2;
  const JournalEvent back = JournalEvent::from_line(ev.to_line());
  EXPECT_EQ(back.event, "quarantine");
  EXPECT_EQ(back.job_id, "j7");
  EXPECT_EQ(back.tenant, "alice");
  EXPECT_EQ(back.seq, 42);
  EXPECT_EQ(back.attempts, 3);
  EXPECT_EQ(back.preemptions, 2);
  EXPECT_EQ(back.detail, "transient: EIO");
  EXPECT_TRUE(back.spec.is_null());
}

TEST(Journal, SubmitEventCarriesReplayableSpecPayload) {
  JournalEvent ev = event("submit", "j1", "t", 1);
  ev.spec = job_spec_to_json(make_spec("t", "j1"));
  const JournalEvent back = JournalEvent::from_line(ev.to_line());
  ASSERT_FALSE(back.spec.is_null());
  const JobSpec spec = parse_job_spec_text(back.spec.dump(), "<test>");
  EXPECT_EQ(spec.tenant, "t");
  EXPECT_EQ(spec.job_id, "j1");
  EXPECT_EQ(spec.reads_path, shared_reads_path());
  EXPECT_EQ(spec.options.k, 15);
}

TEST(Journal, MalformedLineIsTypedError) {
  EXPECT_THROW((void)JournalEvent::from_line("not json"), std::runtime_error);
  EXPECT_THROW((void)JournalEvent::from_line(R"({"job_id": "x"})"), std::runtime_error);
}

// --- replay -----------------------------------------------------------------------

TEST(Journal, ReplayOfMissingFileIsEmpty) {
  const JournalReplay replay = JobJournal::replay("/nonexistent/journal.jsonl");
  EXPECT_TRUE(replay.events.empty());
  EXPECT_EQ(replay.valid_bytes, 0u);
  EXPECT_EQ(replay.dropped_lines, 0);
}

TEST(Journal, ReplayDropsTornTailAndTruncateHeals) {
  const TempDir dir("journal_torn");
  const std::string path = dir.file("journal.jsonl");
  {
    JobJournal journal(path);
    journal.append(event("submit", "j1", "t", 1));
    journal.append(event("dispatch", "j1", "t", 1, 1));
    journal.append(event("complete", "j1", "t", 1, 1));
  }
  const auto clean_bytes = std::filesystem::file_size(path);
  {
    // A crash mid-append leaves a torn half-line with no newline.
    std::ofstream torn(path, std::ios::app | std::ios::binary);
    torn << R"({"event": "requ)";
  }

  const JournalReplay replay = JobJournal::replay(path);
  EXPECT_EQ(replay.events.size(), 3u);
  EXPECT_EQ(replay.dropped_lines, 1);
  EXPECT_EQ(replay.valid_bytes, clean_bytes);

  JobJournal::truncate_to(path, replay.valid_bytes);
  const JournalReplay healed = JobJournal::replay(path);
  EXPECT_EQ(healed.events.size(), 3u);
  EXPECT_EQ(healed.dropped_lines, 0);

  // Appends after healing start on a clean line.
  JobJournal journal(path);
  journal.append(event("recover", "j1", "t", 1, 1));
  EXPECT_EQ(JobJournal::replay(path).events.size(), 4u);
}

TEST(Journal, ReplaySkipsMidFileGarbage) {
  const TempDir dir("journal_garbage");
  const std::string path = dir.file("journal.jsonl");
  {
    JobJournal journal(path);
    journal.append(event("submit", "j1", "t", 1));
  }
  {
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << "#### corrupted by a stray writer ####\n";
  }
  {
    JobJournal journal(path);
    journal.append(event("dispatch", "j1", "t", 1, 1));
  }
  const JournalReplay replay = JobJournal::replay(path);
  EXPECT_EQ(replay.events.size(), 2u);
  EXPECT_EQ(replay.dropped_lines, 1);
  // The last line parses cleanly, so the whole file is "valid prefix".
  EXPECT_EQ(replay.valid_bytes, std::filesystem::file_size(path));
}

TEST(Journal, ReplayNeverThrowsAtAnyCrashOffset) {
  // Kill-at-every-byte over the journal: a crash can truncate the file at
  // any offset, and replay must absorb every one of them.
  const TempDir dir("journal_prefix");
  const std::string path = dir.file("journal.jsonl");
  {
    JobJournal journal(path);
    journal.append(event("submit", "j1", "t", 1));
    journal.append(event("dispatch", "j1", "t", 1, 1));
    journal.append(event("complete", "j1", "t", 1, 1));
  }
  const std::string bytes = slurp(path);
  std::size_t last_events = 0;
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    const std::string prefix_path = dir.file("prefix.jsonl");
    {
      std::ofstream out(prefix_path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(cut));
    }
    JournalReplay replay;
    ASSERT_NO_THROW(replay = JobJournal::replay(prefix_path)) << "cut at " << cut;
    EXPECT_LE(replay.valid_bytes, cut);
    EXPECT_GE(replay.events.size(), last_events)
        << "recovered events went backwards at cut " << cut;
    last_events = replay.events.size();
  }
  EXPECT_EQ(last_events, 3u);
}

// --- injected storage faults against the journal itself ---------------------------

TEST(Journal, AppendFaultMatrix) {
  struct Case {
    const char* kind;
    bool transient;
    std::size_t recovered_events;  // after: ok, faulted, ok appends
    int dropped;
  };
  // enospc/eio fail before any bytes land: the faulted event is lost and
  // later appends are clean. A short write leaves a torn half-line that
  // the next append extends, so the two records fuse into one bad line.
  const Case cases[] = {
      {"enospc", false, 2, 0},
      {"eio", true, 2, 0},
      {"short_write", true, 1, 1},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.kind);
    const TempDir dir("journal_fault");
    const std::string path = dir.file("journal.jsonl");
    JobJournal journal(path);
    journal.append(event("submit", "j1", "t", 1));
    {
      io::ScopedFaultInjection guard(
          io::IoFaultPlan::parse(std::string("write:*journal.jsonl:1:") + c.kind));
      try {
        journal.append(event("dispatch", "j1", "t", 1, 1));
        FAIL() << "expected io::IoError";
      } catch (const io::IoError& e) {
        EXPECT_EQ(e.transient(), c.transient);
      }
      journal.append(event("complete", "j1", "t", 1, 1));
    }
    const JournalReplay replay = JobJournal::replay(path);
    EXPECT_EQ(replay.events.size(), c.recovered_events);
    EXPECT_EQ(replay.dropped_lines, c.dropped);
    // Healing the torn prefix leaves a journal later appends extend cleanly.
    JobJournal::truncate_to(path, replay.valid_bytes);
    JobJournal healed(path);
    healed.append(event("recover", "j1", "t", 1, 1));
    EXPECT_EQ(JobJournal::replay(path).events.size(), c.recovered_events + 1);
  }
}

TEST(Journal, FsyncFaultLosesNoBytes) {
  // The write landed before the fsync failed: the event is durable, the
  // caller just cannot prove it yet. Replay sees every line.
  const TempDir dir("journal_fsync");
  const std::string path = dir.file("journal.jsonl");
  JobJournal journal(path);
  journal.append(event("submit", "j1", "t", 1));
  {
    io::ScopedFaultInjection guard(
        io::IoFaultPlan::parse("fsync:*journal.jsonl:1:eio"));
    EXPECT_THROW(journal.append(event("dispatch", "j1", "t", 1, 1)), io::IoError);
  }
  journal.append(event("complete", "j1", "t", 1, 1));
  EXPECT_EQ(JobJournal::replay(path).events.size(), 3u);
}

// --- server lifecycle journaling --------------------------------------------------

TEST(ServeRecovery, ServerJournalsEveryTransition) {
  const TempDir root("serve_journal");
  ServerOptions options;
  options.total_ranks = 4;
  options.root_dir = root.str();
  {
    JobServer server(options);
    ASSERT_TRUE(server.submit(make_spec("t", "j1")).accepted());
    server.drain();
    EXPECT_EQ(status_of(server, "j1").state, JobState::kCompleted);
  }

  const JournalReplay replay = JobJournal::replay(root.str() + "/journal.jsonl");
  ASSERT_EQ(replay.events.size(), 3u);
  EXPECT_EQ(replay.events[0].event, "submit");
  ASSERT_FALSE(replay.events[0].spec.is_null());
  EXPECT_EQ(replay.events[1].event, "dispatch");
  EXPECT_EQ(replay.events[1].attempts, 1);  // tentative: this dispatch's budget
  EXPECT_EQ(replay.events[2].event, "complete");
  EXPECT_EQ(replay.events[2].attempts, 1);

  // The submit payload is the full re-admittable spec document.
  const JobSpec spec =
      parse_job_spec_text(replay.events[0].spec.dump(), "<journal>");
  EXPECT_EQ(spec.job_id, "j1");
  EXPECT_EQ(spec.tenant, "t");
}

TEST(ServeRecovery, RejectsAreJournaledButNeverReplayed) {
  const TempDir root("serve_rej_journal");
  ServerOptions options;
  options.total_ranks = 4;
  options.root_dir = root.str();
  {
    JobServer server(options);
    JobSpec bad = make_spec("t", "wide");
    bad.options.nranks = 64;  // permanent reject: pool has 4
    EXPECT_EQ(server.submit(std::move(bad)).code, AdmitCode::kPoolTooSmall);
  }
  EXPECT_EQ(count_events(root.str() + "/journal.jsonl", "reject", "wide"), 1);

  // A restart does not resurrect the rejected job.
  JobServer server(options);
  server.drain();
  EXPECT_TRUE(server.jobs().empty());
}

// --- restart recovery -------------------------------------------------------------

/// Baseline transcripts for make_spec jobs, from an uninterrupted server.
const std::string& baseline_transcripts() {
  static const std::string baseline = [] {
    static TempDir root("serve_rec_ctl");
    ServerOptions options;
    options.total_ranks = 4;
    options.root_dir = root.str();
    JobServer server(options);
    EXPECT_TRUE(server.submit(make_spec("t", "ctl")).accepted());
    server.drain();
    return slurp(root.str() + "/t/ctl/Trinity.fa");
  }();
  return baseline;
}

TEST(ServeRecovery, ResumesJobKilledMidChrysalisByteIdentical) {
  const std::string baseline = baseline_transcripts();
  ASSERT_FALSE(baseline.empty());

  // Crash simulation: run the job's pipeline directly in its server work
  // dir until an unrecovered rank fault aborts it mid-Chrysalis — exactly
  // the on-disk state a kill -9 leaves: a checkpoint manifest covering the
  // committed stages, no transcripts.
  const TempDir root("serve_rec_resume");
  const std::string work_dir = root.str() + "/t/j1";
  std::filesystem::create_directories(work_dir);
  pipeline::PipelineOptions crashed = job_options();
  crashed.work_dir = work_dir;
  crashed.checkpoint = true;
  crashed.fault.rank = 1;
  crashed.fault.after_virtual_seconds = 0.0;
  crashed.fault_stage = "chrysalis.graph_from_fasta";
  crashed.retry.max_attempts = 1;  // the fault escapes: the "crash"
  EXPECT_THROW((void)pipeline::run_pipeline_from_file(shared_reads_path(), crashed),
               simpi::RankFaultError);
  ASSERT_TRUE(
      std::filesystem::exists(work_dir + "/" + pipeline::kManifestFileName));
  ASSERT_FALSE(std::filesystem::exists(work_dir + "/Trinity.fa"));

  // The journal the dead server left behind: the job was submitted and
  // mid-dispatch (attempt 1) when the process died.
  {
    JobJournal journal(root.str() + "/journal.jsonl");
    JournalEvent submit = event("submit", "j1", "t", 1);
    submit.spec = job_spec_to_json(make_spec("t", "j1"));
    journal.append(submit);
    journal.append(event("dispatch", "j1", "t", 1, 1));
  }

  ServerOptions options;
  options.total_ranks = 4;
  options.root_dir = root.str();
  JobServer server(options);
  server.drain();

  const JobStatus status = status_of(server, "j1");
  EXPECT_EQ(status.state, JobState::kCompleted);
  EXPECT_TRUE(status.recovered);
  EXPECT_EQ(status.attempts, 2);  // crashed attempt 1 + the recovered run
  EXPECT_EQ(status.dispatches, 1);

  // Byte-identical to an uninterrupted run, with the pre-crash stages
  // resumed from their checkpoints rather than re-executed.
  EXPECT_EQ(slurp(work_dir + "/Trinity.fa"), baseline);
  const util::Json report =
      util::Json::parse(slurp(work_dir + "/" + pipeline::kReportFileName));
  EXPECT_EQ(report.at("attempts").as_int(), 2);
  EXPECT_EQ(report.at("outcome").as_string(), "completed");
  EXPECT_TRUE(report.at("recovered").as_bool());
  const auto resumed = string_list(report, "stages_resumed");
  const auto executed = string_list(report, "stages_executed");
  for (const char* stage : {"write_input", "jellyfish", "inchworm"}) {
    EXPECT_TRUE(contains(resumed, stage)) << stage << " was not resumed";
    EXPECT_FALSE(contains(executed, stage)) << stage << " was duplicated";
  }
  EXPECT_TRUE(contains(executed, "butterfly"));

  // Recovery is visible in the ledger and journaled exactly once.
  EXPECT_EQ(server.accounting().account("t").jobs_recovered, 1);
  EXPECT_EQ(count_events(root.str() + "/journal.jsonl", "recover", "j1"), 1);
  EXPECT_EQ(count_events(root.str() + "/journal.jsonl", "complete", "j1"), 1);
}

TEST(ServeRecovery, RestartAtEveryJournalPrefixIsByteIdenticalWithoutRework) {
  const std::string baseline = baseline_transcripts();
  ASSERT_FALSE(baseline.empty());

  // One complete server session: journal = submit, dispatch, complete.
  const TempDir origin("serve_rec_origin");
  ServerOptions options;
  options.total_ranks = 4;
  options.root_dir = origin.str();
  {
    JobServer server(options);
    ASSERT_TRUE(server.submit(make_spec("t", "j1")).accepted());
    server.drain();
  }
  const std::string journal_bytes = slurp(origin.str() + "/journal.jsonl");
  std::vector<std::size_t> line_ends;
  for (std::size_t i = 0; i < journal_bytes.size(); ++i) {
    if (journal_bytes[i] == '\n') line_ends.push_back(i + 1);
  }
  ASSERT_EQ(line_ends.size(), 3u);

  // Kill-at-every-transition: restart a server over a copy of the root
  // whose journal stops after the Nth event. Every prefix must converge to
  // the same bytes, with the completed stages never re-executed.
  for (std::size_t keep = 1; keep <= line_ends.size(); ++keep) {
    SCOPED_TRACE("journal truncated after event " + std::to_string(keep));
    const TempDir copy("serve_rec_prefix");
    std::filesystem::copy(origin.str(), copy.str(),
                          std::filesystem::copy_options::recursive);
    std::filesystem::resize_file(copy.str() + "/journal.jsonl", line_ends[keep - 1]);

    ServerOptions restart = options;
    restart.root_dir = copy.str();
    JobServer server(restart);
    server.drain();

    const JobStatus status = status_of(server, "j1");
    EXPECT_EQ(status.state, JobState::kCompleted);
    EXPECT_EQ(slurp(copy.str() + "/t/j1/Trinity.fa"), baseline);
    EXPECT_EQ(count_events(copy.str() + "/journal.jsonl", "complete", "j1"), 1)
        << "terminal event duplicated";
    if (keep == 3) {
      // The complete line survived: the job is historical, never re-run.
      EXPECT_EQ(status.dispatches, 0);
      EXPECT_FALSE(status.recovered);
    } else {
      // Submit (and maybe dispatch) survived: the job is re-admitted and
      // its single recovered dispatch resumes every committed stage.
      EXPECT_TRUE(status.recovered);
      EXPECT_EQ(status.dispatches, 1);
      const util::Json report = util::Json::parse(
          slurp(copy.str() + "/t/j1/" + pipeline::kReportFileName));
      EXPECT_TRUE(string_list(report, "stages_executed").empty())
          << "a completed stage was re-executed";
      EXPECT_FALSE(string_list(report, "stages_resumed").empty());
    }
  }
}

TEST(ServeRecovery, QuarantineOutlivesRestart) {
  const TempDir root("serve_rec_quar");
  {
    JobJournal journal(root.str() + "/journal.jsonl");
    JournalEvent submit = event("submit", "poison", "t", 1);
    submit.spec = job_spec_to_json(make_spec("t", "poison"));
    journal.append(submit);
    journal.append(event("dispatch", "poison", "t", 1, 3));
    journal.append(event("quarantine", "poison", "t", 1, 3, "transient: injected EIO"));
  }
  ServerOptions options;
  options.total_ranks = 4;
  options.root_dir = root.str();
  JobServer server(options);
  server.drain();

  const JobStatus status = status_of(server, "poison");
  EXPECT_EQ(status.state, JobState::kQuarantined);
  EXPECT_EQ(status.outcome, JobOutcome::kQuarantined);
  EXPECT_EQ(status.dispatches, 0);  // history, not re-run

  const AdmitResult again = server.submit(make_spec("t", "poison"));
  EXPECT_EQ(again.code, AdmitCode::kInvalidSpec);
  EXPECT_NE(again.detail.find("quarantined"), std::string::npos);
}

TEST(ServeRecovery, CrashLoopingJobIsQuarantinedAtRecovery) {
  // The journal shows the job's third dispatch with no terminal line: the
  // job has crashed the server (or been crashed) every time it ran. With a
  // budget of 3 it must not be re-admitted a fourth time.
  const TempDir root("serve_rec_loop");
  {
    JobJournal journal(root.str() + "/journal.jsonl");
    JournalEvent submit = event("submit", "looper", "t", 1);
    submit.spec = job_spec_to_json(make_spec("t", "looper"));
    journal.append(submit);
    journal.append(event("dispatch", "looper", "t", 1, 3));
  }
  ServerOptions options;
  options.total_ranks = 4;
  options.root_dir = root.str();
  JobServer server(options);
  server.drain();

  const JobStatus status = status_of(server, "looper");
  EXPECT_EQ(status.state, JobState::kQuarantined);
  EXPECT_NE(status.error.find("attempt budget exhausted"), std::string::npos);
  EXPECT_EQ(status.dispatches, 0);
  EXPECT_EQ(count_events(root.str() + "/journal.jsonl", "quarantine", "looper"), 1);

  // The quarantine wrote a terminal report, so `trinity_report --aggregate`
  // sees the poison job from artifacts alone.
  const util::Json report = util::Json::parse(
      slurp(root.str() + "/t/looper/" + pipeline::kReportFileName));
  EXPECT_EQ(report.at("outcome").as_string(), "quarantined");
  EXPECT_EQ(report.at("attempts").as_int(), 3);
}

TEST(ServeRecovery, UnreplayableSpecRegistersAsFailedNotSilentlyNew) {
  // Schema drift, both ways: a key no parser ever knew, and a full spec
  // journaled before the --overlap knob and the "overlap" sharding were
  // removed.
  util::Json unknown_key = util::Json::object();
  unknown_key.set("no-such-key", true);
  util::Json removed_knobs = job_spec_to_json(make_spec("t", "removed"));
  removed_knobs.set("overlap", true);
  removed_knobs.set("gff-sharding", "overlap");
  const std::vector<std::pair<std::string, util::Json>> cases = {
      {"drifted", unknown_key}, {"removed", removed_knobs}};
  for (const auto& [job_id, spec] : cases) {
    const TempDir root("serve_rec_bad_spec_" + job_id);
    {
      JobJournal journal(root.str() + "/journal.jsonl");
      JournalEvent submit = event("submit", job_id, "t", 1);
      submit.spec = spec;
      journal.append(submit);
    }
    ServerOptions options;
    options.total_ranks = 4;
    options.root_dir = root.str();
    JobServer server(options);
    server.drain();

    const JobStatus status = status_of(server, job_id);
    EXPECT_EQ(status.state, JobState::kFailed) << job_id;
    EXPECT_NE(status.error.find("unreplayable journal spec"), std::string::npos) << job_id;

    // The id stays taken: resubmitting cannot silently reuse the dirty dir.
    EXPECT_EQ(server.submit(make_spec("t", job_id)).code, AdmitCode::kInvalidSpec) << job_id;
  }
}

TEST(ServeRecovery, PermanentJournalFaultDegradesButServesOn) {
  // ENOSPC on the very first journal append (the submit WAL record):
  // durability is lost, availability is not — the job still runs.
  const TempDir root("serve_rec_degraded");
  ServerOptions options;
  options.total_ranks = 4;
  options.root_dir = root.str();
  JobServer server(options);

  io::ScopedFaultInjection guard(
      io::IoFaultPlan::parse("write:*journal.jsonl:1:enospc"));
  ASSERT_TRUE(server.submit(make_spec("t", "j1")).accepted());
  server.drain();

  EXPECT_EQ(status_of(server, "j1").state, JobState::kCompleted);
  // Degraded: no transition after the failed append reached the journal.
  EXPECT_EQ(count_events(root.str() + "/journal.jsonl", "complete", "j1"), 0);
}

TEST(ServeRecovery, JournalOffMatchesPriorBehavior) {
  const TempDir root("serve_rec_nojournal");
  ServerOptions options;
  options.total_ranks = 4;
  options.root_dir = root.str();
  options.journal = false;
  JobServer server(options);
  ASSERT_TRUE(server.submit(make_spec("t", "j1")).accepted());
  server.drain();
  EXPECT_EQ(status_of(server, "j1").state, JobState::kCompleted);
  EXPECT_FALSE(std::filesystem::exists(root.str() + "/journal.jsonl"));
}

}  // namespace
}  // namespace trinity::serve
