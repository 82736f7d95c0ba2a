#include "pipeline/run_report.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <map>
#include <sstream>
#include <stdexcept>

#include "io/io_file.hpp"
#include "util/stats.hpp"

namespace trinity::pipeline {

namespace {

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

util::Json int_array(const std::vector<std::uint64_t>& values) {
  util::Json arr = util::Json::array();
  for (const auto v : values) arr.push_back(util::Json(static_cast<std::int64_t>(v)));
  return arr;
}

util::Json double_array(const std::vector<double>& values) {
  util::Json arr = util::Json::array();
  for (const auto v : values) arr.push_back(util::Json(v));
  return arr;
}

util::Json string_array(const std::vector<std::string>& values) {
  util::Json arr = util::Json::array();
  for (const auto& v : values) arr.push_back(util::Json(v));
  return arr;
}

util::Json phase_json(const util::PhaseRecord& r) {
  util::Json p = util::Json::object();
  p.set("name", r.name);
  p.set("start_s", r.start_seconds);
  p.set("wall_s", r.wall_seconds);
  p.set("cpu_s", r.cpu_seconds);
  p.set("rss_before_b", static_cast<std::int64_t>(r.rss_before));
  p.set("rss_after_b", static_cast<std::int64_t>(r.rss_after));
  p.set("rss_peak_b", static_cast<std::int64_t>(r.rss_peak));
  util::Json counters = util::Json::object();
  for (const auto& c : r.counters) counters.set(c.name, util::Json(c.value));
  p.set("counters", std::move(counters));
  return p;
}

util::Json rank_json(const simpi::RankResult& r) {
  util::Json out = util::Json::object();
  out.set("rank", r.rank);
  out.set("cpu_s", r.cpu_seconds);
  out.set("comm_s", r.comm_seconds);
  out.set("virtual_s", r.virtual_seconds());
  // Ops with zero calls are omitted: most stages use two or three of the
  // eight operations and all-zero rows are noise.
  util::Json ops = util::Json::object();
  for (std::size_t i = 0; i < simpi::kNumCommOps; ++i) {
    const auto& s = r.comm.ops[i];
    if (s.calls == 0) continue;
    util::Json op = util::Json::object();
    op.set("calls", static_cast<std::int64_t>(s.calls));
    op.set("bytes_sent", static_cast<std::int64_t>(s.bytes_sent));
    op.set("bytes_received", static_cast<std::int64_t>(s.bytes_received));
    op.set("wait_s", s.wait_seconds);
    ops.set(simpi::to_string(static_cast<simpi::CommOp>(i)), std::move(op));
  }
  out.set("ops", std::move(ops));
  return out;
}

util::Json comm_json(const StageCommMetrics& m) {
  util::Json out = util::Json::object();
  out.set("stage", m.stage);
  out.set("nranks", static_cast<std::int64_t>(m.ranks.size()));
  double max_virtual = 0.0, sum_virtual = 0.0;
  for (const auto& r : m.ranks) {
    const double v = r.virtual_seconds();
    max_virtual = v > max_virtual ? v : max_virtual;
    sum_virtual += v;
  }
  out.set("max_virtual_s", max_virtual);
  out.set("mean_virtual_s",
          m.ranks.empty() ? 0.0 : sum_virtual / static_cast<double>(m.ranks.size()));
  out.set("skew_ratio", m.skew_ratio());
  util::Json ranks = util::Json::array();
  for (const auto& r : m.ranks) ranks.push_back(rank_json(r));
  out.set("ranks", std::move(ranks));
  return out;
}

util::Json gff_json(const PipelineOptions& options, const chrysalis::GffTiming& t) {
  util::Json out = util::Json::object();
  out.set("loop1_s", double_array(t.loop1.seconds));
  out.set("loop2_s", double_array(t.loop2.seconds));
  out.set("setup_s", t.setup_seconds);
  out.set("finalize_s", t.finalize_seconds);
  out.set("comm_s", t.comm_seconds);
  out.set("pool_wait_s", t.pool_wait_seconds);
  out.set("gff_sharding", to_string(options.gff_sharding));
  // The union-find runs only under the owner strategy.
  if (options.gff_sharding == chrysalis::ShardingStrategy::kOwner) {
    out.set("dsu_rounds", t.dsu_rounds);
  }
  return out;
}

// Schema v2: the robustness section. All five quarantine categories are
// always present (zero or not) so consumers get exact per-category counts
// without existence checks.
util::Json parse_json(seq::ParsePolicy policy, const io::ParseDiagnostics& d) {
  util::Json out = util::Json::object();
  out.set("policy", to_string(policy));
  out.set("records_ok", static_cast<std::int64_t>(d.records_ok));
  out.set("records_quarantined", static_cast<std::int64_t>(d.records_quarantined()));
  out.set("records_repaired", static_cast<std::int64_t>(d.records_repaired));
  out.set("blank_lines", static_cast<std::int64_t>(d.blank_lines));
  out.set("crlf_lines", static_cast<std::int64_t>(d.crlf_lines));
  util::Json by_category = util::Json::object();
  for (std::size_t i = 0; i < io::kNumParseCategories; ++i) {
    by_category.set(io::to_string(static_cast<io::ParseCategory>(i)),
                    static_cast<std::int64_t>(d.quarantined[i]));
  }
  out.set("quarantined", std::move(by_category));
  return out;
}

util::Json r2t_json(const chrysalis::R2TTiming& t) {
  util::Json out = util::Json::object();
  out.set("main_loop_s", double_array(t.main_loop.seconds));
  out.set("setup_s", t.setup_seconds);
  out.set("concat_s", t.concat_seconds);
  out.set("comm_s", t.comm_seconds);
  out.set("rank_chunks", int_array(t.rank_chunks));
  out.set("rank_reads", int_array(t.rank_reads));
  return out;
}

}  // namespace

util::Json build_run_report(const PipelineOptions& options, const PipelineResult& result) {
  util::Json report = util::Json::object();
  report.set("schema_version", kReportSchemaVersion);
  report.set("generator", "trinity_pipeline");
  report.set("nranks", options.nranks);
  report.set("model_threads_per_rank", options.model_threads_per_rank);
  report.set("options_fingerprint", hex64(result.options_fingerprint));
  // Additive schema-3 fields: job attribution, present only when the run
  // belongs to a job server dispatch (docs/SERVING.md). Standalone runs
  // omit all three, so v2 consumers see an unchanged document.
  if (!options.job_id.empty() || !options.tenant.empty()) {
    report.set("job_id", options.job_id);
    report.set("tenant", options.tenant);
    report.set("preemptions", options.preemptions);
    // Schema v4: dispatch count, terminal outcome, and whether this run
    // was re-admitted from a crashed server's journal. A report written
    // here always describes a run that finished — non-completed outcomes
    // (quarantined, deadline_exceeded, hung, failed) are stamped by the
    // job server's minimal terminal reports instead.
    report.set("attempts", options.attempts);
    report.set("outcome", "completed");
    report.set("recovered", options.recovered);
  }
  report.set("stages_executed", string_array(result.stages_executed));
  report.set("stages_resumed", string_array(result.stages_resumed));
  report.set("stage_retries", result.stage_retries);
  report.set("io_retries", result.io_retries);
  report.set("parse", parse_json(options.parse_policy, result.parse));
  // Additive schema-2 field: present only when the run emitted a Chrome
  // trace. Recorded as given in options (work-dir relative by default) so
  // a report plus its trace stay portable as a pair.
  if (!result.trace_file.empty()) {
    report.set("trace_file",
               options.trace_path.empty() ? result.trace_file : options.trace_path);
  }

  util::Json phases = util::Json::array();
  for (const auto& p : result.trace) phases.push_back(phase_json(p));
  report.set("phases", std::move(phases));

  util::Json comm = util::Json::array();
  for (const auto& m : result.stage_comm) comm.push_back(comm_json(m));
  report.set("comm", std::move(comm));

  util::Json chrysalis = util::Json::object();
  chrysalis.set("graph_from_fasta", gff_json(options, result.gff_timing));
  chrysalis.set("reads_to_transcripts", r2t_json(result.r2t_timing));
  report.set("chrysalis", std::move(chrysalis));
  return report;
}

void write_run_report(const std::string& path, const util::Json& report) {
  io::write_file(path, report.dump(2) + "\n");
}

util::Json load_run_report(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_run_report: cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  util::Json report = util::Json::parse(buf.str());
  const util::Json* version = report.find("schema_version");
  if (version == nullptr || !version->is_number()) {
    throw std::runtime_error("load_run_report: '" + path + "' has no schema_version");
  }
  if (version->as_int() < 1 || version->as_int() > kReportSchemaVersion) {
    throw std::runtime_error("load_run_report: unsupported schema_version " +
                             std::to_string(version->as_int()) + " in '" + path + "'");
  }
  return report;
}

void summarize_report(const util::Json& report, std::ostream& out) {
  out << "run report: schema " << report.at("schema_version").as_int() << ", nranks "
      << report.at("nranks").as_int() << ", model_threads_per_rank "
      << report.at("model_threads_per_rank").as_int() << '\n';

  auto join = [](const util::Json& arr) {
    std::string s;
    for (const auto& v : arr.items()) {
      if (!s.empty()) s += ", ";
      s += v.as_string();
    }
    return s.empty() ? std::string("(none)") : s;
  };
  // Schema v3 job attribution; absent for standalone runs.
  if (const util::Json* job_id = report.find("job_id")) {
    out << "job:             " << job_id->as_string() << " (tenant "
        << report.at("tenant").as_string() << ", " << report.at("preemptions").as_int()
        << " preemption(s))\n";
    // Schema v4 dispatch history; absent in v3 reports.
    if (const util::Json* outcome = report.find("outcome")) {
      out << "outcome:         " << outcome->as_string() << " after "
          << report.at("attempts").as_int() << " attempt(s)"
          << (report.at("recovered").as_bool() ? ", recovered from journal" : "") << '\n';
    }
  }
  out << "stages executed: " << join(report.at("stages_executed")) << '\n';
  out << "stages resumed:  " << join(report.at("stages_resumed")) << '\n';
  out << "stage retries:   " << report.at("stage_retries").as_int() << '\n';
  // Schema v2 fields; a v1 report simply lacks them.
  if (const util::Json* io_retries = report.find("io_retries")) {
    out << "io retries:      " << io_retries->as_int() << '\n';
  }
  if (const util::Json* trace_file = report.find("trace_file")) {
    out << "trace file:      " << trace_file->as_string() << '\n';
  }
  if (const util::Json* parse = report.find("parse")) {
    out << "parse (" << parse->at("policy").as_string()
        << "): " << parse->at("records_ok").as_int() << " ok, "
        << parse->at("records_quarantined").as_int() << " quarantined, "
        << parse->at("records_repaired").as_int() << " repaired";
    if (parse->at("records_quarantined").as_int() > 0) {
      out << " [";
      bool first = true;
      for (const auto& [name, count] : parse->at("quarantined").members()) {
        if (count.as_int() == 0) continue;
        if (!first) out << ", ";
        first = false;
        out << name << "=" << count.as_int();
      }
      out << "]";
    }
    out << '\n';
  }
  out << '\n';

  // Per-stage imbalance table from the comm section.
  const auto& comm = report.at("comm").items();
  if (comm.empty()) {
    out << "no hybrid stages ran (nranks == 1 or all stages resumed); no per-rank"
           " communication was recorded\n";
  } else {
    out << std::left << std::setw(32) << "stage" << std::right << std::setw(6) << "ranks"
        << std::setw(12) << "max(virt)" << std::setw(12) << "mean(virt)" << std::setw(7)
        << "skew" << std::setw(14) << "sent(B)" << std::setw(14) << "recv(B)"
        << std::setw(10) << "wait(s)" << '\n';
    for (const auto& stage : comm) {
      std::int64_t sent = 0, received = 0;
      double wait = 0.0;
      for (const auto& rank : stage.at("ranks").items()) {
        for (const auto& [name, op] : rank.at("ops").members()) {
          sent += op.at("bytes_sent").as_int();
          received += op.at("bytes_received").as_int();
          wait += op.at("wait_s").as_double();
        }
      }
      out << std::left << std::setw(32) << stage.at("stage").as_string() << std::right
          << std::setw(6) << stage.at("nranks").as_int() << std::fixed << std::setprecision(4)
          << std::setw(12) << stage.at("max_virtual_s").as_double() << std::setw(12)
          << stage.at("mean_virtual_s").as_double() << std::setprecision(2) << std::setw(7)
          << stage.at("skew_ratio").as_double() << std::setw(14) << sent << std::setw(14)
          << received << std::setprecision(4) << std::setw(10) << wait << '\n';
    }
  }

  // Chrysalis traffic per operation (the paper's Section III.B/III.C
  // pooling), summed over ranks from the comm[] rows every schema carries.
  // Absent from the server's minimal v4 terminal reports (no run happened).
  const util::Json* chrysalis_section = report.find("chrysalis");
  if (chrysalis_section == nullptr) return;
  out << "\nchrysalis traffic (per op, summed over ranks):\n";
  for (const auto& stage : comm) {
    std::map<std::string, simpi::OpStats> ops;
    for (const auto& rank : stage.at("ranks").items()) {
      for (const auto& [name, op] : rank.at("ops").members()) {
        auto& total = ops[name];
        total.calls += static_cast<std::uint64_t>(op.at("calls").as_int());
        total.bytes_sent += static_cast<std::uint64_t>(op.at("bytes_sent").as_int());
        total.bytes_received += static_cast<std::uint64_t>(op.at("bytes_received").as_int());
      }
    }
    out << "  " << stage.at("stage").as_string() << ':';
    for (const auto& [name, total] : ops) {
      out << ' ' << name << ' ' << total.calls << "x " << total.bytes_sent << " B -> "
          << total.bytes_received << " B;";
    }
    out << '\n';
  }
  const auto& gff = chrysalis_section->at("graph_from_fasta");
  const auto& r2t = chrysalis_section->at("reads_to_transcripts");
  // gff_sharding and dsu_rounds are additive; older reports lack them.
  if (const util::Json* sharding = gff.find("gff_sharding")) {
    out << "  graph_from_fasta sharding: " << sharding->as_string();
    if (const util::Json* rounds = gff.find("dsu_rounds")) {
      out << " (" << rounds->as_int() << " dsu round(s))";
    }
    out << '\n';
  }
  if (!r2t.at("rank_chunks").items().empty()) {
    out << "  reads_to_transcripts chunks per rank:";
    for (const auto& v : r2t.at("rank_chunks").items()) out << ' ' << v.as_int();
    out << '\n';
  }
}

util::Json aggregate_run_reports(const std::vector<util::Json>& reports) {
  struct TenantTotals {
    std::int64_t jobs = 0;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    std::int64_t comm_bytes_sent = 0;
    std::int64_t comm_bytes_received = 0;
    std::int64_t stage_retries = 0;
    std::int64_t io_retries = 0;
    std::int64_t preemptions = 0;
    double max_skew = 1.0;
    // Schema v4 reliability rollup: total dispatches, job-level retries
    // (dispatches beyond each job's first), and terminal kill reasons.
    // A tenant with outsized attempts/quarantines relative to its job
    // count is the poison-tenant signature operators scan for.
    std::int64_t attempts = 0;
    std::int64_t job_retries = 0;
    std::int64_t quarantined = 0;
    std::int64_t deadline_kills = 0;
    std::int64_t hung_kills = 0;
    std::int64_t recovered = 0;
    // Per-job wall seconds (sum of the job's phases), for the latency
    // quantile columns. Jobs with no phases (e.g. killed before any stage
    // finished) contribute nothing rather than a misleading 0s sample.
    std::vector<double> job_walls;
  };
  // Insertion order preserved so the table is deterministic for a given
  // report order (the aggregate caller sorts its directory scan).
  std::vector<std::pair<std::string, TenantTotals>> tenants;
  auto totals_for = [&](const std::string& tenant) -> TenantTotals& {
    for (auto& [name, totals] : tenants) {
      if (name == tenant) return totals;
    }
    tenants.emplace_back(tenant, TenantTotals{});
    return tenants.back().second;
  };

  for (const auto& report : reports) {
    const util::Json* tenant_field = report.find("tenant");
    TenantTotals& t = totals_for(
        tenant_field != nullptr && !tenant_field->as_string().empty()
            ? tenant_field->as_string()
            : std::string("-"));
    ++t.jobs;
    double job_wall = 0.0;
    const auto& phases = report.at("phases").items();
    for (const auto& phase : phases) {
      job_wall += phase.at("wall_s").as_double();
      t.cpu_s += phase.at("cpu_s").as_double();
    }
    t.wall_s += job_wall;
    if (!phases.empty()) t.job_walls.push_back(job_wall);
    for (const auto& stage : report.at("comm").items()) {
      const double skew = stage.at("skew_ratio").as_double();
      t.max_skew = skew > t.max_skew ? skew : t.max_skew;
      for (const auto& rank : stage.at("ranks").items()) {
        for (const auto& member : rank.at("ops").members()) {
          t.comm_bytes_sent += member.second.at("bytes_sent").as_int();
          t.comm_bytes_received += member.second.at("bytes_received").as_int();
        }
      }
    }
    t.stage_retries += report.at("stage_retries").as_int();
    if (const util::Json* io_retries = report.find("io_retries")) {
      t.io_retries += io_retries->as_int();
    }
    if (const util::Json* preemptions = report.find("preemptions")) {
      t.preemptions += preemptions->as_int();
    }
    if (const util::Json* attempts = report.find("attempts")) {
      t.attempts += attempts->as_int();
      t.job_retries += attempts->as_int() > 1 ? attempts->as_int() - 1 : 0;
    }
    if (const util::Json* outcome = report.find("outcome")) {
      const std::string& o = outcome->as_string();
      if (o == "quarantined") ++t.quarantined;
      else if (o == "deadline_exceeded") ++t.deadline_kills;
      else if (o == "hung") ++t.hung_kills;
    }
    if (const util::Json* recovered = report.find("recovered")) {
      if (recovered->as_bool()) ++t.recovered;
    }
  }

  util::Json out = util::Json::object();
  out.set("reports", static_cast<std::int64_t>(reports.size()));
  util::Json rows = util::Json::array();
  for (auto& [name, t] : tenants) {
    util::Json row = util::Json::object();
    row.set("tenant", name);
    row.set("jobs", t.jobs);
    row.set("wall_s", t.wall_s);
    row.set("cpu_s", t.cpu_s);
    std::sort(t.job_walls.begin(), t.job_walls.end());
    row.set("wall_p50_s", util::percentile(t.job_walls, 0.50));
    row.set("wall_p95_s", util::percentile(t.job_walls, 0.95));
    row.set("wall_p99_s", util::percentile(t.job_walls, 0.99));
    row.set("comm_bytes_sent", t.comm_bytes_sent);
    row.set("comm_bytes_received", t.comm_bytes_received);
    row.set("stage_retries", t.stage_retries);
    row.set("io_retries", t.io_retries);
    row.set("preemptions", t.preemptions);
    row.set("max_skew", t.max_skew);
    row.set("attempts", t.attempts);
    row.set("job_retries", t.job_retries);
    row.set("quarantined", t.quarantined);
    row.set("deadline_kills", t.deadline_kills);
    row.set("hung_kills", t.hung_kills);
    row.set("recovered", t.recovered);
    rows.push_back(std::move(row));
  }
  out.set("tenants", std::move(rows));
  return out;
}

void summarize_aggregate(const util::Json& aggregate, std::ostream& out) {
  out << "aggregated " << aggregate.at("reports").as_int() << " run report(s)\n\n";
  const auto& tenants = aggregate.at("tenants").items();
  if (tenants.empty()) {
    out << "no reports found\n";
    return;
  }
  out << std::left << std::setw(16) << "tenant" << std::right << std::setw(6) << "jobs"
      << std::setw(11) << "wall(s)" << std::setw(11) << "cpu(s)" << std::setw(9)
      << "p50(s)" << std::setw(9) << "p95(s)" << std::setw(9) << "p99(s)"
      << std::setw(14)
      << "sent(B)" << std::setw(14) << "recv(B)" << std::setw(9) << "retries"
      << std::setw(9) << "io-rtr" << std::setw(9) << "preempt" << std::setw(9)
      << "skew" << std::setw(9) << "att" << std::setw(9) << "job-rtr" << std::setw(9) << "quar"
      << std::setw(9) << "ddl" << std::setw(9) << "hung" << std::setw(9) << "recov"
      << '\n';
  for (const auto& row : tenants) {
    out << std::left << std::setw(16) << row.at("tenant").as_string() << std::right
        << std::setw(6) << row.at("jobs").as_int() << std::fixed << std::setprecision(3)
        << std::setw(11) << row.at("wall_s").as_double() << std::setw(11)
        << row.at("cpu_s").as_double() << std::setw(9)
        << row.at("wall_p50_s").as_double() << std::setw(9)
        << row.at("wall_p95_s").as_double() << std::setw(9)
        << row.at("wall_p99_s").as_double() << std::setw(14)
        << row.at("comm_bytes_sent").as_int() << std::setw(14)
        << row.at("comm_bytes_received").as_int() << std::setw(9)
        << row.at("stage_retries").as_int() << std::setw(9)
        << row.at("io_retries").as_int() << std::setw(9)
        << row.at("preemptions").as_int() << std::setprecision(2) << std::setw(9)
        << row.at("max_skew").as_double() << std::setw(9)
        << row.at("attempts").as_int() << std::setw(9)
        << row.at("job_retries").as_int() << std::setw(9)
        << row.at("quarantined").as_int() << std::setw(9)
        << row.at("deadline_kills").as_int() << std::setw(9)
        << row.at("hung_kills").as_int() << std::setw(9)
        << row.at("recovered").as_int() << '\n';
  }
}

}  // namespace trinity::pipeline
