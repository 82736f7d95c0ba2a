#include "pipeline/config.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "align/mpi_bowtie.hpp"
#include "chrysalis/graph_from_fasta.hpp"
#include "chrysalis/reads_to_transcripts.hpp"
#include "seq/fasta.hpp"

namespace trinity {

namespace {

/// Underscores and dashes are interchangeable in flag names and JSON keys;
/// the canonical spelling is dashed.
std::string normalize(std::string name) {
  for (auto& c : name) {
    if (c == '_') c = '-';
  }
  while (!name.empty() && name.front() == '-') name.erase(name.begin());
  return name;
}

std::string render_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool parse_bool_text(const std::string& text, const std::string& field) {
  if (text == "true" || text == "1" || text == "yes" || text == "on") return true;
  if (text == "false" || text == "0" || text == "no" || text == "off") return false;
  throw ConfigError(field, "expected a boolean (true/false), got '" + text + "'");
}

std::int64_t parse_int_text(const std::string& text, const std::string& field) {
  try {
    std::size_t consumed = 0;
    const std::int64_t value = std::stoll(text, &consumed);
    if (consumed != text.size()) throw std::invalid_argument(text);
    return value;
  } catch (const std::exception&) {
    throw ConfigError(field, "expected an integer, got '" + text + "'");
  }
}

double parse_double_text(const std::string& text, const std::string& field) {
  try {
    std::size_t consumed = 0;
    const double value = std::stod(text, &consumed);
    if (consumed != text.size()) throw std::invalid_argument(text);
    return value;
  } catch (const std::exception&) {
    throw ConfigError(field, "expected a number, got '" + text + "'");
  }
}

/// One spelling of a strategy flag. Each flag has one table listing its
/// spellings in --help order; the table renders the default, parses the
/// value, and spells the --help list and the "must be one of" error.
template <typename E>
struct Choice {
  const char* name;
  E value;
};

using align::BowtieSplit;
using chrysalis::Distribution;
using chrysalis::R2TStrategy;
using chrysalis::ShardingStrategy;
using seq::ParsePolicy;

constexpr Choice<Distribution> kGffDistributions[] = {{"crr", Distribution::kChunkedRoundRobin},
                                                      {"block", Distribution::kBlock},
                                                      {"dynamic", Distribution::kDynamic}};
constexpr Choice<R2TStrategy> kR2TStrategies[] = {
    {"redundant", R2TStrategy::kRedundantStreaming}, {"master-slave", R2TStrategy::kMasterSlave}};
constexpr Choice<BowtieSplit> kBowtieSplits[] = {{"targets", BowtieSplit::kTargets},
                                                 {"reads", BowtieSplit::kReads}};
// Spelled by their modules, which also parse them.
const Choice<ShardingStrategy> kGffShardings[] = {
    {to_string(ShardingStrategy::kPooled), ShardingStrategy::kPooled},
    {to_string(ShardingStrategy::kOwner), ShardingStrategy::kOwner}};
const Choice<ParsePolicy> kParsePolicies[] = {
    {to_string(ParsePolicy::kStrict), ParsePolicy::kStrict},
    {to_string(ParsePolicy::kTolerant), ParsePolicy::kTolerant},
    {to_string(ParsePolicy::kRepair), ParsePolicy::kRepair}};

/// "crr, block, dynamic".
template <typename E, std::size_t N>
std::string one_of(const Choice<E> (&table)[N]) {
  std::string out;
  for (const auto& choice : table) {
    if (!out.empty()) out += ", ";
    out += choice.name;
  }
  return out;
}

template <typename E, std::size_t N>
std::string name_of(const Choice<E> (&table)[N], E value) {
  for (const auto& choice : table) {
    if (choice.value == value) return choice.name;
  }
  throw std::logic_error("strategy value missing from its flag's table");
}

template <typename E, std::size_t N>
ConfigError choice_error(const std::string& flag, const Choice<E> (&table)[N],
                         const std::string& got) {
  return ConfigError(flag, "must be one of " + one_of(table) + " (got '" + got + "')");
}

}  // namespace

ConfigError::ConfigError(std::string field, std::string reason)
    : std::runtime_error("config error: --" + field + ": " + reason),
      field_(std::move(field)),
      reason_(std::move(reason)) {}

Config::Config(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

Config& Config::usage(std::string positional_usage) {
  usage_ = std::move(positional_usage);
  return *this;
}

Config& Config::declare(const std::string& name, Kind kind, std::string dflt,
                        std::string help) {
  const std::string canon = normalize(name);
  if (find_flag(canon) != nullptr) {
    throw ConfigError(canon, "flag declared twice");
  }
  flags_.push_back({canon, kind, std::move(dflt), std::move(help)});
  return *this;
}

Config& Config::flag_string(const std::string& name, std::string dflt, std::string help) {
  return declare(name, Kind::kString, std::move(dflt), std::move(help));
}

Config& Config::flag_int(const std::string& name, std::int64_t dflt, std::string help) {
  return declare(name, Kind::kInt, std::to_string(dflt), std::move(help));
}

Config& Config::flag_double(const std::string& name, double dflt, std::string help) {
  return declare(name, Kind::kDouble, render_double(dflt), std::move(help));
}

Config& Config::flag_bool(const std::string& name, bool dflt, std::string help) {
  return declare(name, Kind::kBool, dflt ? "true" : "false", std::move(help));
}

Config& Config::with_fault_flags() {
  if (has_fault_) return *this;
  has_fault_ = true;
  flag_int("fault-rank", -1, "rank to kill mid-stage (-1 disables fault injection)");
  flag_string("fault-op", "",
              "operation whose Nth entry fires the fault (barrier, bcast, gatherv, "
              "allgatherv, alltoallv, reduce, send, recv); empty = first communication");
  flag_int("fault-at", 1, "1-based entry of --fault-op that fires the fault");
  flag_int("max-attempts", 3, "stage re-launches before giving up on a rank fault");
  return *this;
}

Config& Config::with_pipeline(const pipeline::PipelineOptions& defaults) {
  if (has_pipeline_) return *this;
  has_pipeline_ = true;
  base_ = defaults;

  flag_int("ranks", defaults.nranks,
           "simulated MPI ranks (1 = the original shared-memory pipeline)");
  flag_int("threads-per-rank", defaults.model_threads_per_rank,
           "modeled threads per simulated node");
  flag_int("omp-threads", defaults.omp_threads, "real OpenMP threads (0 = auto)");
  flag_int("k", defaults.k, "k-mer size used by every stage");
  flag_int("min-kmer-count", defaults.min_kmer_count, "Inchworm error-pruning threshold");
  flag_int("min-weld-support", defaults.min_weld_support, "GraphFromFasta weld support");
  flag_int("max-mem-reads", static_cast<std::int64_t>(defaults.max_mem_reads),
           "ReadsToTranscripts chunk size (reads held in memory)");
  flag_bool("bowtie-scaffolding", defaults.bowtie_scaffolding,
            "feed Bowtie pairs into clustering");
  flag_string("work-dir", defaults.work_dir, "stage file-exchange directory");
  flag_int("run-seed", static_cast<std::int64_t>(defaults.run_seed),
           "models Trinity's run-to-run variation");
  flag_int("trace-sample-interval-ms", defaults.trace_sample_interval_ms,
           "RSS sampler period (0 disables)");

  // A strategy flag: its table's default spelling and --help list.
  const auto choice = [this](const char* name, const auto& table, auto dflt,
                             const char* what, const char* tail = "") {
    flag_string(name, name_of(table, dflt),
                std::string(what) + " (" + one_of(table) + ")" + tail);
  };
  choice("gff-distribution", kGffDistributions, defaults.gff_distribution,
         "GraphFromFasta contig distribution");
  choice("gff-sharding", kGffShardings, defaults.gff_sharding, "GraphFromFasta weld movement",
         "; components are identical across both");
  choice("r2t-strategy", kR2TStrategies, defaults.r2t_strategy,
         "ReadsToTranscripts chunk distribution");
  choice("bowtie-split", kBowtieSplits, defaults.bowtie_split,
         "distributed Bowtie work split");
  flag_int("min-node-support", defaults.butterfly_min_node_support,
           "Butterfly read-reconciliation threshold");
  flag_bool("require-paired-support", defaults.butterfly_require_paired_support,
            "Butterfly paired-end reconciliation");
  flag_int("bowtie-repeats", defaults.bowtie_kernel_repeats,
           "Bowtie kernel repeats (cost-model calibration)");
  flag_int("gff-repeats", defaults.gff_kernel_repeats,
           "GraphFromFasta kernel repeats (cost-model calibration)");
  flag_int("r2t-repeats", defaults.r2t_kernel_repeats,
           "ReadsToTranscripts kernel repeats (cost-model calibration)");

  flag_bool("checkpoint", defaults.checkpoint,
            "record completed stages in <work-dir>/run_manifest.jsonl "
            "(--no-checkpoint disables)");
  flag_bool("resume", defaults.resume, "skip stages whose checkpoint still validates");
  with_fault_flags();
  flag_string("fault-stage", defaults.fault_stage,
              "stage whose simpi world receives the fault");
  flag_string("hang-stage", defaults.hang_stage,
              "stage that wedges for --hang-seconds before computing "
              "(watchdog testing; empty disables)");
  flag_double("hang-seconds", defaults.hang_seconds,
              "injected in-stage hang duration, cancellable via the "
              "preempt/deadline tokens");
  choice("parse-policy", kParsePolicies, defaults.parse_policy, "malformed-input handling");
  flag_bool("report", defaults.emit_report, "write <work-dir>/run_report.json");
  flag_string("report-path", defaults.report_path,
              "run-report destination (empty = <work-dir>/run_report.json)");
  flag_bool("trace", !defaults.trace_path.empty(),
            "write a Chrome trace of the run to --trace-path");
  flag_string("trace-path", defaults.trace_path,
              "trace destination, joined to --work-dir when relative "
              "(empty with --trace = trace.json)");
  return *this;
}

const Config::Flag* Config::find_flag(const std::string& canonical_name) const {
  for (const auto& flag : flags_) {
    if (flag.name == canonical_name) return &flag;
  }
  return nullptr;
}

std::string Config::resolve(const std::string& raw, bool* negated) const {
  if (negated != nullptr) *negated = false;
  const std::string name = normalize(raw);
  if (find_flag(name) != nullptr) return name;
  // --no-X negation of a declared boolean flag X.
  if (negated != nullptr && name.rfind("no-", 0) == 0) {
    const std::string positive = name.substr(3);
    const Flag* flag = find_flag(positive);
    if (flag != nullptr && flag->kind == Kind::kBool) {
      *negated = true;
      return positive;
    }
  }
  throw ConfigError(name, "unknown option (see --help)");
}

void Config::set_value(const std::string& canonical_name, const std::string& value,
                       const std::string& origin) {
  const Flag* flag = find_flag(canonical_name);
  if (flag == nullptr) throw ConfigError(canonical_name, "unknown key in " + origin);
  // Validate eagerly so the error points at the parse, not a later getter.
  switch (flag->kind) {
    case Kind::kInt:
      (void)parse_int_text(value, canonical_name);
      break;
    case Kind::kDouble:
      (void)parse_double_text(value, canonical_name);
      break;
    case Kind::kBool:
      (void)parse_bool_text(value, canonical_name);
      break;
    case Kind::kString:
      break;
  }
  values_[canonical_name] = value;
}

Config& Config::parse_cli(int argc, const char* const* argv) {
  std::vector<std::string> tokens;
  for (int i = 1; i < argc; ++i) tokens.emplace_back(argv[i]);

  // Pre-pass: --config FILE.json loads first so explicit flags override it.
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const auto& tok = tokens[i];
    if (tok == "--config" || tok == "-config") {
      if (i + 1 >= tokens.size()) throw ConfigError("config", "missing value");
      parse_json_file(tokens[i + 1]);
    } else if (tok.rfind("--config=", 0) == 0) {
      parse_json_file(tok.substr(9));
    }
  }

  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& tok = tokens[i];
    if (tok == "--help" || tok == "-h") {
      help_requested_ = true;
      return *this;
    }
    if (tok.rfind("--", 0) != 0) {
      positional_.push_back(tok);
      continue;
    }
    std::string body = tok.substr(2);
    if (body.empty()) throw ConfigError("", "malformed option '--'");
    std::string inline_value;
    bool has_inline = false;
    if (const auto eq = body.find('='); eq != std::string::npos) {
      inline_value = body.substr(eq + 1);
      has_inline = true;
      body.resize(eq);
    }
    if (normalize(body) == "config") {
      if (!has_inline) ++i;  // value consumed by the pre-pass
      continue;
    }
    bool negated = false;
    const std::string name = resolve(body, &negated);
    const Flag* flag = find_flag(name);
    if (flag->kind == Kind::kBool) {
      if (negated) {
        if (has_inline) throw ConfigError(name, "--no-" + name + " takes no value");
        set_value(name, "false", "<cli>");
      } else {
        set_value(name, has_inline ? inline_value : "true", "<cli>");
      }
      continue;
    }
    if (negated) throw ConfigError("no-" + name, "unknown option (see --help)");
    if (!has_inline) {
      if (i + 1 >= tokens.size()) throw ConfigError(name, "missing value");
      inline_value = tokens[++i];
    }
    set_value(name, inline_value, "<cli>");
  }
  return *this;
}

Config& Config::parse_json_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ConfigError("config", "cannot open '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return parse_json_text(text.str(), path);
}

Config& Config::parse_json_text(std::string_view text, const std::string& origin) {
  util::Json doc;
  try {
    doc = util::Json::parse(text);
  } catch (const std::exception& e) {
    throw ConfigError("config", "malformed JSON in " + origin + ": " + e.what());
  }
  if (!doc.is_object()) throw ConfigError("config", origin + " is not a JSON object");
  for (const auto& [key, value] : doc.members()) {
    const std::string name = resolve(key, nullptr);
    const Flag* flag = find_flag(name);
    std::string rendered;
    switch (value.kind()) {
      case util::Json::Kind::kString:
        rendered = value.as_string();
        break;
      case util::Json::Kind::kBool:
        rendered = value.as_bool() ? "true" : "false";
        break;
      case util::Json::Kind::kNumber:
        if (flag != nullptr && flag->kind == Kind::kInt) {
          try {
            rendered = std::to_string(value.as_int());
          } catch (const std::exception&) {
            throw ConfigError(name, "expected an integer in " + origin);
          }
        } else {
          rendered = render_double(value.as_double());
        }
        break;
      default:
        throw ConfigError(name, "expected a scalar value in " + origin);
    }
    set_value(name, rendered, origin);
  }
  return *this;
}

std::string Config::help_text() const {
  std::ostringstream out;
  out << "usage: " << program_ << " [options]";
  if (!usage_.empty()) out << ' ' << usage_;
  out << '\n';
  if (!description_.empty()) out << description_ << '\n';
  out << "\noptions:\n";
  for (const auto& flag : flags_) {
    std::string left = "  --" + flag.name;
    switch (flag.kind) {
      case Kind::kInt:
        left += " N";
        break;
      case Kind::kDouble:
        left += " X";
        break;
      case Kind::kString:
        left += " S";
        break;
      case Kind::kBool:
        break;
    }
    out << left;
    if (left.size() < 30) out << std::string(30 - left.size(), ' ');
    out << ' ' << flag.help;
    if (!flag.dflt.empty() && flag.dflt != "false") out << " (default: " << flag.dflt << ')';
    out << '\n';
  }
  out << "  --config FILE.json             preload any of the above from a JSON object\n"
         "                                 (explicit flags override; see docs/CONFIG.md)\n"
         "  --no-X                         clear boolean flag X (e.g. --no-checkpoint)\n"
         "  --help, -h                     show this text\n";
  return out.str();
}

const Config::Flag& Config::require(const std::string& name, Kind kind) const {
  const Flag* flag = find_flag(normalize(name));
  if (flag == nullptr) throw ConfigError(normalize(name), "flag was never declared");
  if (flag->kind != kind) throw ConfigError(flag->name, "accessed with the wrong type");
  return *flag;
}

std::string Config::get_string(const std::string& name) const {
  const Flag& flag = require(name, Kind::kString);
  const auto it = values_.find(flag.name);
  return it != values_.end() ? it->second : flag.dflt;
}

std::int64_t Config::get_int(const std::string& name) const {
  const Flag& flag = require(name, Kind::kInt);
  const auto it = values_.find(flag.name);
  return parse_int_text(it != values_.end() ? it->second : flag.dflt, flag.name);
}

double Config::get_double(const std::string& name) const {
  const Flag& flag = require(name, Kind::kDouble);
  const auto it = values_.find(flag.name);
  return parse_double_text(it != values_.end() ? it->second : flag.dflt, flag.name);
}

bool Config::get_bool(const std::string& name) const {
  const Flag& flag = require(name, Kind::kBool);
  const auto it = values_.find(flag.name);
  return parse_bool_text(it != values_.end() ? it->second : flag.dflt, flag.name);
}

simpi::FaultPlan Config::fault_plan() const {
  if (!has_fault_) throw ConfigError("fault-rank", "with_fault_flags() was never called");
  simpi::FaultPlan fault;
  fault.rank = static_cast<int>(get_int("fault-rank"));
  const std::string op = get_string("fault-op");
  if (!op.empty()) {
    try {
      fault.op = simpi::comm_op_from_string(op);
    } catch (const std::exception&) {
      throw ConfigError("fault-op",
                        "must be one of barrier, bcast, gatherv, allgatherv, alltoallv, "
                        "reduce, send, recv (got '" + op + "')");
    }
    const std::int64_t at = get_int("fault-at");
    if (at < 1) throw ConfigError("fault-at", "must be >= 1");
    fault.at_entry = static_cast<int>(at);
  } else if (fault.rank >= 0) {
    fault.after_virtual_seconds = 0.0;  // first communication
  }
  return fault;
}

pipeline::PipelineOptions Config::pipeline_options() const {
  if (!has_pipeline_) throw ConfigError("ranks", "with_pipeline() was never called");
  pipeline::PipelineOptions options = base_;

  const auto int_at_least = [&](const char* name, std::int64_t min) {
    const std::int64_t value = get_int(name);
    if (value < min) {
      throw ConfigError(name, "must be >= " + std::to_string(min) + " (got " +
                                  std::to_string(value) + ")");
    }
    return value;
  };

  options.nranks = static_cast<int>(int_at_least("ranks", 1));
  options.model_threads_per_rank = static_cast<int>(int_at_least("threads-per-rank", 1));
  options.omp_threads = static_cast<int>(int_at_least("omp-threads", 0));
  const std::int64_t k = get_int("k");
  if (k < 2 || k > 32) {
    throw ConfigError("k", "must be in [2, 32] (got " + std::to_string(k) + ")");
  }
  options.k = static_cast<int>(k);
  options.min_kmer_count = static_cast<std::uint32_t>(int_at_least("min-kmer-count", 1));
  options.min_weld_support = static_cast<std::uint32_t>(int_at_least("min-weld-support", 1));
  options.max_mem_reads = static_cast<std::size_t>(int_at_least("max-mem-reads", 1));
  options.bowtie_scaffolding = get_bool("bowtie-scaffolding");
  options.work_dir = get_string("work-dir");
  options.run_seed = static_cast<std::uint64_t>(int_at_least("run-seed", 0));
  options.trace_sample_interval_ms =
      static_cast<int>(int_at_least("trace-sample-interval-ms", 0));

  // A strategy flag's value, parsed through its table.
  const auto chosen = [this](const char* flag, const auto& table) {
    const std::string text = get_string(flag);
    for (const auto& choice : table) {
      if (text == choice.name) return choice.value;
    }
    throw choice_error(flag, table, text);
  };
  options.gff_distribution = chosen("gff-distribution", kGffDistributions);
  const std::string sharding = get_string("gff-sharding");
  if (!chrysalis::sharding_from_string(sharding, &options.gff_sharding)) {
    throw choice_error("gff-sharding", kGffShardings, sharding);
  }
  options.r2t_strategy = chosen("r2t-strategy", kR2TStrategies);
  options.bowtie_split = chosen("bowtie-split", kBowtieSplits);
  options.butterfly_min_node_support =
      static_cast<std::uint32_t>(int_at_least("min-node-support", 0));
  options.butterfly_require_paired_support = get_bool("require-paired-support");
  options.bowtie_kernel_repeats = static_cast<int>(int_at_least("bowtie-repeats", 1));
  options.gff_kernel_repeats = static_cast<int>(int_at_least("gff-repeats", 1));
  options.r2t_kernel_repeats = static_cast<int>(int_at_least("r2t-repeats", 1));

  options.checkpoint = get_bool("checkpoint");
  options.resume = get_bool("resume");
  options.retry.max_attempts = static_cast<int>(int_at_least("max-attempts", 1));
  options.fault = fault_plan();
  options.fault_stage = get_string("fault-stage");
  options.hang_stage = get_string("hang-stage");
  options.hang_seconds = get_double("hang-seconds");
  if (options.hang_seconds < 0.0) {
    throw ConfigError("hang-seconds", "must be >= 0");
  }

  const std::string policy = get_string("parse-policy");
  try {
    options.parse_policy = seq::parse_policy_from_string(policy);
  } catch (const std::invalid_argument&) {
    throw choice_error("parse-policy", kParsePolicies, policy);
  }
  options.emit_report = get_bool("report");
  options.report_path = get_string("report-path");
  const std::string trace_path = get_string("trace-path");
  if (get_bool("trace") || !trace_path.empty()) {
    options.trace_path = trace_path.empty() ? "trace.json" : trace_path;
  } else {
    options.trace_path.clear();
  }
  return options;
}

util::Json Config::to_json() const {
  util::Json doc = util::Json::object();
  for (const auto& flag : flags_) {
    const auto it = values_.find(flag.name);
    const std::string& raw = it != values_.end() ? it->second : flag.dflt;
    switch (flag.kind) {
      case Kind::kString:
        doc.set(flag.name, raw);
        break;
      case Kind::kInt:
        doc.set(flag.name, parse_int_text(raw, flag.name));
        break;
      case Kind::kDouble:
        doc.set(flag.name, parse_double_text(raw, flag.name));
        break;
      case Kind::kBool:
        doc.set(flag.name, parse_bool_text(raw, flag.name));
        break;
    }
  }
  return doc;
}

}  // namespace trinity
