#pragma once
// trinity::Config — the one flag/JSON parsing path for every binary.
//
// Before this existed each example and bench hand-rolled its own argv
// loop, so flag spellings drifted (--nprocs vs --ranks, --trace vs
// trace_path) and a typo silently fell through to a default. Config closes
// both holes: a binary *declares* its flags (name, type, default, help),
// parses the command line and/or a JSON file through one code path, and
// any unknown or malformed field raises a typed ConfigError naming the
// field — mirroring how io::ParseError names the exact input location.
//
// PipelineOptions stays the validated product: binaries that drive the
// whole pipeline call with_pipeline() to register the standard flag set
// and pipeline_options() to get a validated PipelineOptions, so existing
// call sites keep compiling against the plain struct.
//
// Usage (see docs/CONFIG.md for the JSON schema):
//
//   auto cfg = trinity::Config("quickstart", "run the full pipeline")
//                  .with_pipeline(defaults)
//                  .flag_int("genes", 40, "genes to simulate");
//   cfg.parse_cli(argc, argv);                 // throws ConfigError
//   if (cfg.help_requested()) { std::cout << cfg.help_text(); return 0; }
//   pipeline::PipelineOptions options = cfg.pipeline_options();
//
// Every parse also accepts `--config FILE.json` (values preloaded, CLI
// flags override), underscore spellings of any flag (`--work_dir` ==
// `--work-dir`) and `--no-X` to clear a boolean flag X. There is one
// spelling per flag: old ones such as `--nprocs` are unknown options.

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "pipeline/trinity_pipeline.hpp"
#include "simpi/fault.hpp"
#include "util/json.hpp"

namespace trinity {

/// A malformed or unknown configuration field. Carries which field and
/// why, so "assemble_fasta --gff-distribution dyn" fails with
/// `config error: --gff-distribution: must be one of crr, block, dynamic`
/// instead of silently running the default strategy.
class ConfigError : public std::runtime_error {
 public:
  ConfigError(std::string field, std::string reason);

  /// Canonical (dash-spelled) name of the offending flag or JSON key.
  [[nodiscard]] const std::string& field() const { return field_; }
  [[nodiscard]] const std::string& reason() const { return reason_; }

 private:
  std::string field_;
  std::string reason_;
};

/// Declarative flag schema + parsed values. Copyable and movable.
class Config {
 public:
  explicit Config(std::string program = "trinity", std::string description = "");

  // --- spec building (fluent; call before parsing) -------------------------

  /// Positional-argument usage text for --help, e.g. "<reads.fa>".
  Config& usage(std::string positional_usage);

  Config& flag_string(const std::string& name, std::string dflt, std::string help);
  Config& flag_int(const std::string& name, std::int64_t dflt, std::string help);
  Config& flag_double(const std::string& name, double dflt, std::string help);
  /// Boolean: bare `--name` sets true, `--no-name` sets false.
  Config& flag_bool(const std::string& name, bool dflt, std::string help);

  /// Registers the rank-fault flag group (--fault-rank, --fault-op,
  /// --fault-at, --max-attempts) consumed by fault_plan().
  Config& with_fault_flags();

  /// Registers the standard pipeline flag set with `defaults` as the
  /// per-binary default values (includes the fault group plus
  /// --fault-stage). Enables pipeline_options().
  Config& with_pipeline(const pipeline::PipelineOptions& defaults = {});

  // --- parsing -------------------------------------------------------------

  /// Parses argv (excluding argv[0]). `--config FILE.json` anywhere on the
  /// line preloads values from that file; explicit CLI flags override it.
  /// Throws ConfigError on an unknown flag or malformed value.
  Config& parse_cli(int argc, const char* const* argv);

  /// Loads values from a JSON object file; keys are flag names (dash or
  /// underscore spelling). Throws ConfigError on unknown keys or
  /// non-scalar/mistyped values.
  Config& parse_json_file(const std::string& path);

  /// Same, from in-memory text; `origin` labels errors (a path or "<cli>").
  Config& parse_json_text(std::string_view text, const std::string& origin);

  // --- results -------------------------------------------------------------

  [[nodiscard]] bool help_requested() const { return help_requested_; }
  [[nodiscard]] std::string help_text() const;

  // Typed accessors return the parsed value or the declared default.
  // Querying an undeclared name throws ConfigError (programmer error).
  [[nodiscard]] std::string get_string(const std::string& name) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] bool get_bool(const std::string& name) const;

  /// Non-option arguments in order of appearance.
  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }

  /// Validated PipelineOptions (requires with_pipeline()). Throws
  /// ConfigError naming the out-of-range or malformed field.
  [[nodiscard]] pipeline::PipelineOptions pipeline_options() const;

  /// Validated FaultPlan (requires with_fault_flags() or with_pipeline()).
  [[nodiscard]] simpi::FaultPlan fault_plan() const;

  /// Current values (set or default) of every declared flag, as a JSON
  /// object with canonical names — parse_json_file round-trips it.
  [[nodiscard]] util::Json to_json() const;

 private:
  enum class Kind { kString, kInt, kDouble, kBool };

  struct Flag {
    std::string name;  ///< canonical dash spelling
    Kind kind;
    std::string dflt;  ///< rendered default
    std::string help;
  };

  Config& declare(const std::string& name, Kind kind, std::string dflt, std::string help);
  [[nodiscard]] const Flag* find_flag(const std::string& canonical_name) const;
  /// Normalizes one raw spelling (underscores -> dashes, --no- negation
  /// for bools). Throws ConfigError for unknown names.
  [[nodiscard]] std::string resolve(const std::string& raw, bool* negated) const;
  /// Type-checks and stores one value. Throws ConfigError on mismatch.
  void set_value(const std::string& canonical_name, const std::string& value,
                 const std::string& origin);
  [[nodiscard]] const Flag& require(const std::string& name, Kind kind) const;

  std::string program_;
  std::string description_;
  std::string usage_;
  std::vector<Flag> flags_;  ///< declaration order (drives --help)
  std::map<std::string, std::string> values_;  ///< canonical name -> raw value
  std::vector<std::string> positional_;
  bool help_requested_ = false;
  bool has_pipeline_ = false;
  bool has_fault_ = false;
  pipeline::PipelineOptions base_;  ///< defaults captured by with_pipeline()
};

}  // namespace trinity
