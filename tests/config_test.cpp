// trinity::Config — the unified flag/JSON parsing path (pipeline/config.hpp).
//
// Pins the API-redesign contract: CLI and JSON land in the same validated
// values, to_json()/parse_json_text round-trips, every pipeline_options()
// validation error is a typed ConfigError naming the field, unknown
// flags/keys are rejected rather than silently defaulted, and the old
// spellings (--nprocs, --model-threads, --trace-file, --r2t-mode,
// --r2t-index, --hang-stage, --hang-seconds) are unknown options like any
// other.

#include "pipeline/config.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

namespace trinity {
namespace {

/// Runs parse_cli over a brace-list of tokens (argv[0] is synthesized).
Config parse(Config cfg, const std::vector<std::string>& args) {
  std::vector<const char*> argv{"test-binary"};
  for (const auto& a : args) argv.push_back(a.c_str());
  cfg.parse_cli(static_cast<int>(argv.size()), argv.data());
  return cfg;
}

Config pipeline_cfg() {
  Config cfg("config-test", "test");
  cfg.with_pipeline();
  return cfg;
}

/// EXPECT that evaluating `expr` throws ConfigError for `field`.
#define EXPECT_CONFIG_ERROR(expr, expected_field)            \
  try {                                                      \
    (void)(expr);                                            \
    FAIL() << "expected ConfigError for " << expected_field; \
  } catch (const ConfigError& e) {                           \
    EXPECT_EQ(e.field(), expected_field);                    \
    EXPECT_FALSE(e.reason().empty());                        \
  }

TEST(ConfigCli, TypedValuesPositionalsAndInlineForm) {
  Config cfg("t", "t");
  cfg.usage("<input>")
      .flag_int("count", 7, "a count")
      .flag_double("rate", 0.5, "a rate")
      .flag_string("name", "x", "a name")
      .flag_bool("fast", false, "a switch");
  cfg = parse(std::move(cfg), {"in.fa", "--count", "3", "--rate=2.25", "--name", "y", "--fast"});
  EXPECT_EQ(cfg.positional(), std::vector<std::string>{"in.fa"});
  EXPECT_EQ(cfg.get_int("count"), 3);
  EXPECT_DOUBLE_EQ(cfg.get_double("rate"), 2.25);
  EXPECT_EQ(cfg.get_string("name"), "y");
  EXPECT_TRUE(cfg.get_bool("fast"));
}

TEST(ConfigCli, DefaultsApplyWhenUnset) {
  Config cfg("t", "t");
  cfg.flag_int("count", 7, "a count").flag_bool("fast", true, "a switch");
  cfg = parse(std::move(cfg), {});
  EXPECT_EQ(cfg.get_int("count"), 7);
  EXPECT_TRUE(cfg.get_bool("fast"));
}

TEST(ConfigCli, UnderscoreSpellingIsTheDashFlag) {
  auto cfg = parse(pipeline_cfg(), {"--work_dir", "/tmp/x", "--threads_per_rank", "4"});
  EXPECT_EQ(cfg.get_string("work-dir"), "/tmp/x");
  EXPECT_EQ(cfg.get_int("threads-per-rank"), 4);
  // Getter lookups normalize too.
  EXPECT_EQ(cfg.get_string("work_dir"), "/tmp/x");
}

TEST(ConfigCli, NoPrefixClearsBooleans) {
  auto cfg = parse(pipeline_cfg(), {"--no-checkpoint", "--no-bowtie-scaffolding"});
  EXPECT_FALSE(cfg.get_bool("checkpoint"));
  EXPECT_FALSE(cfg.get_bool("bowtie-scaffolding"));
  // --no-X on a non-bool is unknown, not a negation.
  EXPECT_CONFIG_ERROR(parse(pipeline_cfg(), {"--no-work-dir", "x"}), "no-work-dir");
}

TEST(ConfigCli, UnknownFlagIsATypedError) {
  EXPECT_CONFIG_ERROR(parse(pipeline_cfg(), {"--bogus-flag", "1"}), "bogus-flag");
  // A removed boolean is an unknown flag, not a negation.
  EXPECT_CONFIG_ERROR(parse(pipeline_cfg(), {"--no-overlap"}), "no-overlap");
}

TEST(ConfigCli, MissingAndMalformedValues) {
  EXPECT_CONFIG_ERROR(parse(pipeline_cfg(), {"--ranks"}), "ranks");
  EXPECT_CONFIG_ERROR(parse(pipeline_cfg(), {"--ranks", "many"}), "ranks");
  EXPECT_CONFIG_ERROR(parse(pipeline_cfg(), {"--checkpoint=maybe"}), "checkpoint");
}

TEST(ConfigCli, WhatNamesTheField) {
  try {
    (void)parse(pipeline_cfg(), {"--ranks", "many"});
    FAIL();
  } catch (const ConfigError& e) {
    EXPECT_EQ(std::string(e.what()),
              "config error: --ranks: expected an integer, got 'many'");
  }
}

TEST(ConfigCli, HelpShortCircuitsParsing) {
  auto cfg = parse(pipeline_cfg(), {"--help", "--bogus-flag"});
  EXPECT_TRUE(cfg.help_requested());
  const std::string help = cfg.help_text();
  EXPECT_NE(help.find("--ranks"), std::string::npos);
  EXPECT_EQ(help.find("--nprocs"), std::string::npos);
}

TEST(ConfigAliases, DeprecatedSpellingsAreRejected) {
  EXPECT_CONFIG_ERROR(parse(pipeline_cfg(), {"--nprocs", "6"}), "nprocs");
  EXPECT_CONFIG_ERROR(parse(pipeline_cfg(), {"--model-threads", "8"}), "model-threads");
  EXPECT_CONFIG_ERROR(parse(pipeline_cfg(), {"--trace-file", "t.json"}), "trace-file");
  EXPECT_CONFIG_ERROR(parse(pipeline_cfg(), {"--hang-stage", "inchworm"}), "hang-stage");
  EXPECT_CONFIG_ERROR(parse(pipeline_cfg(), {"--hang-seconds", "3"}), "hang-seconds");
  try {
    (void)parse(pipeline_cfg(), {"--nprocs", "6"});
    FAIL() << "expected --nprocs to be rejected";
  } catch (const ConfigError& e) {
    EXPECT_EQ(std::string(e.what()), "config error: --nprocs: unknown option (see --help)");
  }
}

TEST(ConfigAliases, RemovedR2TFlagsAreRejected) {
  // ReadsToTranscripts index mode and its collective output are gone: their
  // flags are unknown options on the CLI, in a --config file and in a JSON
  // document.
  const std::string path = ::testing::TempDir() + "/config_test_removed_r2t.json";
  for (const auto& [flag, value] :
       std::vector<std::pair<std::string, std::string>>{{"r2t-mode", "index"},
                                                        {"r2t-mode", "vote"},
                                                        {"r2t-index", "auto"},
                                                        {"r2t-output", "collective"},
                                                        {"r2t-output", "concat"}}) {
    SCOPED_TRACE("--" + flag + " " + value);
    EXPECT_CONFIG_ERROR(parse(pipeline_cfg(), {"--" + flag, value}), flag);
    const std::string json = "{\"" + flag + "\": \"" + value + "\"}";
    EXPECT_CONFIG_ERROR(pipeline_cfg().parse_json_text(json, "<t>"), flag);
    std::ofstream(path) << json;
    EXPECT_CONFIG_ERROR(parse(pipeline_cfg(), {"--config", path}), flag);
  }
  std::remove(path.c_str());
  EXPECT_EQ(pipeline_cfg().help_text().find("r2t-index"), std::string::npos);
  EXPECT_EQ(pipeline_cfg().help_text().find("r2t-output"), std::string::npos);
}

TEST(ConfigSharding, EverySpellingParsesToItsStrategy) {
  using chrysalis::ShardingStrategy;
  const std::vector<std::pair<std::string, ShardingStrategy>> cases = {
      {"pooled", ShardingStrategy::kPooled},
      {"owner", ShardingStrategy::kOwner},
  };
  for (const auto& [spelling, want] : cases) {
    const auto options =
        parse(pipeline_cfg(), {"--gff-sharding", spelling}).pipeline_options();
    EXPECT_EQ(options.gff_sharding, want) << "--gff-sharding " << spelling;
  }
  // Default: owner-computes.
  EXPECT_EQ(parse(pipeline_cfg(), {}).pipeline_options().gff_sharding,
            ShardingStrategy::kOwner);
}

TEST(ConfigSharding, BadValueIsATypedError) {
  // "overlap" and the boolean spellings named a removed strategy.
  for (const char* spelling : {"banana", "overlap", "true"}) {
    EXPECT_CONFIG_ERROR(
        parse(pipeline_cfg(), {"--gff-sharding", spelling}).pipeline_options(),
        "gff-sharding");
  }
}

TEST(ConfigSharding, RoundTripsThroughToJson) {
  auto cfg = parse(pipeline_cfg(), {"--gff-sharding", "owner"});
  Config reloaded = pipeline_cfg();
  reloaded.parse_json_text(cfg.to_json().dump(), "<round-trip>");
  EXPECT_EQ(reloaded.pipeline_options().gff_sharding,
            chrysalis::ShardingStrategy::kOwner);
}

TEST(ConfigJson, RoundTripsThroughToJson) {
  auto cfg = parse(pipeline_cfg(), {"--ranks", "5", "--k", "21", "--no-checkpoint",
                                    "--gff-distribution", "dynamic", "--trace"});
  const std::string dumped = cfg.to_json().dump();

  Config reloaded = pipeline_cfg();
  reloaded.parse_json_text(dumped, "<round-trip>");
  const auto a = cfg.pipeline_options();
  const auto b = reloaded.pipeline_options();
  EXPECT_EQ(b.nranks, 5);
  EXPECT_EQ(b.k, 21);
  EXPECT_FALSE(b.checkpoint);
  EXPECT_EQ(b.gff_distribution, chrysalis::Distribution::kDynamic);
  EXPECT_EQ(a.trace_path, b.trace_path);
  EXPECT_EQ(a.work_dir, b.work_dir);
  EXPECT_EQ(a.max_mem_reads, b.max_mem_reads);
}

TEST(ConfigJson, AcceptsUnderscoreKeysAndScalarTypes) {
  Config cfg = pipeline_cfg();
  cfg.parse_json_text(R"({"work_dir": "/tmp/j", "ranks": 3, "checkpoint": false})",
                      "<test>");
  EXPECT_EQ(cfg.get_string("work-dir"), "/tmp/j");
  EXPECT_EQ(cfg.get_int("ranks"), 3);
  EXPECT_FALSE(cfg.get_bool("checkpoint"));
}

TEST(ConfigJson, RejectsUnknownKeysNonScalarsAndMalformedText) {
  EXPECT_CONFIG_ERROR(pipeline_cfg().parse_json_text(R"({"bogus": 1})", "<t>"), "bogus");
  EXPECT_CONFIG_ERROR(pipeline_cfg().parse_json_text(R"({"ranks": [1, 2]})", "<t>"), "ranks");
  EXPECT_CONFIG_ERROR(pipeline_cfg().parse_json_text(R"({"ranks": 2.5})", "<t>"), "ranks");
  EXPECT_CONFIG_ERROR(pipeline_cfg().parse_json_text("{not json", "<t>"), "config");
  EXPECT_CONFIG_ERROR(pipeline_cfg().parse_json_text("[1,2]", "<t>"), "config");
  EXPECT_CONFIG_ERROR(pipeline_cfg().parse_json_file("/nonexistent/config.json"), "config");
}

TEST(ConfigJson, DeeplyNestedConfigFileIsMalformedJson) {
  // A --config file of nested arrays fails with the typed config error
  // (it used to overflow the parser's stack).
  const std::string path = ::testing::TempDir() + "/config_test_nested.json";
  std::ofstream(path) << std::string(100000, '[') << std::string(100000, ']');
  try {
    (void)parse(pipeline_cfg(), {"--config", path});
    FAIL() << "expected a nested --config file to be rejected";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.field(), "config");
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("config error: --config: malformed JSON in " + path +
                             ": json: nesting deeper than",
                         0),
              0u)
        << what;
  }
  std::remove(path.c_str());
}

TEST(ConfigJson, ConfigFlagPreloadsAndCliOverrides) {
  const std::string path = ::testing::TempDir() + "/config_test_preload.json";
  {
    std::ofstream out(path);
    out << R"({"ranks": 9, "k": 17, "work-dir": "/tmp/from-json"})";
  }
  auto cfg = parse(pipeline_cfg(), {"--config", path, "--ranks", "2"});
  EXPECT_EQ(cfg.get_int("ranks"), 2);               // CLI wins
  EXPECT_EQ(cfg.get_int("k"), 17);                  // JSON value kept
  EXPECT_EQ(cfg.get_string("work-dir"), "/tmp/from-json");
  std::remove(path.c_str());
}

TEST(ConfigPipeline, EveryValidationErrorNamesItsField) {
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases = {
      {{"--ranks", "0"}, "ranks"},
      {{"--threads-per-rank", "0"}, "threads-per-rank"},
      {{"--omp-threads", "-1"}, "omp-threads"},
      {{"--k", "1"}, "k"},
      {{"--k", "33"}, "k"},
      {{"--min-kmer-count", "0"}, "min-kmer-count"},
      {{"--min-weld-support", "0"}, "min-weld-support"},
      {{"--max-mem-reads", "0"}, "max-mem-reads"},
      {{"--run-seed", "-1"}, "run-seed"},
      {{"--trace-sample-interval-ms", "-1"}, "trace-sample-interval-ms"},
      {{"--gff-distribution", "dyn"}, "gff-distribution"},
      {{"--r2t-strategy", "master"}, "r2t-strategy"},
      {{"--bowtie-split", "contigs"}, "bowtie-split"},
      {{"--gff-sharding", "overlap"}, "gff-sharding"},
      {{"--min-node-support", "-1"}, "min-node-support"},
      {{"--bowtie-repeats", "0"}, "bowtie-repeats"},
      {{"--gff-repeats", "0"}, "gff-repeats"},
      {{"--r2t-repeats", "0"}, "r2t-repeats"},
      {{"--max-attempts", "0"}, "max-attempts"},
      {{"--parse-policy", "lenient"}, "parse-policy"},
      {{"--fault-op", "sendrecv"}, "fault-op"},
      {{"--fault-op", "bcast", "--fault-at", "0"}, "fault-at"},
  };
  for (const auto& [args, field] : cases) {
    auto cfg = parse(pipeline_cfg(), args);
    EXPECT_CONFIG_ERROR(cfg.pipeline_options(), field);
  }
}

TEST(ConfigPipeline, EnumAndTraceFlagsMapToOptions) {
  // One row per strategy flag: its spellings in --help order with the enum
  // value each selects, and accessors for the PipelineOptions field.
  struct ChoiceFlag {
    std::string flag;
    std::vector<std::pair<std::string, int>> spellings;
    std::string default_spelling;
    std::function<int(const pipeline::PipelineOptions&)> get;
    std::function<void(pipeline::PipelineOptions&, int)> set;
  };
#define CHOICE_FIELD(field)                                                        \
  [](const pipeline::PipelineOptions& o) { return static_cast<int>(o.field); },    \
      [](pipeline::PipelineOptions& o, int v) {                                    \
        o.field = static_cast<decltype(pipeline::PipelineOptions::field)>(v);      \
      }
  using chrysalis::Distribution;
  using chrysalis::R2TStrategy;
  using chrysalis::ShardingStrategy;
  const auto v = [](auto e) { return static_cast<int>(e); };
  const std::vector<ChoiceFlag> flags = {
      {"gff-distribution",
       {{"crr", v(Distribution::kChunkedRoundRobin)},
        {"block", v(Distribution::kBlock)},
        {"dynamic", v(Distribution::kDynamic)}},
       "crr",
       CHOICE_FIELD(gff_distribution)},
      {"gff-sharding",
       {{"pooled", v(ShardingStrategy::kPooled)}, {"owner", v(ShardingStrategy::kOwner)}},
       "owner",
       CHOICE_FIELD(gff_sharding)},
      {"r2t-strategy",
       {{"redundant", v(R2TStrategy::kRedundantStreaming)},
        {"master-slave", v(R2TStrategy::kMasterSlave)}},
       "redundant",
       CHOICE_FIELD(r2t_strategy)},
      {"bowtie-split",
       {{"targets", v(align::BowtieSplit::kTargets)}, {"reads", v(align::BowtieSplit::kReads)}},
       "targets",
       CHOICE_FIELD(bowtie_split)},
      {"parse-policy",
       {{"strict", v(seq::ParsePolicy::kStrict)},
        {"tolerant", v(seq::ParsePolicy::kTolerant)},
        {"repair", v(seq::ParsePolicy::kRepair)}},
       "strict",
       CHOICE_FIELD(parse_policy)},
  };
#undef CHOICE_FIELD
  const std::string help = pipeline_cfg().help_text();
  for (const auto& f : flags) {
    SCOPED_TRACE("--" + f.flag);
    std::string list;
    for (const auto& [spelling, value] : f.spellings) {
      list += (list.empty() ? "" : ", ") + spelling;
      // The spelling parses to its value ...
      EXPECT_EQ(f.get(parse(pipeline_cfg(), {"--" + f.flag, spelling}).pipeline_options()),
                value);
      // ... and is what a binary whose default is that value renders.
      pipeline::PipelineOptions defaults;
      f.set(defaults, value);
      Config seeded("t", "t");
      seeded.with_pipeline(defaults);
      EXPECT_EQ(seeded.get_string(f.flag), spelling);
      EXPECT_EQ(f.get(seeded.pipeline_options()), value);
    }
    EXPECT_EQ(pipeline_cfg().get_string(f.flag), f.default_spelling);
    EXPECT_NE(help.find("(" + list + ")"), std::string::npos);
    EXPECT_NE(help.find("(default: " + f.default_spelling + ")"), std::string::npos);
    try {
      (void)parse(pipeline_cfg(), {"--" + f.flag, "bogus"}).pipeline_options();
      ADD_FAILURE() << "bogus spelling parsed";
    } catch (const ConfigError& e) {
      EXPECT_EQ(std::string(e.what()), "config error: --" + f.flag + ": must be one of " +
                                           list + " (got 'bogus')");
    }
  }

  // --trace alone turns on the default path; --trace-path implies tracing;
  // neither leaves it empty.
  EXPECT_EQ(parse(pipeline_cfg(), {"--trace"}).pipeline_options().trace_path, "trace.json");
  EXPECT_EQ(parse(pipeline_cfg(), {"--trace-path", "t.json"}).pipeline_options().trace_path,
            "t.json");
  EXPECT_TRUE(parse(pipeline_cfg(), {}).pipeline_options().trace_path.empty());
}

TEST(ConfigPipeline, WithPipelineDefaultsSeedTheOptions) {
  pipeline::PipelineOptions defaults;
  defaults.nranks = 4;
  defaults.work_dir = "/tmp/seeded";
  Config cfg("t", "t");
  cfg.with_pipeline(defaults);
  const auto options = parse(std::move(cfg), {}).pipeline_options();
  EXPECT_EQ(options.nranks, 4);
  EXPECT_EQ(options.work_dir, "/tmp/seeded");
}

TEST(ConfigFault, PlanDisabledByDefaultAndDerivedFromFlags) {
  EXPECT_FALSE(parse(pipeline_cfg(), {}).fault_plan().enabled());

  // A bare --fault-rank triggers on the first communication.
  const auto first_comm = parse(pipeline_cfg(), {"--fault-rank", "1"}).fault_plan();
  EXPECT_TRUE(first_comm.enabled());
  EXPECT_EQ(first_comm.rank, 1);
  EXPECT_DOUBLE_EQ(first_comm.after_virtual_seconds, 0.0);

  const auto at_op = parse(pipeline_cfg(), {"--fault-rank", "0", "--fault-op", "gatherv",
                                            "--fault-at", "2"})
                         .fault_plan();
  EXPECT_TRUE(at_op.enabled());
  EXPECT_EQ(at_op.op, simpi::CommOp::kGatherv);
  EXPECT_EQ(at_op.at_entry, 2);
}

TEST(ConfigMisuse, WrongTypeAndUndeclaredAccess) {
  auto cfg = parse(pipeline_cfg(), {});
  EXPECT_CONFIG_ERROR(cfg.get_string("ranks"), "ranks");     // int accessed as string
  EXPECT_CONFIG_ERROR(cfg.get_int("undeclared"), "undeclared");
  Config bare("t", "t");
  EXPECT_CONFIG_ERROR(bare.pipeline_options(), "ranks");
  EXPECT_CONFIG_ERROR(bare.fault_plan(), "fault-rank");
  EXPECT_CONFIG_ERROR(bare.flag_int("x", 0, "h").flag_int("x", 1, "h"), "x");
}

}  // namespace
}  // namespace trinity
