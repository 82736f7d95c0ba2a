// Tests for trinity::util — RNG, statistics, timers,
// memory probes, and the ResourceTrace phase recorder.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include "util/json.hpp"
#include "util/log.hpp"
#include "util/resource_trace.hpp"
#include "util/rng.hpp"
#include "util/rss.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace trinity::util {
namespace {

// --- Rng ----------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, UniformBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform_below(17), 17u);
  }
}

TEST(RngTest, UniformBelowHitsEveryValue) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo = saw_lo || v == -3;
    saw_hi = saw_hi || v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, Uniform01HalfOpen) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NormalMomentsApproximatelyStandard) {
  Rng rng(17);
  double sum = 0.0;
  double sumsq = 0.0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal();
    sum += x;
    sumsq += x * x;
  }
  const double mean = sum / kN;
  const double var = sumsq / kN - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(RngTest, LognormalIsPositive) {
  Rng rng(19);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.lognormal(0.0, 2.0), 0.0);
}

TEST(RngTest, BernoulliFrequencyTracksP) {
  Rng rng(23);
  int hits = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.02);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng a(31);
  Rng b = a.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

// --- stats ---------------------------------------------------------------------

TEST(StatsTest, SummarizeEmpty) {
  const auto s = summarize({});
  EXPECT_EQ(s.n, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(StatsTest, SummarizeKnownValues) {
  const auto s = summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(s.n, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_NEAR(s.variance, 5.0 / 3.0, 1e-12);
}

TEST(StatsTest, WelchIdenticalSamplesNotSignificant) {
  const std::vector<double> a{5.0, 5.1, 4.9, 5.05};
  const auto r = welch_t_test(a, a);
  EXPECT_NEAR(r.t, 0.0, 1e-12);
  EXPECT_FALSE(r.significant_at_5pct);
}

TEST(StatsTest, WelchClearlyDifferentSamplesSignificant) {
  const std::vector<double> a{1.0, 1.1, 0.9, 1.05, 0.95};
  const std::vector<double> b{10.0, 10.1, 9.9, 10.05, 9.95};
  const auto r = welch_t_test(a, b);
  EXPECT_TRUE(r.significant_at_5pct);
  EXPECT_LT(r.p_two_sided, 0.001);
}

TEST(StatsTest, WelchOverlappingSamplesNotSignificant) {
  // The paper's criterion: overlapping distributions -> no significant
  // difference between parallel and original outputs.
  const std::vector<double> a{100, 103, 98, 101, 99, 102};
  const std::vector<double> b{101, 99, 102, 100, 98, 103};
  const auto r = welch_t_test(a, b);
  EXPECT_FALSE(r.significant_at_5pct);
}

TEST(StatsTest, WelchTooSmallSampleIsNeutral) {
  const auto r = welch_t_test({1.0}, {2.0, 3.0});
  EXPECT_EQ(r.p_two_sided, 1.0);
  EXPECT_FALSE(r.significant_at_5pct);
}

TEST(StatsTest, ConstantSamplesSameMean) {
  const auto r = welch_t_test({2.0, 2.0, 2.0}, {2.0, 2.0, 2.0});
  EXPECT_FALSE(r.significant_at_5pct);
  EXPECT_EQ(r.p_two_sided, 1.0);
}

TEST(StatsTest, N50KnownValue) {
  // lengths 10,9,8,...: total 10+9+8+7+6 = 40; half = 20; 10+9=19 < 20,
  // 10+9+8=27 >= 20 -> N50 = 8.
  EXPECT_EQ(n50({10, 9, 8, 7, 6}), 8u);
}

TEST(StatsTest, N50SingleContig) { EXPECT_EQ(n50({42}), 42u); }

TEST(StatsTest, N50Empty) { EXPECT_EQ(n50({}), 0u); }

// --- timers & memory -------------------------------------------------------------

TEST(TimerTest, WallTimeAdvances) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  EXPECT_GE(t.seconds(), 0.010);
}

TEST(TimerTest, ThreadCpuTimeCountsOwnWorkOnly) {
  ThreadCpuTimer cpu;
  // Busy loop to accumulate CPU time on this thread.
  // The thread CPU clock can tick as coarsely as 10 ms; burn well past that.
  double sink = 0.0;
  for (int i = 0; i < 40000000; ++i) sink += std::sqrt(static_cast<double>(i));
  EXPECT_GE(sink, 0.0);
  const double mine = cpu.seconds();
  EXPECT_GT(mine, 0.0);

  // A sleeping thread accumulates (almost) no CPU time.
  double other = 1.0;
  std::thread sleeper([&] {
    ThreadCpuTimer inner;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    other = inner.seconds();
  });
  sleeper.join();
  EXPECT_LT(other, 0.02);
}

TEST(RssTest, ProbesReturnPlausibleValues) {
  EXPECT_GT(current_rss_bytes(), 1u << 20);  // > 1 MiB resident
}

// --- ResourceTrace ----------------------------------------------------------------

TEST(ResourceTraceTest, RecordsPhasesInOrder) {
  ResourceTrace trace(0);
  trace.phase("alpha", [] {});
  trace.phase("beta", [] { std::this_thread::sleep_for(std::chrono::milliseconds(5)); });
  ASSERT_EQ(trace.records().size(), 2u);
  EXPECT_EQ(trace.records()[0].name, "alpha");
  EXPECT_EQ(trace.records()[1].name, "beta");
  EXPECT_GE(trace.records()[1].wall_seconds, 0.004);
  EXPECT_GE(trace.records()[1].start_seconds, trace.records()[0].start_seconds);
}

TEST(ResourceTraceTest, NestedPhaseThrows) {
  ResourceTrace trace(0);
  trace.begin_phase("outer");
  EXPECT_THROW(trace.begin_phase("inner"), std::logic_error);
  trace.end_phase();
}

TEST(ResourceTraceTest, EndWithoutBeginThrows) {
  ResourceTrace trace(0);
  EXPECT_THROW(trace.end_phase(), std::logic_error);
}

TEST(ResourceTraceTest, PeakCoversBeforeAndAfter) {
  ResourceTrace trace(0);
  trace.phase("p", [] {});
  const auto& r = trace.records().front();
  EXPECT_GE(r.rss_peak, r.rss_before);
  EXPECT_GE(r.rss_peak, r.rss_after);
}

TEST(ResourceTraceTest, ZeroIntervalFallsBackToBeforeAfterMax) {
  // With the sampler disabled (interval 0) there are no mid-phase samples,
  // so the documented fallback applies: rss_peak == max(rss_before,
  // rss_after), never 0 and never below either endpoint.
  ResourceTrace trace(0);
  trace.phase("grow", [] {
    // Allocate ~32 MB and keep it live across the phase end so rss_after
    // (and hence the fallback peak) reflects the growth.
    static std::vector<char> keep;
    keep.assign(32 << 20, 1);
    volatile char sink = keep[999];
    (void)sink;
  });
  const auto& r = trace.records().front();
  EXPECT_GT(r.rss_peak, 0u);
  EXPECT_EQ(r.rss_peak, std::max(r.rss_before, r.rss_after));
}

TEST(ResourceTraceTest, BackgroundSamplerCapturesTransientPeak) {
  ResourceTrace trace(5);  // 5 ms sampler
  trace.phase("alloc", [] {
    // Allocate ~64 MB, touch it, then free — the sampler should catch the
    // transient even though rss_after drops back down.
    std::vector<char> big(64 << 20, 1);
    volatile char sink = big[12345];
    (void)sink;
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
  });
  const auto& r = trace.records().front();
  EXPECT_GE(r.rss_peak, r.rss_before);
}

TEST(ResourceTraceTest, CounterAttachesToOpenPhase) {
  ResourceTrace trace(0);
  trace.phase("stage", [&] {
    trace.counter("skew_ratio", 1.5);
    trace.counter("bytes", 128.0);
    trace.counter("skew_ratio", 2.0);  // same name: last write wins
  });
  const auto& r = trace.records().front();
  ASSERT_EQ(r.counters.size(), 2u);
  const PhaseCounter* skew = r.counter("skew_ratio");
  ASSERT_NE(skew, nullptr);
  EXPECT_DOUBLE_EQ(skew->value, 2.0);
  EXPECT_EQ(r.counter("missing"), nullptr);
}

TEST(ResourceTraceTest, CounterOutsidePhaseThrows) {
  ResourceTrace trace(0);
  EXPECT_THROW(trace.counter("x", 1.0), std::logic_error);
}

// --- Json -------------------------------------------------------------------------

TEST(JsonTest, ParseDumpRoundTrip) {
  const std::string text =
      R"({"name":"run","count":3,"ratio":1.5,"ok":true,"none":null,"items":[1,2,3]})";
  const Json doc = Json::parse(text);
  EXPECT_EQ(doc.dump(), text);  // insertion order and value forms preserved
  EXPECT_EQ(doc.at("name").as_string(), "run");
  EXPECT_EQ(doc.at("count").as_int(), 3);
  EXPECT_DOUBLE_EQ(doc.at("ratio").as_double(), 1.5);
  EXPECT_TRUE(doc.at("ok").as_bool());
  EXPECT_TRUE(doc.at("none").is_null());
  EXPECT_EQ(doc.at("items").items().size(), 3u);
}

TEST(JsonTest, LargeIntegersStayExact) {
  // Beyond 2^53: a double round-trip would corrupt this (byte counters in
  // the run report need exact 64-bit integers).
  const std::string text = "[9007199254740993,-9007199254740993]";
  const Json doc = Json::parse(text);
  EXPECT_EQ(doc.items().at(0).as_int(), 9007199254740993LL);
  EXPECT_EQ(doc.dump(), text);
}

TEST(JsonTest, AsIntRejectsNonIntegralNumbers) {
  const Json doc = Json::parse("1.5");
  EXPECT_THROW((void)doc.as_int(), std::runtime_error);
  EXPECT_DOUBLE_EQ(doc.as_double(), 1.5);
  EXPECT_THROW((void)doc.as_string(), std::runtime_error);
}

TEST(JsonTest, StringEscapesRoundTrip) {
  const Json doc = Json::parse(R"(["a\nb","A\t\"q\""])");
  EXPECT_EQ(doc.items().at(0).as_string(), "a\nb");
  EXPECT_EQ(doc.items().at(1).as_string(), "A\t\"q\"");
  EXPECT_EQ(Json::parse(doc.dump()).items().at(0).as_string(), "a\nb");
}

TEST(JsonTest, MalformedDocumentsThrow) {
  EXPECT_THROW((void)Json::parse(""), std::runtime_error);
  EXPECT_THROW((void)Json::parse("{"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("{} trailing"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("nul"), std::runtime_error);
}

// The parser recurses once per container, so nesting is capped: a document
// exactly kMaxDepth deep parses, one level more is the typed json: error,
// and a 100,000-deep one (which used to overflow the stack) fails the same
// way.
TEST(JsonTest, NestingDepthIsCapped) {
  const auto nested = [](int depth, char open, char close) {
    return std::string(static_cast<std::size_t>(depth), open) +
           std::string(static_cast<std::size_t>(depth), close);
  };
  const Json deepest = Json::parse(nested(Json::kMaxDepth, '[', ']'));
  const Json* inner = &deepest;
  int depth = 1;
  while (!inner->items().empty()) {
    inner = &inner->items().front();
    ++depth;
  }
  EXPECT_EQ(depth, Json::kMaxDepth);

  std::string objects;
  for (int i = 0; i < Json::kMaxDepth - 1; ++i) objects += R"({"a":)";
  objects += "{}" + std::string(Json::kMaxDepth - 1, '}');
  EXPECT_NO_THROW((void)Json::parse(objects));

  const std::string expected =
      "json: nesting deeper than " + std::to_string(Json::kMaxDepth) + " levels";
  for (const std::string& text :
       {nested(Json::kMaxDepth + 1, '[', ']'), R"({"a":)" + objects + "}",
        std::string(100000, '[')}) {
    try {
      (void)Json::parse(text);
      FAIL() << "expected a nesting error for a " << text.size() << "-byte document";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind(expected, 0), 0u) << e.what();
    }
  }
}

TEST(JsonTest, BuildersFindAndAt) {
  Json obj = Json::object();
  obj.set("a", 1);
  obj.set("b", "text");
  obj.set("a", 2);  // set replaces in place, keeping position
  ASSERT_EQ(obj.members().size(), 2u);
  EXPECT_EQ(obj.members().front().first, "a");
  EXPECT_EQ(obj.at("a").as_int(), 2);
  EXPECT_EQ(obj.find("missing"), nullptr);
  EXPECT_THROW((void)obj.at("missing"), std::runtime_error);

  Json arr = Json::array();
  arr.push_back(Json(true));
  arr.push_back(std::move(obj));
  EXPECT_EQ(arr.items().size(), 2u);
  EXPECT_EQ(arr.dump(), R"([true,{"a":2,"b":"text"}])");
}

TEST(JsonTest, PrettyDumpIndents) {
  Json obj = Json::object();
  obj.set("k", 1);
  EXPECT_EQ(obj.dump(2), "{\n  \"k\": 1\n}");
}

TEST(LogTest, LevelGatesOutput) {
  const LogLevel saved = log_level();
  log_level() = LogLevel::Warn;
  EXPECT_TRUE(log_enabled(LogLevel::Error));
  EXPECT_TRUE(log_enabled(LogLevel::Warn));
  EXPECT_FALSE(log_enabled(LogLevel::Info));
  log_level() = saved;
}

}  // namespace
}  // namespace trinity::util
