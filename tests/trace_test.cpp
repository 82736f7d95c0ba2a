// Tests for trinity::trace — the span recorder (disabled fast path,
// per-thread buffers, capacity drops, rank attribution), well-formedness of
// the recorded timelines (per-thread nesting, per-track monotonicity), the
// Chrome trace-event export/loader/validator (including a golden-file shape
// check), the critical-path analyzer, and the contract that simpi wait
// sub-spans carry the exact wall time added to CommStats.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "simpi/context.hpp"
#include "trace/analyze.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/span_recorder.hpp"
#include "util/json.hpp"

namespace trinity::trace {
namespace {

TraceEvent make_span(const char* name, const char* cat, int rank, int tid,
                     double start_s, double dur_s) {
  TraceEvent ev;
  ev.kind = EventKind::kSpan;
  ev.name = name;
  ev.category = cat;
  ev.rank = rank;
  ev.tid = tid;
  ev.start_s = start_s;
  ev.dur_s = dur_s;
  return ev;
}

// --- recorder ----------------------------------------------------------------

TEST(SpanRecorderTest, DisabledByDefault) {
  EXPECT_FALSE(enabled());
  EXPECT_EQ(SpanRecorder::active(), nullptr);
  // Every hook must be a safe no-op without a recorder.
  {
    SpanScope span("noop", kCatSimpi);
    EXPECT_FALSE(static_cast<bool>(span));
    span.arg("bytes", 1.0);
  }
  completed_span("noop.wait", kCatSimpi, 0.001);
  instant("noop.instant", kCatIo, "detail");
  counter("noop.counter", kCatPipeline, 42.0);
}

TEST(SpanRecorderTest, RecordsSpansInstantsAndCounters) {
  SpanRecorder recorder;
  {
    ScopedRecording recording(&recorder);
    EXPECT_TRUE(enabled());
    {
      SpanScope span("op", kCatSimpi);
      ASSERT_TRUE(static_cast<bool>(span));
      span.arg("bytes", 128.0);
      span.set_detail("hello");
    }
    instant("fault", kCatIo, "eio", {{"entry", 2.0}});
    counter("rss_bytes", kCatPipeline, 1024.0);
  }
  EXPECT_FALSE(enabled());
  const auto events = recorder.drain();
  ASSERT_EQ(events.size(), 3u);
  std::map<std::string, const TraceEvent*> by_name;
  for (const auto& ev : events) by_name[ev.name] = &ev;
  ASSERT_TRUE(by_name.count("op"));
  EXPECT_EQ(by_name["op"]->kind, EventKind::kSpan);
  EXPECT_GE(by_name["op"]->dur_s, 0.0);
  ASSERT_EQ(by_name["op"]->args.size(), 1u);
  EXPECT_EQ(by_name["op"]->args[0].name, "bytes");
  EXPECT_DOUBLE_EQ(by_name["op"]->args[0].value, 128.0);
  EXPECT_EQ(by_name["op"]->detail, "hello");
  ASSERT_TRUE(by_name.count("fault"));
  EXPECT_EQ(by_name["fault"]->kind, EventKind::kInstant);
  EXPECT_EQ(by_name["fault"]->detail, "eio");
  ASSERT_TRUE(by_name.count("rss_bytes"));
  EXPECT_EQ(by_name["rss_bytes"]->kind, EventKind::kCounter);
  EXPECT_DOUBLE_EQ(by_name["rss_bytes"]->value, 1024.0);
  // drain() moved everything out.
  EXPECT_TRUE(recorder.drain().empty());
}

TEST(SpanRecorderTest, SpanOpenAcrossUninstallIsDiscarded) {
  SpanRecorder recorder;
  ScopedRecording* recording = new ScopedRecording(&recorder);
  auto* span = new SpanScope("outlives", kCatSimpi);
  delete recording;  // recorder uninstalled while the span is open
  delete span;       // must not write into the (now inactive) recorder
  EXPECT_TRUE(recorder.drain().empty());
}

TEST(SpanRecorderTest, CapacityBoundsBufferAndCountsDrops) {
  SpanRecorder recorder(/*per_thread_capacity=*/4);
  {
    ScopedRecording recording(&recorder);
    for (int i = 0; i < 10; ++i) instant("tick", kCatPipeline);
  }
  EXPECT_EQ(recorder.drain().size(), 4u);
  EXPECT_EQ(recorder.dropped_events(), 6u);
}

TEST(SpanRecorderTest, ScopedRankAttributesEvents) {
  EXPECT_EQ(current_rank(), -1);
  SpanRecorder recorder;
  {
    ScopedRecording recording(&recorder);
    {
      ScopedRank rank(3);
      EXPECT_EQ(current_rank(), 3);
      SpanScope span("ranked", kCatSimpi);
    }
    EXPECT_EQ(current_rank(), -1);
    SpanScope span("unranked", kCatPipeline);
  }
  const auto events = recorder.drain();
  ASSERT_EQ(events.size(), 2u);
  for (const auto& ev : events) {
    EXPECT_EQ(ev.rank, ev.name == "ranked" ? 3 : -1);
  }
}

TEST(SpanRecorderTest, ThreadsRecordIntoSeparateBuffersAndMergeOnDrain) {
  SpanRecorder recorder;
  {
    ScopedRecording recording(&recorder);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([t] {
        ScopedRank rank(t);
        for (int i = 0; i < 8; ++i) {
          SpanScope span("work", kCatLoop, t, /*tid=*/0);
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  const auto events = recorder.drain();
  EXPECT_EQ(events.size(), 32u);
  std::map<int, int> per_rank;
  for (const auto& ev : events) ++per_rank[ev.rank];
  for (int t = 0; t < 4; ++t) EXPECT_EQ(per_rank[t], 8);
}

// --- timeline well-formedness -------------------------------------------------

// Spans recorded by one thread must nest: sorted by start, every span lies
// entirely within the enclosing open span (RAII makes this structural; the
// test guards the timestamp arithmetic).
TEST(TimelineTest, SpansNestProperlyPerThread) {
  SpanRecorder recorder;
  {
    ScopedRecording recording(&recorder);
    std::vector<std::thread> threads;
    for (int t = 0; t < 3; ++t) {
      threads.emplace_back([t] {
        ScopedRank rank(t);
        for (int i = 0; i < 4; ++i) {
          SpanScope outer("outer", kCatSimpi);
          std::this_thread::sleep_for(std::chrono::microseconds(50));
          {
            SpanScope inner("inner", kCatSimpi);
            std::this_thread::sleep_for(std::chrono::microseconds(50));
          }
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  const auto events = recorder.drain();
  ASSERT_EQ(events.size(), 24u);

  std::map<std::pair<int, int>, std::vector<const TraceEvent*>> tracks;
  for (const auto& ev : events) tracks[{ev.rank, ev.tid}].push_back(&ev);
  EXPECT_EQ(tracks.size(), 3u);
  constexpr double kSlack = 1e-9;
  for (auto& [track, spans] : tracks) {
    std::sort(spans.begin(), spans.end(),
              [](const TraceEvent* a, const TraceEvent* b) {
                if (a->start_s != b->start_s) return a->start_s < b->start_s;
                return a->dur_s > b->dur_s;  // parent before child on ties
              });
    std::vector<const TraceEvent*> open;
    for (const TraceEvent* span : spans) {
      while (!open.empty() &&
             open.back()->start_s + open.back()->dur_s <= span->start_s + kSlack) {
        open.pop_back();
      }
      if (!open.empty()) {
        // Overlapping spans on one thread must nest, not straddle.
        EXPECT_GE(span->start_s, open.back()->start_s - kSlack);
        EXPECT_LE(span->start_s + span->dur_s,
                  open.back()->start_s + open.back()->dur_s + kSlack);
      }
      open.push_back(span);
    }
  }
}

TEST(TimelineTest, ExportedEventsAreMonotonicPerTrack) {
  SpanRecorder recorder;
  {
    ScopedRecording recording(&recorder);
    std::vector<std::thread> threads;
    for (int t = 0; t < 3; ++t) {
      threads.emplace_back([t] {
        ScopedRank rank(t);
        for (int i = 0; i < 16; ++i) {
          SpanScope span("op", kCatSimpi);
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  const util::Json doc = chrome_trace_json(recorder.drain());

  // The document is sorted by ts, so each (pid, tid) track — and in fact
  // the whole file — must be non-decreasing in ts.
  double last_ts = -1.0;
  std::map<std::pair<std::int64_t, std::int64_t>, double> last_per_track;
  for (const util::Json& e : doc.at("traceEvents").items()) {
    if (e.at("ph").as_string() == "M") continue;
    const double ts = e.at("ts").as_double();
    EXPECT_GE(ts, last_ts);
    last_ts = ts;
    const std::pair<std::int64_t, std::int64_t> track{e.at("pid").as_int(),
                                                      e.at("tid").as_int()};
    auto it = last_per_track.find(track);
    if (it != last_per_track.end()) {
      EXPECT_GE(ts, it->second);
    }
    last_per_track[track] = ts;
  }
}

// --- simpi wait sub-spans ----------------------------------------------------

// The "<op>.wait" spans are recorded from the very double that simpi adds to
// CommStats::wait_seconds, so per rank the two bookkeeping paths must agree
// to floating-point-summation tolerance.
TEST(SimpiWaitSpanTest, WaitSpanTotalsMatchCommStats) {
  SpanRecorder recorder;
  std::vector<simpi::RankResult> results;
  {
    ScopedRecording recording(&recorder);
    results = simpi::run(2, [](simpi::Context& ctx) {
      // Rank 1 arrives late: rank 0 blocks in the barrier.
      if (ctx.rank() == 1) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      ctx.barrier();
      // Root delays the payload: rank 1 blocks in the bcast receive.
      std::vector<int> data;
      if (ctx.rank() == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        data.assign(256, 7);
      }
      ctx.bcast(data, 0);
      ctx.send(ctx.rank() == 0 ? 1 : 0, /*tag=*/5, std::vector<int>{ctx.rank()});
      (void)ctx.recv<int>(ctx.rank() == 0 ? 1 : 0, /*tag=*/5);
      ctx.barrier();
    });
  }
  const auto events = recorder.drain();

  std::map<int, double> wait_from_spans;
  for (const auto& ev : events) {
    if (ev.kind != EventKind::kSpan || ev.category != kCatSimpi) continue;
    const std::string& n = ev.name;
    if (n.size() > 5 && n.compare(n.size() - 5, 5, ".wait") == 0) {
      wait_from_spans[ev.rank] += ev.dur_s;
    }
  }
  ASSERT_EQ(results.size(), 2u);
  // Rank 0 measurably blocked on the barrier, so the comparison is not 0 == 0.
  EXPECT_GT(results[0].comm.total_wait_seconds(), 0.01);
  for (const auto& r : results) {
    EXPECT_NEAR(wait_from_spans[r.rank], r.comm.total_wait_seconds(), 1e-9)
        << "rank " << r.rank;
  }
}

// --- Chrome trace export ------------------------------------------------------

// Golden shape test: a deterministic event set must serialize to exactly
// this document (timestamps chosen so the shortest-round-trip float
// formatter prints integers). Any change here is a trace-format change and
// must follow the compatibility rule in docs/OBSERVABILITY.md.
TEST(ChromeTraceTest, GoldenDocument) {
  // Timestamps are binary-exact fractions so ts = start_s * 1e6 is an exact
  // integer and the shortest-round-trip formatter prints it as one.
  std::vector<TraceEvent> events;
  {
    TraceEvent span = make_span("bcast", "simpi", /*rank=*/0, /*tid=*/0,
                                /*start_s=*/0.25, /*dur_s=*/0.125);
    span.args.push_back({"bytes", 64.0});
    events.push_back(std::move(span));
  }
  {
    TraceEvent fault;
    fault.kind = EventKind::kInstant;
    fault.name = "io.fault";
    fault.category = "io";
    fault.rank = 1;
    fault.start_s = 0.5;
    fault.detail = "eio at write /x";
    events.push_back(std::move(fault));
  }
  {
    TraceEvent rss;
    rss.kind = EventKind::kCounter;
    rss.name = "rss_bytes";
    rss.category = "pipeline";
    rss.rank = -1;
    rss.start_s = 0.75;
    rss.value = 1048576.0;
    events.push_back(std::move(rss));
  }

  const std::string expected =
      R"({"traceEvents":[)"
      R"({"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"pipeline"}},)"
      R"({"name":"process_sort_index","ph":"M","pid":0,"tid":0,"args":{"sort_index":0}},)"
      R"({"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"rank 0"}},)"
      R"({"name":"process_sort_index","ph":"M","pid":1,"tid":0,"args":{"sort_index":1}},)"
      R"({"name":"process_name","ph":"M","pid":2,"tid":0,"args":{"name":"rank 1"}},)"
      R"({"name":"process_sort_index","ph":"M","pid":2,"tid":0,"args":{"sort_index":2}},)"
      R"({"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"main"}},)"
      R"({"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"main"}},)"
      R"({"name":"thread_name","ph":"M","pid":2,"tid":0,"args":{"name":"main"}},)"
      R"({"name":"bcast","cat":"simpi","ph":"X","pid":1,"tid":0,"ts":250000,"dur":125000,"args":{"bytes":64}},)"
      R"({"name":"io.fault","cat":"io","ph":"i","s":"t","pid":2,"tid":0,"ts":500000,"args":{"detail":"eio at write /x"}},)"
      R"({"name":"rss_bytes","cat":"pipeline","ph":"C","pid":0,"tid":0,"ts":750000,"args":{"value":1048576}})"
      R"(],"displayTimeUnit":"ms","otherData":{"generator":"trinity_trace",)"
      R"("clock_domain":"process steady clock, seconds since recorder construction",)"
      R"("dropped_events":0}})";
  EXPECT_EQ(chrome_trace_json(events).dump(), expected);

  const TraceShapeReport shape = validate_chrome_trace(chrome_trace_json(events));
  EXPECT_TRUE(shape.ok()) << (shape.errors.empty() ? "" : shape.errors[0]);
  EXPECT_EQ(shape.num_events, 12u);
}

TEST(ChromeTraceTest, ExportLoadRoundTrip) {
  std::vector<TraceEvent> events;
  {
    TraceEvent span = make_span("gatherv", "simpi", 2, 1, 0.25, 0.125);
    span.args.push_back({"bytes", 4096.0});
    span.args.push_back({"root", 0.0});
    span.detail = "pooling";
    events.push_back(std::move(span));
  }
  {
    TraceEvent c;
    c.kind = EventKind::kCounter;
    c.name = "rss_bytes";
    c.category = "pipeline";
    c.rank = -1;
    c.start_s = 0.5;
    c.value = 123456.0;
    events.push_back(std::move(c));
  }
  const auto loaded = events_from_chrome_trace(chrome_trace_json(events));
  ASSERT_EQ(loaded.size(), events.size());
  const TraceEvent& span = loaded[0];
  EXPECT_EQ(span.kind, EventKind::kSpan);
  EXPECT_EQ(span.name, "gatherv");
  EXPECT_EQ(span.category, "simpi");
  EXPECT_EQ(span.rank, 2);
  EXPECT_EQ(span.tid, 1);
  EXPECT_DOUBLE_EQ(span.start_s, 0.25);
  EXPECT_DOUBLE_EQ(span.dur_s, 0.125);
  ASSERT_EQ(span.args.size(), 2u);
  EXPECT_EQ(span.args[0].name, "bytes");
  EXPECT_DOUBLE_EQ(span.args[0].value, 4096.0);
  EXPECT_EQ(span.detail, "pooling");
  const TraceEvent& c = loaded[1];
  EXPECT_EQ(c.kind, EventKind::kCounter);
  EXPECT_EQ(c.rank, -1);
  EXPECT_DOUBLE_EQ(c.value, 123456.0);
  EXPECT_TRUE(c.args.empty());  // "value" folds back into the value field
}

TEST(ChromeTraceTest, ValidatorRejectsMalformedDocuments) {
  EXPECT_FALSE(validate_chrome_trace(util::Json::parse("[1,2]")).ok());
  EXPECT_FALSE(validate_chrome_trace(util::Json::parse(R"({"foo":1})")).ok());

  auto doc_with_event = [](const std::string& event_json) {
    return util::Json::parse(R"({"traceEvents":[)" + event_json + "]}");
  };
  // Unknown phase.
  EXPECT_FALSE(validate_chrome_trace(doc_with_event(
                   R"({"name":"x","ph":"Q","pid":0,"tid":0,"ts":0})"))
                   .ok());
  // Complete event without a duration.
  EXPECT_FALSE(validate_chrome_trace(doc_with_event(
                   R"({"name":"x","ph":"X","pid":0,"tid":0,"ts":0})"))
                   .ok());
  // Negative timestamp.
  EXPECT_FALSE(validate_chrome_trace(doc_with_event(
                   R"({"name":"x","ph":"i","pid":0,"tid":0,"ts":-1})"))
                   .ok());
  // Counter without a numeric args member.
  EXPECT_FALSE(validate_chrome_trace(doc_with_event(
                   R"({"name":"x","ph":"C","pid":0,"tid":0,"ts":0})"))
                   .ok());
  // The loader refuses what the validator refuses.
  EXPECT_THROW(events_from_chrome_trace(util::Json::parse(R"({"foo":1})")),
               std::runtime_error);
}

// --- analyzer ----------------------------------------------------------------

TEST(AnalyzeTest, CriticalPathBlockedTimeAndTopSpans) {
  // One pipeline stage [0, 10]; rank 0 computes 8 s then waits 2 s at the
  // closing collective, rank 1 computes 4 s and waits 6 s. Rank 0 is the
  // critical rank; skew = 8 / 4 = 2.
  std::vector<TraceEvent> events;
  events.push_back(make_span("chrysalis.graph_from_fasta", kCatPipeline, -1, 0,
                             0.0, 10.0));
  events.push_back(make_span("compute", kCatLoop, 0, 0, 0.0, 8.0));
  events.push_back(make_span("barrier", kCatSimpi, 0, 0, 8.0, 2.0));
  events.push_back(make_span("barrier.wait", kCatSimpi, 0, 0, 8.0, 2.0));
  events.push_back(make_span("compute", kCatLoop, 1, 0, 0.0, 4.0));
  events.push_back(make_span("barrier", kCatSimpi, 1, 0, 4.0, 6.0));
  events.push_back(make_span("barrier.wait", kCatSimpi, 1, 0, 4.0, 6.0));

  const TraceAnalysis analysis = analyze_trace(events, /*top_n=*/3);
  ASSERT_EQ(analysis.stages.size(), 1u);
  const StageCriticalPath& stage = analysis.stages[0];
  EXPECT_EQ(stage.stage, "chrysalis.graph_from_fasta");
  EXPECT_DOUBLE_EQ(stage.wall_s, 10.0);
  EXPECT_EQ(stage.critical_rank, 0);
  EXPECT_NEAR(stage.critical_busy_s, 8.0, 1e-9);
  EXPECT_NEAR(stage.skew_ratio, 2.0, 1e-9);
  ASSERT_EQ(stage.ranks.size(), 2u);
  EXPECT_NEAR(stage.ranks[0].blocked_s, 2.0, 1e-9);
  EXPECT_NEAR(stage.ranks[1].blocked_s, 6.0, 1e-9);
  EXPECT_NEAR(stage.ranks[1].busy_s, 4.0, 1e-9);

  ASSERT_EQ(analysis.rank_totals.size(), 2u);
  EXPECT_NEAR(analysis.rank_totals[1].blocked_s, 6.0, 1e-9);

  // Top spans exclude the stage span itself; the longest is compute@rank 0.
  ASSERT_EQ(analysis.top_spans.size(), 3u);
  EXPECT_EQ(analysis.top_spans[0].name, "compute");
  EXPECT_EQ(analysis.top_spans[0].rank, 0);
  EXPECT_DOUBLE_EQ(analysis.top_spans[0].dur_s, 8.0);

  const std::string text = format_analysis(analysis);
  EXPECT_NE(text.find("critical"), std::string::npos);
  EXPECT_NE(text.find("top spans"), std::string::npos);
  EXPECT_NE(text.find("chrysalis.graph_from_fasta"), std::string::npos);
}

TEST(AnalyzeTest, OverlappingSpansDoNotDoubleCountCoverage) {
  // Nested op + its wait sub-span: coverage is the union (5 s), blocked is
  // the wait (3 s), busy = 2 s — not 5 + 3.
  std::vector<TraceEvent> events;
  events.push_back(make_span("stage", kCatPipeline, -1, 0, 0.0, 5.0));
  events.push_back(make_span("bcast", kCatSimpi, 0, 0, 0.0, 5.0));
  events.push_back(make_span("bcast.wait", kCatSimpi, 0, 0, 2.0, 3.0));
  const TraceAnalysis analysis = analyze_trace(events);
  ASSERT_EQ(analysis.stages.size(), 1u);
  ASSERT_EQ(analysis.stages[0].ranks.size(), 1u);
  EXPECT_NEAR(analysis.stages[0].ranks[0].busy_s, 2.0, 1e-9);
  EXPECT_NEAR(analysis.stages[0].ranks[0].blocked_s, 3.0, 1e-9);
}

}  // namespace
}  // namespace trinity::trace
