#include "trace/chrome_trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace trinity::trace {
namespace {

constexpr double kMicros = 1e6;

int pid_for_rank(int rank) { return rank < 0 ? 0 : rank + 1; }

// Counters and byte args are integral-valued doubles; emitting them as
// JSON integers keeps the file greppable and round-trips exactly.
util::Json number_json(double value) {
  if (std::isfinite(value) && value == std::floor(value) &&
      std::abs(value) < 9.0e15) {
    return util::Json(static_cast<std::int64_t>(value));
  }
  return util::Json(value);
}

util::Json args_json(const TraceEvent& ev) {
  util::Json args = util::Json::object();
  for (const TraceArg& a : ev.args) args.set(a.name, number_json(a.value));
  if (!ev.detail.empty()) args.set("detail", util::Json(ev.detail));
  return args;
}

std::string process_name(int pid) {
  if (pid == 0) return "pipeline";
  return "rank " + std::to_string(pid - 1);
}

}  // namespace

util::Json chrome_trace_json(const std::vector<TraceEvent>& events,
                             const ChromeTraceMeta& meta) {
  // Sort a copy by (ts, pid, tid) so every track is monotonic in the file;
  // Perfetto does not require it but the tests and diffs do.
  std::vector<const TraceEvent*> order;
  order.reserve(events.size());
  for (const TraceEvent& ev : events) order.push_back(&ev);
  std::stable_sort(order.begin(), order.end(),
                   [](const TraceEvent* a, const TraceEvent* b) {
                     if (a->start_s != b->start_s) return a->start_s < b->start_s;
                     if (a->rank != b->rank) return a->rank < b->rank;
                     return a->tid < b->tid;
                   });

  util::Json trace_events = util::Json::array();

  // Metadata tracks first: process names per rank, thread names per track.
  std::set<int> pids;
  std::set<std::pair<int, int>> tracks;
  for (const TraceEvent& ev : events) {
    pids.insert(pid_for_rank(ev.rank));
    tracks.insert({pid_for_rank(ev.rank), ev.tid});
  }
  for (int pid : pids) {
    util::Json m = util::Json::object();
    m.set("name", util::Json("process_name"));
    m.set("ph", util::Json("M"));
    m.set("pid", util::Json(pid));
    m.set("tid", util::Json(0));
    util::Json args = util::Json::object();
    args.set("name", util::Json(process_name(pid)));
    m.set("args", std::move(args));
    trace_events.push_back(std::move(m));

    util::Json s = util::Json::object();
    s.set("name", util::Json("process_sort_index"));
    s.set("ph", util::Json("M"));
    s.set("pid", util::Json(pid));
    s.set("tid", util::Json(0));
    util::Json sort_args = util::Json::object();
    sort_args.set("sort_index", util::Json(pid));
    s.set("args", std::move(sort_args));
    trace_events.push_back(std::move(s));
  }
  for (const auto& [pid, tid] : tracks) {
    util::Json m = util::Json::object();
    m.set("name", util::Json("thread_name"));
    m.set("ph", util::Json("M"));
    m.set("pid", util::Json(pid));
    m.set("tid", util::Json(tid));
    util::Json args = util::Json::object();
    args.set("name", util::Json(tid == 0 ? std::string("main")
                                         : "worker " + std::to_string(tid)));
    m.set("args", std::move(args));
    trace_events.push_back(std::move(m));
  }

  for (const TraceEvent* ev : order) {
    util::Json e = util::Json::object();
    e.set("name", util::Json(ev->name));
    e.set("cat", util::Json(ev->category.empty() ? std::string("misc")
                                                 : ev->category));
    switch (ev->kind) {
      case EventKind::kSpan:
        e.set("ph", util::Json("X"));
        break;
      case EventKind::kInstant:
        e.set("ph", util::Json("i"));
        e.set("s", util::Json("t"));
        break;
      case EventKind::kCounter:
        e.set("ph", util::Json("C"));
        break;
    }
    e.set("pid", util::Json(pid_for_rank(ev->rank)));
    e.set("tid", util::Json(ev->tid));
    e.set("ts", util::Json(ev->start_s * kMicros));
    if (ev->kind == EventKind::kSpan) {
      e.set("dur", util::Json(ev->dur_s * kMicros));
    }
    if (ev->kind == EventKind::kCounter) {
      util::Json args = util::Json::object();
      args.set("value", number_json(ev->value));
      e.set("args", std::move(args));
    } else {
      util::Json args = args_json(*ev);
      if (!args.members().empty()) e.set("args", std::move(args));
    }
    trace_events.push_back(std::move(e));
  }

  util::Json doc = util::Json::object();
  doc.set("traceEvents", std::move(trace_events));
  doc.set("displayTimeUnit", util::Json("ms"));
  util::Json other = util::Json::object();
  other.set("generator", util::Json(meta.generator));
  other.set("clock_domain", util::Json(meta.clock_domain));
  other.set("dropped_events", util::Json(meta.dropped_events));
  doc.set("otherData", std::move(other));
  return doc;
}

std::string chrome_trace_text(const std::vector<TraceEvent>& events,
                              const ChromeTraceMeta& meta) {
  return chrome_trace_json(events, meta).dump(1) + "\n";
}

std::vector<TraceEvent> events_from_chrome_trace(const util::Json& doc) {
  TraceShapeReport shape = validate_chrome_trace(doc);
  if (!shape.ok()) {
    throw std::runtime_error("trace: malformed document: " + shape.errors[0]);
  }
  std::vector<TraceEvent> out;
  for (const util::Json& e : doc.at("traceEvents").items()) {
    const std::string& ph = e.at("ph").as_string();
    if (ph == "M") continue;
    TraceEvent ev;
    ev.name = e.at("name").as_string();
    if (const util::Json* cat = e.find("cat")) ev.category = cat->as_string();
    ev.rank = static_cast<int>(e.at("pid").as_int()) - 1;
    ev.tid = static_cast<int>(e.at("tid").as_int());
    ev.start_s = e.at("ts").as_double() / kMicros;
    if (ph == "X") {
      ev.kind = EventKind::kSpan;
      ev.dur_s = e.at("dur").as_double() / kMicros;
    } else if (ph == "i") {
      ev.kind = EventKind::kInstant;
    } else {
      ev.kind = EventKind::kCounter;
    }
    if (const util::Json* args = e.find("args")) {
      for (const auto& [key, value] : args->members()) {
        if (value.is_number()) {
          if (ev.kind == EventKind::kCounter && key == "value") {
            ev.value = value.as_double();
          } else {
            ev.args.push_back({key, value.as_double()});
          }
        } else if (value.is_string() && key == "detail") {
          ev.detail = value.as_string();
        }
      }
    }
    out.push_back(std::move(ev));
  }
  return out;
}

std::vector<TraceEvent> read_chrome_trace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("trace: cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return events_from_chrome_trace(util::Json::parse(text.str()));
}

namespace {

void check_event(const util::Json& e, std::size_t index,
                 TraceShapeReport& report) {
  auto fail = [&](const std::string& what) {
    if (report.errors.size() < 32) {
      report.errors.push_back("traceEvents[" + std::to_string(index) +
                              "]: " + what);
    }
  };
  if (!e.is_object()) {
    fail("not an object");
    return;
  }
  const util::Json* name = e.find("name");
  if (name == nullptr || !name->is_string()) fail("missing string 'name'");
  const util::Json* ph = e.find("ph");
  if (ph == nullptr || !ph->is_string()) {
    fail("missing string 'ph'");
    return;
  }
  const std::string& phase = ph->as_string();
  if (phase != "X" && phase != "i" && phase != "C" && phase != "M") {
    fail("unknown ph '" + phase + "'");
    return;
  }
  for (const char* key : {"pid", "tid"}) {
    const util::Json* v = e.find(key);
    if (v == nullptr || !v->is_number()) {
      fail(std::string("missing numeric '") + key + "'");
    }
  }
  if (phase == "M") return;
  const util::Json* ts = e.find("ts");
  if (ts == nullptr || !ts->is_number()) {
    fail("missing numeric 'ts'");
  } else if (ts->as_double() < 0.0) {
    fail("negative ts");
  }
  if (phase == "X") {
    const util::Json* dur = e.find("dur");
    if (dur == nullptr || !dur->is_number()) {
      fail("'X' event missing numeric 'dur'");
    } else if (dur->as_double() < 0.0) {
      fail("negative dur");
    }
  }
  if (phase == "i") {
    const util::Json* s = e.find("s");
    if (s != nullptr && (!s->is_string() || (s->as_string() != "t" &&
                                             s->as_string() != "p" &&
                                             s->as_string() != "g"))) {
      fail("'i' event with invalid scope 's'");
    }
  }
  if (phase == "C") {
    const util::Json* args = e.find("args");
    bool has_numeric = false;
    if (args != nullptr && args->is_object()) {
      for (const auto& [key, value] : args->members()) {
        (void)key;
        if (value.is_number()) has_numeric = true;
      }
    }
    if (!has_numeric) fail("'C' event without a numeric args member");
  }
}

}  // namespace

TraceShapeReport validate_chrome_trace(const util::Json& doc) {
  TraceShapeReport report;
  if (!doc.is_object()) {
    report.errors.push_back("document root is not an object");
    return report;
  }
  const util::Json* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    report.errors.push_back("missing 'traceEvents' array");
    return report;
  }
  const util::Json* unit = doc.find("displayTimeUnit");
  if (unit != nullptr &&
      (!unit->is_string() ||
       (unit->as_string() != "ms" && unit->as_string() != "ns"))) {
    report.errors.push_back("'displayTimeUnit' must be \"ms\" or \"ns\"");
  }
  std::size_t index = 0;
  for (const util::Json& e : events->items()) {
    check_event(e, index++, report);
  }
  report.num_events = index;
  return report;
}

TraceShapeReport validate_chrome_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    TraceShapeReport report;
    report.errors.push_back("cannot read " + path);
    return report;
  }
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return validate_chrome_trace(util::Json::parse(text.str()));
  } catch (const std::exception& e) {
    TraceShapeReport report;
    report.errors.push_back(std::string("JSON parse error: ") + e.what());
    return report;
  }
}

}  // namespace trinity::trace
