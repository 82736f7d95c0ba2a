#include "obs/exposition.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string_view>

namespace trinity::obs {
namespace {

/// Shortest-exact formatting: integral values print without an exponent or
/// fraction, everything else round-trips through %.17g.
std::string format_value(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  if (std::isnan(v)) return "NaN";
  if (v == std::floor(v) && std::abs(v) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string escape_label_value(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (const char c : v) {
    if (c == '\\') out += "\\\\";
    else if (c == '"') out += "\\\"";
    else if (c == '\n') out += "\\n";
    else out += c;
  }
  return out;
}

std::string escape_help(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (const char c : v) {
    if (c == '\\') out += "\\\\";
    else if (c == '\n') out += "\\n";
    else out += c;
  }
  return out;
}

void append_labels(std::string& out, const Labels& labels,
                   const char* le = nullptr) {
  if (labels.empty() && le == nullptr) return;
  out += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    out += escape_label_value(v);
    out += '"';
  }
  if (le != nullptr) {
    if (!first) out += ',';
    out += "le=\"";
    out += le;
    out += '"';
  }
  out += '}';
}

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
  };
  auto tail = [&](char c) {
    return head(c) || std::isdigit(static_cast<unsigned char>(c));
  };
  if (!head(name.front())) return false;
  for (std::size_t i = 1; i < name.size(); ++i) {
    if (!tail(name[i])) return false;
  }
  return true;
}

bool valid_label_name(const std::string& name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
  };
  if (!head(name.front())) return false;
  for (std::size_t i = 1; i < name.size(); ++i) {
    if (!head(name[i]) && !std::isdigit(static_cast<unsigned char>(name[i]))) {
      return false;
    }
  }
  return true;
}

void append_family(std::string& out, const FamilySnapshot& family) {
  out += "# HELP " + family.name + " " + escape_help(family.help) + "\n";
  out += "# TYPE " + family.name + " ";
  out += to_string(family.kind);
  out += "\n";
  for (const SeriesSnapshot& series : family.series) {
    if (family.kind != MetricKind::kHistogram) {
      out += family.name;
      append_labels(out, series.labels);
      out += ' ';
      out += format_value(series.value);
      out += '\n';
      continue;
    }
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < series.hist.buckets.size(); ++i) {
      cumulative += series.hist.buckets[i];
      const std::string le = i < series.hist.bounds.size()
                                 ? format_value(series.hist.bounds[i])
                                 : std::string("+Inf");
      out += family.name + "_bucket";
      append_labels(out, series.labels, le.c_str());
      out += ' ';
      out += format_value(static_cast<double>(cumulative));
      out += '\n';
    }
    out += family.name + "_sum";
    append_labels(out, series.labels);
    out += ' ';
    out += format_value(series.hist.sum);
    out += '\n';
    out += family.name + "_count";
    append_labels(out, series.labels);
    out += ' ';
    out += format_value(static_cast<double>(cumulative));
    out += '\n';
  }
}

// The snapshot header travels as two unlabelled gauges that close the
// document; parse_prometheus_text() lifts them back out of the families.
constexpr std::string_view kSequenceFamily = "trinity_metrics_snapshot_sequence";
constexpr std::string_view kUptimeFamily = "trinity_metrics_uptime_seconds";

FamilySnapshot header_gauge(std::string_view name, std::string_view help,
                            double value) {
  FamilySnapshot family;
  family.name = std::string(name);
  family.help = std::string(help);
  family.kind = MetricKind::kGauge;
  family.series.push_back({{}, value, {}});
  return family;
}

/// Removes the header gauge `name` from `snap` and returns its value.
double take_header_gauge(MetricsSnapshot& snap, std::string_view name) {
  const auto it =
      std::find_if(snap.families.begin(), snap.families.end(),
                   [&](const FamilySnapshot& f) { return f.name == name; });
  if (it == snap.families.end()) {
    throw std::runtime_error("metrics.prom: missing " + std::string(name) +
                             " (truncated document?)");
  }
  if (it->kind != MetricKind::kGauge || it->series.size() != 1 ||
      !it->series.front().labels.empty()) {
    throw std::runtime_error("metrics.prom: " + std::string(name) +
                             " must be one unlabelled gauge sample");
  }
  const double value = it->series.front().value;
  snap.families.erase(it);
  return value;
}

}  // namespace

std::string to_prometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const FamilySnapshot& family : snapshot.families) {
    append_family(out, family);
  }
  append_family(out, header_gauge(kSequenceFamily,
                                  "Sequence number of this snapshot on the "
                                  "publishing registry.",
                                  static_cast<double>(snapshot.sequence)));
  append_family(out, header_gauge(kUptimeFamily,
                                  "Seconds since the publishing registry was "
                                  "created.",
                                  snapshot.uptime_s));
  return out;
}

// --- text-format parser ------------------------------------------------------

namespace {

struct ParseCursor {
  const std::string& line;
  std::size_t pos = 0;
  int lineno;

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("metrics.prom line " + std::to_string(lineno) +
                             ": " + what);
  }
  bool done() const { return pos >= line.size(); }
  char peek() const { return line[pos]; }
  void skip_spaces() {
    while (!done() && (line[pos] == ' ' || line[pos] == '\t')) ++pos;
  }
};

std::string parse_name_token(ParseCursor& c) {
  const std::size_t start = c.pos;
  while (!c.done() && (std::isalnum(static_cast<unsigned char>(c.peek())) ||
                       c.peek() == '_' || c.peek() == ':')) {
    ++c.pos;
  }
  return c.line.substr(start, c.pos - start);
}

Labels parse_label_set(ParseCursor& c) {
  Labels labels;
  if (c.done() || c.peek() != '{') return labels;
  ++c.pos;  // '{'
  while (true) {
    c.skip_spaces();
    if (!c.done() && c.peek() == '}') { ++c.pos; break; }
    const std::string key = parse_name_token(c);
    if (!valid_label_name(key)) c.fail("invalid label name '" + key + "'");
    if (c.done() || c.peek() != '=') c.fail("expected '=' after label name");
    ++c.pos;
    if (c.done() || c.peek() != '"') c.fail("expected '\"' for label value");
    ++c.pos;
    std::string value;
    while (!c.done() && c.peek() != '"') {
      char ch = c.peek();
      if (ch == '\\') {
        ++c.pos;
        if (c.done()) c.fail("dangling escape in label value");
        const char esc = c.peek();
        if (esc == 'n') ch = '\n';
        else if (esc == '\\') ch = '\\';
        else if (esc == '"') ch = '"';
        else c.fail("unknown escape in label value");
      }
      value += ch;
      ++c.pos;
    }
    if (c.done()) c.fail("unterminated label value");
    ++c.pos;  // closing quote
    labels.emplace_back(key, std::move(value));
    c.skip_spaces();
    if (!c.done() && c.peek() == ',') { ++c.pos; continue; }
    if (!c.done() && c.peek() == '}') { ++c.pos; break; }
    c.fail("expected ',' or '}' in label set");
  }
  return labels;
}

double parse_sample_value(ParseCursor& c) {
  c.skip_spaces();
  if (c.done()) c.fail("missing sample value");
  const std::string rest = c.line.substr(c.pos);
  if (rest == "+Inf") return std::numeric_limits<double>::infinity();
  if (rest == "-Inf") return -std::numeric_limits<double>::infinity();
  char* end = nullptr;
  const double v = std::strtod(rest.c_str(), &end);
  if (end == rest.c_str()) c.fail("malformed sample value '" + rest + "'");
  for (const char* p = end; *p != '\0'; ++p) {
    if (*p != ' ' && *p != '\t') c.fail("trailing junk after sample value");
  }
  return v;
}

/// Histogram series under assembly: cumulative buckets in emission order.
struct PendingHistogram {
  Labels labels;
  std::vector<double> bounds;            // +Inf excluded
  std::vector<std::uint64_t> cumulative;  // one entry per bucket incl. +Inf
  bool saw_inf = false;
  double sum = 0.0;
  bool saw_sum = false;
  std::uint64_t count = 0;
  bool saw_count = false;
  int first_line = 0;
};

std::string labels_key(const Labels& labels) {
  std::string key;
  for (const auto& [k, v] : labels) {
    key += k;
    key += '\x1f';
    key += v;
    key += '\x1e';
  }
  return key;
}

}  // namespace

MetricsSnapshot parse_prometheus_text(const std::string& text) {
  MetricsSnapshot snap;
  std::map<std::string, std::size_t> family_index;   // name -> families idx
  std::map<std::string, std::string> pending_help;   // HELP seen, TYPE not yet
  // (family name, labels key) -> pending histogram
  std::map<std::pair<std::string, std::string>, PendingHistogram> histograms;

  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    ParseCursor c{line, 0, lineno};
    if (line[0] == '#') {
      std::istringstream meta(line);
      std::string hash, keyword, name;
      meta >> hash >> keyword >> name;
      if (keyword == "HELP") {
        if (!valid_metric_name(name)) c.fail("invalid metric name in HELP");
        std::string help;
        std::getline(meta, help);
        if (!help.empty() && help.front() == ' ') help.erase(0, 1);
        pending_help[name] = help;
      } else if (keyword == "TYPE") {
        if (!valid_metric_name(name)) c.fail("invalid metric name in TYPE");
        const auto help_it = pending_help.find(name);
        if (help_it == pending_help.end()) {
          c.fail("TYPE for '" + name + "' without a preceding HELP");
        }
        if (family_index.count(name) != 0) {
          c.fail("duplicate TYPE for '" + name + "'");
        }
        std::string type;
        meta >> type;
        FamilySnapshot family;
        family.name = name;
        family.help = help_it->second;
        if (type == "counter") family.kind = MetricKind::kCounter;
        else if (type == "gauge") family.kind = MetricKind::kGauge;
        else if (type == "histogram") family.kind = MetricKind::kHistogram;
        else c.fail("unknown TYPE '" + type + "'");
        family_index[name] = snap.families.size();
        snap.families.push_back(std::move(family));
      }
      // Other comment lines are ignored, per the format.
      continue;
    }

    const std::string sample_name = parse_name_token(c);
    if (!valid_metric_name(sample_name)) {
      c.fail("invalid metric name '" + sample_name + "'");
    }
    Labels labels = parse_label_set(c);
    const double value = parse_sample_value(c);

    // Resolve the family: exact name, or a histogram suffix.
    std::string base = sample_name;
    enum { kPlain, kBucket, kSum, kCount } role = kPlain;
    auto it = family_index.find(base);
    if (it == family_index.end()) {
      for (const auto& [suffix, r] :
           {std::pair<const char*, int>{"_bucket", kBucket},
            {"_sum", kSum},
            {"_count", kCount}}) {
        const std::size_t len = std::string(suffix).size();
        if (base.size() > len &&
            base.compare(base.size() - len, len, suffix) == 0) {
          const std::string candidate = base.substr(0, base.size() - len);
          const auto cand_it = family_index.find(candidate);
          if (cand_it != family_index.end() &&
              snap.families[cand_it->second].kind == MetricKind::kHistogram) {
            base = candidate;
            role = static_cast<decltype(role)>(r);
            it = cand_it;
            break;
          }
        }
      }
    }
    if (it == family_index.end()) {
      c.fail("sample '" + sample_name + "' has no declared HELP/TYPE family");
    }
    FamilySnapshot& family = snap.families[it->second];

    if (family.kind != MetricKind::kHistogram) {
      if (role != kPlain) c.fail("suffixed sample for non-histogram family");
      SeriesSnapshot series;
      series.labels = std::move(labels);
      series.value = value;
      family.series.push_back(std::move(series));
      continue;
    }

    if (role == kPlain) {
      c.fail("bare sample for histogram family '" + base + "'");
    }
    // Peel off the `le` label for buckets.
    std::string le;
    if (role == kBucket) {
      bool found = false;
      for (auto l = labels.begin(); l != labels.end(); ++l) {
        if (l->first == "le") {
          le = l->second;
          labels.erase(l);
          found = true;
          break;
        }
      }
      if (!found) c.fail("histogram bucket without an le label");
    }
    PendingHistogram& pending = histograms[{base, labels_key(labels)}];
    if (pending.first_line == 0) {
      pending.first_line = lineno;
      pending.labels = labels;
    }
    switch (role) {
      case kBucket: {
        if (pending.saw_inf) c.fail("bucket after the +Inf bucket");
        if (value < 0 || value != std::floor(value)) {
          c.fail("bucket count must be a non-negative integer");
        }
        const auto cumulative = static_cast<std::uint64_t>(value);
        if (!pending.cumulative.empty() &&
            cumulative < pending.cumulative.back()) {
          c.fail("histogram buckets are not cumulative");
        }
        if (le == "+Inf") {
          pending.saw_inf = true;
        } else {
          char* end = nullptr;
          const double bound = std::strtod(le.c_str(), &end);
          if (end == le.c_str() || *end != '\0') {
            c.fail("malformed le bound '" + le + "'");
          }
          if (!pending.bounds.empty() && bound <= pending.bounds.back()) {
            c.fail("histogram le bounds are not ascending");
          }
          pending.bounds.push_back(bound);
        }
        pending.cumulative.push_back(cumulative);
        break;
      }
      case kSum:
        pending.sum = value;
        pending.saw_sum = true;
        break;
      case kCount:
        if (value < 0 || value != std::floor(value)) {
          c.fail("histogram count must be a non-negative integer");
        }
        pending.count = static_cast<std::uint64_t>(value);
        pending.saw_count = true;
        break;
      case kPlain:
        break;
    }
  }

  // Seal the assembled histograms.
  for (auto& [key, pending] : histograms) {
    const std::string& name = key.first;
    auto fail = [&](const std::string& what) {
      throw std::runtime_error("metrics.prom line " +
                               std::to_string(pending.first_line) +
                               ": histogram " + name + " " + what);
    };
    if (!pending.saw_inf) fail("is missing its +Inf bucket");
    if (!pending.saw_sum) fail("is missing _sum");
    if (!pending.saw_count) fail("is missing _count");
    if (pending.count != pending.cumulative.back()) {
      fail("_count disagrees with the +Inf bucket");
    }
    SeriesSnapshot series;
    series.labels = pending.labels;
    series.hist.bounds = pending.bounds;
    series.hist.sum = pending.sum;
    series.hist.buckets.resize(pending.cumulative.size());
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < pending.cumulative.size(); ++i) {
      series.hist.buckets[i] = pending.cumulative[i] - prev;
      prev = pending.cumulative[i];
    }
    snap.families[family_index.at(name)].series.push_back(std::move(series));
  }

  // The format ends every line with '\n'; a last line without one is a
  // document cut short, even when its prefix happens to parse.
  if (!text.empty() && text.back() != '\n') {
    throw std::runtime_error("metrics.prom line " + std::to_string(lineno) +
                             ": no newline at end of document (truncated?)");
  }
  const double sequence = take_header_gauge(snap, kSequenceFamily);
  if (!(sequence >= 0.0 && sequence < 0x1p64) ||
      sequence != std::floor(sequence)) {
    throw std::runtime_error("metrics.prom: " + std::string(kSequenceFamily) +
                             " must be a non-negative integer");
  }
  snap.sequence = static_cast<std::uint64_t>(sequence);
  snap.uptime_s = take_header_gauge(snap, kUptimeFamily);
  return snap;
}

}  // namespace trinity::obs
