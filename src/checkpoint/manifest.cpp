#include "checkpoint/manifest.hpp"

#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "io/io_file.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"

namespace trinity::checkpoint {

namespace {

// Hashes and fingerprints travel as 16-digit hex strings: a JSON number is
// a double and cannot carry 64 bits.
std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t parse_hex64(const util::Json& value) {
  const std::string& s = value.as_string();
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v, 16);
  if (s.empty() || s.size() > 16 || ec != std::errc() || end != s.data() + s.size()) {
    throw std::runtime_error("manifest line: bad hex '" + s + "'");
  }
  return v;
}

util::Json artifacts_to_json(const std::vector<ArtifactRecord>& artifacts) {
  util::Json out = util::Json::array();
  for (const auto& a : artifacts) {
    util::Json artifact = util::Json::object();
    artifact.set("path", a.path);
    artifact.set("bytes", a.bytes);
    artifact.set("hash", hex64(a.hash));
    out.push_back(std::move(artifact));
  }
  return out;
}

std::vector<ArtifactRecord> artifacts_from_json(const util::Json& value) {
  std::vector<ArtifactRecord> out;
  for (const auto& item : value.items()) {
    ArtifactRecord a;
    for (const auto& [key, field] : item.members()) {
      if (key == "path") {
        a.path = field.as_string();
      } else if (key == "bytes") {
        const std::int64_t bytes = field.as_int();
        if (bytes < 0) throw std::runtime_error("manifest line: negative size");
        a.bytes = static_cast<std::uint64_t>(bytes);
      } else if (key == "hash") {
        a.hash = parse_hex64(field);
      } else {
        throw std::runtime_error("manifest line: unknown artifact key " + key);
      }
    }
    out.push_back(std::move(a));
  }
  return out;
}

}  // namespace

std::string to_json_line(const StageRecord& record) {
  util::Json line = util::Json::object();
  line.set("stage", record.stage);
  line.set("fingerprint", hex64(record.fingerprint));
  line.set("complete", record.complete);
  line.set("attempt", record.attempt);
  line.set("wall_seconds", record.wall_seconds);
  line.set("checkpoint_seconds", record.checkpoint_seconds);
  if (!record.trace.empty()) line.set("trace", record.trace);
  line.set("inputs", artifacts_to_json(record.inputs));
  line.set("outputs", artifacts_to_json(record.outputs));
  return line.dump();
}

std::optional<StageRecord> parse_json_line(const std::string& line) {
  try {
    const util::Json doc = util::Json::parse(line);
    if (!doc.find("stage") || !doc.find("fingerprint")) return std::nullopt;
    StageRecord record;
    for (const auto& [key, value] : doc.members()) {
      if (key == "stage") {
        record.stage = value.as_string();
      } else if (key == "fingerprint") {
        record.fingerprint = parse_hex64(value);
      } else if (key == "complete") {
        record.complete = value.as_bool();
      } else if (key == "attempt") {
        record.attempt = static_cast<int>(value.as_int());
      } else if (key == "wall_seconds") {
        record.wall_seconds = value.as_double();
      } else if (key == "checkpoint_seconds") {
        record.checkpoint_seconds = value.as_double();
      } else if (key == "trace") {
        record.trace = value.as_string();
      } else if (key == "inputs") {
        record.inputs = artifacts_from_json(value);
      } else if (key == "outputs") {
        record.outputs = artifacts_from_json(value);
      } else {
        return std::nullopt;  // unknown key
      }
    }
    return record;
  } catch (const std::exception&) {
    return std::nullopt;  // malformed JSON, wrong value kind or bad hex
  }
}

RunManifest RunManifest::load(const std::string& path) {
  RunManifest manifest(path);
  std::ifstream in(path);
  if (!in) return manifest;  // no manifest yet: nothing to resume
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (auto record = parse_json_line(line)) {
      manifest.upsert(std::move(*record));
    } else {
      ++manifest.dropped_lines_;
    }
  }
  return manifest;
}

const StageRecord* RunManifest::find(const std::string& stage) const {
  for (const auto& r : records_) {
    if (r.stage == stage) return &r;
  }
  return nullptr;
}

void RunManifest::upsert(StageRecord record) {
  for (auto& r : records_) {
    if (r.stage == record.stage) {
      r = std::move(record);
      return;
    }
  }
  records_.push_back(std::move(record));
}

void RunManifest::commit() const {
  if (path_.empty()) throw std::runtime_error("RunManifest::commit: no path set");
  std::string body;
  for (const auto& r : records_) {
    body += to_json_line(r);
    body += '\n';
  }
  // tmp + fsync + rename through the fault-injectable io layer; failures
  // surface as io::IoError with transient/permanent classification.
  io::write_file_atomic(path_, body);
}

const char* to_string(StageCheck check) {
  switch (check) {
    case StageCheck::kValid: return "valid";
    case StageCheck::kNoRecord: return "no record";
    case StageCheck::kIncomplete: return "incomplete";
    case StageCheck::kFingerprintMismatch: return "options fingerprint mismatch";
    case StageCheck::kArtifactMissing: return "artifact missing";
    case StageCheck::kArtifactModified: return "artifact modified";
  }
  return "unknown";
}

ArtifactRecord capture_artifact(const std::string& work_dir, const std::string& rel_path) {
  const std::string full = work_dir + "/" + rel_path;
  ArtifactRecord a;
  a.path = rel_path;
  a.bytes = static_cast<std::uint64_t>(std::filesystem::file_size(full));
  a.hash = util::hash_file(full);
  return a;
}

StageCheck validate_stage(const StageRecord& record, const std::string& work_dir,
                          std::uint64_t fingerprint, const ArtifactTable& hashed) {
  if (!record.complete) return StageCheck::kIncomplete;
  if (record.fingerprint != fingerprint) return StageCheck::kFingerprintMismatch;
  for (const auto& a : record.inputs) {
    const auto it = hashed.find(a.path);
    if (it == hashed.end()) return StageCheck::kArtifactMissing;
    if (it->second != a) return StageCheck::kArtifactModified;
  }
  for (const auto& a : record.outputs) {
    const std::string full = work_dir + "/" + a.path;
    std::error_code ec;
    const auto size = std::filesystem::file_size(full, ec);
    if (ec) return StageCheck::kArtifactMissing;
    if (size != a.bytes) return StageCheck::kArtifactModified;
    try {
      if (util::hash_file(full) != a.hash) return StageCheck::kArtifactModified;
    } catch (const std::exception&) {
      return StageCheck::kArtifactMissing;
    }
  }
  return StageCheck::kValid;
}

}  // namespace trinity::checkpoint
