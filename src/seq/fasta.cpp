#include "seq/fasta.hpp"

#include <cctype>
#include <cstdio>
#include <stdexcept>

#include "io/io_file.hpp"
#include "seq/sequence.hpp"

namespace trinity::seq {

namespace {

// Returns the id token of a header line (text after '>'/'@', up to the
// first whitespace).
std::string header_name(const std::string& line) {
  std::string body = line.substr(1);
  const auto ws = body.find_first_of(" \t");
  if (ws != std::string::npos) body.resize(ws);
  return body;
}

// Printable rendering of a (possibly binary) byte for error messages.
std::string printable(char c) {
  if (std::isprint(static_cast<unsigned char>(c))) return std::string(1, c);
  char buf[8];
  std::snprintf(buf, sizeof(buf), "\\x%02x", static_cast<unsigned char>(c));
  return buf;
}

}  // namespace

const char* to_string(ParsePolicy policy) {
  switch (policy) {
    case ParsePolicy::kStrict: return "strict";
    case ParsePolicy::kTolerant: return "tolerant";
    case ParsePolicy::kRepair: return "repair";
  }
  return "unknown";
}

ParsePolicy parse_policy_from_string(std::string_view name) {
  for (const ParsePolicy p :
       {ParsePolicy::kStrict, ParsePolicy::kTolerant, ParsePolicy::kRepair}) {
    if (name == to_string(p)) return p;
  }
  throw std::invalid_argument("unknown parse policy: " + std::string(name));
}

FastaReader::FastaReader(const std::string& path, ParsePolicy policy)
    : in_(path), path_(path), policy_(policy) {
  if (!in_) {
    throw io::IoError(io::IoErrorKind::kPermanent, "open", path, errno, "cannot open");
  }
}

bool FastaReader::next_line(std::string& line) {
  if (!std::getline(in_, line)) return false;
  ++line_number_;
  line_offset_ = next_offset_;
  next_offset_ += line.size() + (in_.eof() ? 0 : 1);
  if (!line.empty() && line.back() == '\r') {
    line.pop_back();
    ++diagnostics_.crlf_lines;
  }
  // Trailing whitespace is formatting noise, never sequence data.
  const auto last = line.find_last_not_of(" \t");
  line.resize(last == std::string::npos ? 0 : last + 1);
  return true;
}

void FastaReader::malformed(io::ParseCategory category, std::size_t line,
                            std::uint64_t offset, const std::string& detail) {
  if (policy_ == ParsePolicy::kStrict) {
    throw io::ParseError(category, path_, line, offset, detail);
  }
  ++diagnostics_.of(category);
}

bool FastaReader::check_bases(std::string& bases, bool& repaired_record) {
  for (const char c : bases) {
    if (std::isalpha(static_cast<unsigned char>(c))) continue;
    if (policy_ == ParsePolicy::kRepair) {
      for (char& b : bases) {
        if (!std::isalpha(static_cast<unsigned char>(b))) b = 'N';
      }
      repaired_record = true;
      return true;
    }
    malformed(io::ParseCategory::kInvalidCharacter, line_number_, line_offset_,
              "invalid character '" + printable(c) + "' in sequence data");
    return false;  // tolerant: caller quarantines (strict threw above)
  }
  return true;
}

std::optional<Sequence> FastaReader::next() {
  for (;;) {
    quarantined_record_ = false;
    if (!format_known_) {
      // Scan for the first header line to decide the format. Anything
      // else before it is one destroyed leading record.
      std::string line;
      bool complained = false;
      while (next_line(line)) {
        if (line.empty()) {
          ++diagnostics_.blank_lines;
          continue;
        }
        if (line[0] == '>' || line[0] == '@') {
          is_fastq_ = line[0] == '@';
          pending_header_ = line;
          pending_header_line_ = line_number_;
          pending_header_offset_ = line_offset_;
          format_known_ = true;
          break;
        }
        if (!complained) {
          malformed(io::ParseCategory::kMissingHeader, line_number_, line_offset_,
                    "'" + path_ + "' does not start with a FASTA/FASTQ header");
          complained = true;
        }
      }
      if (!format_known_) return std::nullopt;  // empty (or all-garbage) file
    }
    auto rec = is_fastq_ ? next_fastq() : next_fasta();
    if (rec) {
      ++diagnostics_.records_ok;
      return rec;
    }
    if (!quarantined_record_) return std::nullopt;  // end of file
    // A record was quarantined under kTolerant/kRepair: keep reading.
  }
}

std::optional<Sequence> FastaReader::next_fasta() {
  if (pending_header_.empty()) return std::nullopt;
  Sequence rec;
  rec.name = header_name(pending_header_);
  pending_header_.clear();
  bool repaired = false;
  bool bad = false;
  std::string line;
  while (next_line(line)) {
    if (line.empty()) {
      ++diagnostics_.blank_lines;
      continue;
    }
    if (line[0] == '>') {
      pending_header_ = line;
      pending_header_line_ = line_number_;
      pending_header_offset_ = line_offset_;
      break;
    }
    // A record already marked bad still consumes its remaining lines so
    // the reader stays synchronized (counted once, not per line).
    if (!bad && !check_bases(line, repaired)) bad = true;
    if (!bad) rec.bases += line;
  }
  if (bad) {
    quarantined_record_ = true;
    return std::nullopt;
  }
  if (repaired) ++diagnostics_.records_repaired;
  return rec;
}

std::optional<Sequence> FastaReader::next_fastq() {
  if (pending_header_.empty()) return std::nullopt;
  Sequence rec;
  rec.name = header_name(pending_header_);
  const std::size_t rec_line = pending_header_line_;
  const std::uint64_t rec_offset = pending_header_offset_;
  pending_header_.clear();

  // Reads the next non-blank line of the 4-line record.
  const auto read_part = [this](std::string& out) {
    while (next_line(out)) {
      if (!out.empty()) return true;
      ++diagnostics_.blank_lines;
    }
    return false;
  };

  std::string seq_line;
  std::string plus_line;
  std::string qual_line;
  if (!read_part(seq_line) ) {
    malformed(io::ParseCategory::kTruncatedRecord, rec_line, rec_offset,
              "truncated FASTQ record '" + rec.name + "' (EOF before sequence line)");
    quarantined_record_ = true;
    return std::nullopt;
  }
  if (!read_part(plus_line)) {
    malformed(io::ParseCategory::kTruncatedRecord, rec_line, rec_offset,
              "truncated FASTQ record '" + rec.name + "' (EOF before '+' separator)");
    quarantined_record_ = true;
    return std::nullopt;
  }
  if (plus_line[0] != '+') {
    malformed(io::ParseCategory::kBadSeparator, line_number_, line_offset_,
              "malformed FASTQ separator for '" + rec.name + "': expected '+', got '" +
                  printable(plus_line[0]) + "'");
    // Resynchronize at the next header so one bad record costs one record.
    std::string line;
    while (next_line(line)) {
      if (line.empty()) {
        ++diagnostics_.blank_lines;
        continue;
      }
      if (line[0] == '@') {
        pending_header_ = line;
        pending_header_line_ = line_number_;
        pending_header_offset_ = line_offset_;
        break;
      }
    }
    quarantined_record_ = true;
    return std::nullopt;
  }
  if (!read_part(qual_line)) {
    malformed(io::ParseCategory::kTruncatedRecord, rec_line, rec_offset,
              "truncated FASTQ record '" + rec.name + "' (EOF before quality line)");
    quarantined_record_ = true;
    return std::nullopt;
  }

  bool repaired = false;
  bool bad = false;
  if (!check_bases(seq_line, repaired)) bad = true;
  if (!bad && qual_line.size() != seq_line.size()) {
    if (policy_ == ParsePolicy::kRepair) {
      qual_line.resize(seq_line.size(), 'F');  // pad/trim to the sequence length
      repaired = true;
    } else {
      malformed(io::ParseCategory::kQualityLengthMismatch, line_number_, line_offset_,
                "FASTQ quality length " + std::to_string(qual_line.size()) +
                    " != sequence length " + std::to_string(seq_line.size()) + " for '" +
                    rec.name + "'");
      bad = true;
    }
  }
  rec.bases = seq_line;
  rec.quality = qual_line;

  // Look ahead for the next record header; garbage between records is one
  // destroyed record, skipped after being counted.
  std::string line;
  bool complained = false;
  while (next_line(line)) {
    if (line.empty()) {
      ++diagnostics_.blank_lines;
      continue;
    }
    if (line[0] == '@') {
      pending_header_ = line;
      pending_header_line_ = line_number_;
      pending_header_offset_ = line_offset_;
      break;
    }
    if (!complained) {
      malformed(io::ParseCategory::kMissingHeader, line_number_, line_offset_,
                "expected FASTQ header, got '" + printable(line[0]) + "'");
      complained = true;
    }
  }

  if (bad) {
    quarantined_record_ = true;
    return std::nullopt;
  }
  if (repaired) ++diagnostics_.records_repaired;
  return rec;
}

std::vector<Sequence> FastaReader::read_chunk(std::size_t max_records) {
  std::vector<Sequence> out;
  out.reserve(max_records);
  while (out.size() < max_records) {
    auto rec = next();
    if (!rec) break;
    out.push_back(std::move(*rec));
  }
  return out;
}

std::vector<Sequence> read_all(const std::string& path, ParsePolicy policy,
                               io::ParseDiagnostics* diagnostics) {
  FastaReader reader(path, policy);
  std::vector<Sequence> out;
  while (auto rec = reader.next()) out.push_back(std::move(*rec));
  if (diagnostics) *diagnostics = reader.diagnostics();
  return out;
}

void write_fasta(const std::string& path, const std::vector<Sequence>& seqs, std::size_t wrap) {
  io::BufferedWriter out(path);
  for (const auto& s : seqs) {
    out << '>' << s.name << '\n';
    if (wrap == 0 || s.bases.empty()) {
      out << s.bases << '\n';
      continue;
    }
    const std::string_view bases = s.bases;
    for (std::size_t i = 0; i < bases.size(); i += wrap) out << bases.substr(i, wrap) << '\n';
  }
  out.close();
}

std::size_t total_bases(const std::vector<Sequence>& seqs) {
  std::size_t total = 0;
  for (const auto& s : seqs) total += s.bases.size();
  return total;
}

}  // namespace trinity::seq
