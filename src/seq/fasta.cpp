#include "seq/fasta.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "io/io_file.hpp"
#include "seq/sequence.hpp"

namespace trinity::seq {

namespace {

// Records read_chunk reserves up front; a larger limit grows the vector as
// records arrive, so no limit can fail before the first record is read.
constexpr std::size_t kChunkReserve = std::size_t{1} << 14;

// 1 for the bytes std::isalpha accepts in the "C" locale: valid sequence data.
constexpr std::array<std::uint8_t, 256> kSequenceByte = [] {
  std::array<std::uint8_t, 256> table{};
  for (int c = 'A'; c <= 'Z'; ++c) table[static_cast<std::size_t>(c)] = 1;
  for (int c = 'a'; c <= 'z'; ++c) table[static_cast<std::size_t>(c)] = 1;
  return table;
}();

bool is_sequence_byte(char c) { return kSequenceByte[static_cast<unsigned char>(c)] != 0; }

// Returns the id token of a header line (text after '>'/'@', up to the
// first whitespace).
std::string header_name(std::string_view line) {
  const std::string_view body = line.substr(1);
  return std::string(body.substr(0, body.find_first_of(" \t")));
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
    : file_(std::fopen(path.c_str(), "rb"), &std::fclose),
      path_(path),
      policy_(policy),
      block_(new char[kBlockSize]) {
  if (!file_) {
    throw io::IoError(io::IoErrorKind::kPermanent, "open", path, errno, "cannot open");
  }
}

bool FastaReader::refill() {
  pos_ = 0;
  end_ = std::fread(block_.get(), 1, kBlockSize, file_.get());
  if (end_ == 0 && std::ferror(file_.get())) {
    const int error = errno;
    throw io::IoError(io::classify_errno(error), "read", path_, error, "read failed");
  }
  return end_ > 0;
}

bool FastaReader::next_line(std::string_view& line) {
  // A line lies in the block unless it crosses the block's end; then its
  // head is carried over and the refilled block supplies the rest.
  bool carried = false;
  std::size_t consumed = 0;
  for (;;) {
    if (pos_ == end_ && !refill()) {
      if (!carried) return false;
      line = carry_;  // the last line has no '\n'
      consumed = carry_.size();
      break;
    }
    const char* begin = block_.get() + pos_;
    const std::size_t avail = end_ - pos_;
    const auto* newline = static_cast<const char*>(std::memchr(begin, '\n', avail));
    if (newline == nullptr) {
      if (!carried) carry_.clear();
      carry_.append(begin, avail);
      carried = true;
      pos_ = end_;
      continue;
    }
    const auto length = static_cast<std::size_t>(newline - begin);
    if (carried) {
      carry_.append(begin, length);
      line = carry_;
    } else {
      line = std::string_view(begin, length);
    }
    pos_ += length + 1;
    consumed = line.size() + 1;
    break;
  }
  ++line_number_;
  line_offset_ = next_offset_;
  next_offset_ += consumed;
  if (!line.empty() && line.back() == '\r') {
    line.remove_suffix(1);
    ++diagnostics_.crlf_lines;
  }
  // Trailing whitespace is formatting noise, never sequence data.
  while (!line.empty() && (line.back() == ' ' || line.back() == '\t')) line.remove_suffix(1);
  return true;
}

void FastaReader::hold_header(std::string_view line) {
  pending_header_.assign(line);
  pending_header_line_ = line_number_;
  pending_header_offset_ = line_offset_;
}

void FastaReader::malformed(io::ParseCategory category, std::size_t line,
                            std::uint64_t offset, const std::string& detail) {
  if (policy_ == ParsePolicy::kStrict) {
    throw io::ParseError(category, path_, line, offset, detail);
  }
  ++diagnostics_.of(category);
}

bool FastaReader::check_bases(char* bases, std::size_t size, bool& repaired_record) {
  std::uint8_t valid = 1;
  for (std::size_t i = 0; i < size; ++i) {
    valid &= kSequenceByte[static_cast<unsigned char>(bases[i])];
  }
  if (valid != 0) return true;
  if (policy_ == ParsePolicy::kRepair) {
    std::replace_if(bases, bases + size, [](char b) { return !is_sequence_byte(b); }, 'N');
    repaired_record = true;
    return true;
  }
  const char bad = *std::find_if(bases, bases + size, [](char b) { return !is_sequence_byte(b); });
  malformed(io::ParseCategory::kInvalidCharacter, line_number_, line_offset_,
            "invalid character '" + printable(bad) + "' in sequence data");
  return false;  // tolerant: caller quarantines (strict threw above)
}

std::optional<Sequence> FastaReader::next() {
  for (;;) {
    quarantined_record_ = false;
    if (!format_known_) {
      // Scan for the first header line to decide the format. Anything
      // else before it is one destroyed leading record.
      std::string_view line;
      bool complained = false;
      while (next_line(line)) {
        if (line.empty()) {
          ++diagnostics_.blank_lines;
          continue;
        }
        if (line[0] == '>' || line[0] == '@') {
          is_fastq_ = line[0] == '@';
          hold_header(line);
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
  std::string_view line;
  while (next_line(line)) {
    if (line.empty()) {
      ++diagnostics_.blank_lines;
      continue;
    }
    if (line[0] == '>') {
      hold_header(line);
      break;
    }
    // A record already marked bad still consumes its remaining lines so
    // the reader stays synchronized (counted once, not per line).
    if (bad) continue;
    const std::size_t at = rec.bases.size();
    rec.bases.append(line);
    if (!check_bases(rec.bases.data() + at, line.size(), repaired)) bad = true;
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

  // Points `out` at the next non-blank line of the 4-line record.
  const auto read_part = [this](std::string_view& out) {
    while (next_line(out)) {
      if (!out.empty()) return true;
      ++diagnostics_.blank_lines;
    }
    return false;
  };

  std::string_view line;
  if (!read_part(line)) {
    malformed(io::ParseCategory::kTruncatedRecord, rec_line, rec_offset,
              "truncated FASTQ record '" + rec.name + "' (EOF before sequence line)");
    quarantined_record_ = true;
    return std::nullopt;
  }
  rec.bases.assign(line);
  if (!read_part(line)) {
    malformed(io::ParseCategory::kTruncatedRecord, rec_line, rec_offset,
              "truncated FASTQ record '" + rec.name + "' (EOF before '+' separator)");
    quarantined_record_ = true;
    return std::nullopt;
  }
  if (line[0] != '+') {
    malformed(io::ParseCategory::kBadSeparator, line_number_, line_offset_,
              "malformed FASTQ separator for '" + rec.name + "': expected '+', got '" +
                  printable(line[0]) + "'");
    // Resynchronize at the next header so one bad record costs one record.
    while (next_line(line)) {
      if (line.empty()) {
        ++diagnostics_.blank_lines;
        continue;
      }
      if (line[0] == '@') {
        hold_header(line);
        break;
      }
    }
    quarantined_record_ = true;
    return std::nullopt;
  }
  if (!read_part(line)) {
    malformed(io::ParseCategory::kTruncatedRecord, rec_line, rec_offset,
              "truncated FASTQ record '" + rec.name + "' (EOF before quality line)");
    quarantined_record_ = true;
    return std::nullopt;
  }
  rec.quality.assign(line);

  bool repaired = false;
  bool bad = !check_bases(rec.bases.data(), rec.bases.size(), repaired);
  if (!bad && rec.quality.size() != rec.bases.size()) {
    if (policy_ == ParsePolicy::kRepair) {
      rec.quality.resize(rec.bases.size(), 'F');  // pad/trim to the sequence length
      repaired = true;
    } else {
      malformed(io::ParseCategory::kQualityLengthMismatch, line_number_, line_offset_,
                "FASTQ quality length " + std::to_string(rec.quality.size()) +
                    " != sequence length " + std::to_string(rec.bases.size()) + " for '" +
                    rec.name + "'");
      bad = true;
    }
  }

  // Look ahead for the next record header; garbage between records is one
  // destroyed record, skipped after being counted.
  bool complained = false;
  while (next_line(line)) {
    if (line.empty()) {
      ++diagnostics_.blank_lines;
      continue;
    }
    if (line[0] == '@') {
      hold_header(line);
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
  out.reserve(std::min(max_records, kChunkReserve));
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
