#pragma once
// Streaming FASTA/FASTQ readers and a FASTA writer.
//
// ReadsToTranscripts in the paper deliberately streams the read file in
// bounded chunks ("max_mem_reads") instead of loading it whole; the
// FastaReader below supports exactly that access pattern (next() /
// read_chunk()) while GraphFromFasta-style consumers can slurp with
// read_all(). Format is auto-detected from the first record character
// ('>' FASTA, '@' FASTQ).
//
// Real read sets are dirty — truncated downloads, CRLF line endings, the
// occasional bit-flipped header — and with the paper's redundant-streaming
// scheme one bad record used to abort all P ranks at once. The reader
// therefore takes a ParsePolicy:
//
//  * kStrict (default): throw io::ParseError on the first malformed
//    record, carrying path, 1-based line, byte offset and a category.
//  * kTolerant: quarantine malformed records (skip them, counting each by
//    category in ParseDiagnostics) and keep going — the run completes and
//    reports exactly what it dropped.
//  * kRepair: additionally fix what is mechanically fixable (invalid
//    sequence bytes -> 'N', quality padded/truncated to the sequence
//    length); the unfixable still quarantines as in kTolerant.
//
// All policies absorb CRLF line endings, blank lines and trailing
// whitespace — formatting noise, not corruption (counted, not failed).
//
// The reader pulls the file in kBlockSize blocks and finds line ends with
// memchr; a line lies in the block as a string_view and is copied once,
// into the record that keeps it (a line spanning a block edge is carried
// over first). Sequence bytes are validated in one table-driven pass;
// only a failing line is rescanned for the located message.

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "io/error.hpp"
#include "seq/sequence.hpp"

namespace trinity::seq {

/// How the reader treats malformed records. See the header comment.
enum class ParsePolicy { kStrict, kTolerant, kRepair };

[[nodiscard]] const char* to_string(ParsePolicy policy);

/// Parses a ParsePolicy name ("strict", "tolerant", "repair"); throws
/// std::invalid_argument on anything else. Used by CLI flags.
[[nodiscard]] ParsePolicy parse_policy_from_string(std::string_view name);

/// Streaming reader over a FASTA or FASTQ file.
class FastaReader {
 public:
  /// Bytes read from the file per refill. Kept under glibc's default
  /// 128 KiB mmap threshold: a larger block is mmapped, and freeing it
  /// raises the allocator's dynamic threshold (a 256 KiB block grew the
  /// peak RSS of a 4-rank whitefly_like assembly by 7 MB). Parse speed is
  /// flat from 64 KiB to 1 MiB.
  static constexpr std::size_t kBlockSize = std::size_t{1} << 16;

  /// Opens `path`; throws io::IoError when the file cannot be opened, and
  /// next() / read_chunk() throw it when a read of the file fails.
  explicit FastaReader(const std::string& path, ParsePolicy policy = ParsePolicy::kStrict);

  /// Reads the next well-formed (or repaired) record, or std::nullopt at
  /// end of file. Under ParsePolicy::kStrict throws io::ParseError on
  /// malformed input; under kTolerant/kRepair malformed records are
  /// quarantined (see diagnostics()) and reading continues.
  std::optional<Sequence> next();

  /// Reads up to `max_records` records into a vector (the paper's
  /// max_mem_reads chunking). Returns an empty vector at end of file. Any
  /// limit is valid: the vector grows with the records actually read.
  std::vector<Sequence> read_chunk(std::size_t max_records);

  /// Per-category quarantine/repair counts accumulated so far.
  [[nodiscard]] const io::ParseDiagnostics& diagnostics() const { return diagnostics_; }

 private:
  /// Points `line` at the next raw line, tracking line number and byte
  /// offset and stripping CRLF + trailing whitespace. The view is valid
  /// until the next call. False at end of file.
  bool next_line(std::string_view& line);

  /// Reads the next block; false at end of file.
  bool refill();

  /// Keeps `line` as the lookahead header of the next record.
  void hold_header(std::string_view line);

  /// Reports a malformed record at line `line` / offset `offset`: throws
  /// under kStrict, otherwise counts a quarantined record of `category`.
  void malformed(io::ParseCategory category, std::size_t line, std::uint64_t offset,
                 const std::string& detail);

  /// Validates `size` sequence bytes at `bases` in place per the policy.
  /// True when they are acceptable (possibly repaired); false when the
  /// record must be quarantined (strict mode throws instead).
  bool check_bases(char* bases, std::size_t size, bool& repaired_record);

  std::optional<Sequence> next_fasta();
  std::optional<Sequence> next_fastq();

  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file_;
  std::string path_;
  ParsePolicy policy_;
  std::unique_ptr<char[]> block_;    // kBlockSize bytes; [pos_, end_) unread
  std::size_t pos_ = 0;
  std::size_t end_ = 0;
  std::string carry_;                // a line spanning a block edge
  std::string pending_header_;       // lookahead header line
  std::size_t pending_header_line_ = 0;
  std::uint64_t pending_header_offset_ = 0;
  bool is_fastq_ = false;
  bool format_known_ = false;
  bool quarantined_record_ = false;  // set when a record was dropped; next() loops
  io::ParseDiagnostics diagnostics_;

  std::size_t line_number_ = 0;      // 1-based number of the last line read
  std::uint64_t line_offset_ = 0;    // byte offset of that line's start
  std::uint64_t next_offset_ = 0;    // byte offset one past the last line read
};

/// Reads every record of a FASTA/FASTQ file. `diagnostics`, when non-null,
/// receives the reader's quarantine counts (useful with kTolerant/kRepair).
std::vector<Sequence> read_all(const std::string& path,
                               ParsePolicy policy = ParsePolicy::kStrict,
                               io::ParseDiagnostics* diagnostics = nullptr);

/// Writes sequences as FASTA with `wrap` columns per line (0 = no wrap),
/// streamed through io::BufferedWriter. Throws io::IoError on storage
/// failure.
void write_fasta(const std::string& path, const std::vector<Sequence>& seqs,
                 std::size_t wrap = 0);

}  // namespace trinity::seq
