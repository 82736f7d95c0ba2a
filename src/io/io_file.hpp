#pragma once
// IoFile / IoFs: the storage shim every durable writer goes through.
//
// Production call sites (checkpoint manifest commits, kmer partition
// spills, the stage-file writers) open, write, fsync and rename through
// this layer instead of raw ofstream/syscalls.
// That buys two things at once:
//
//  1. Real failures become typed: every syscall error surfaces as an
//     io::IoError carrying op, path, errno and a transient/permanent
//     classification the retry driver can act on — instead of a silent
//     short write or a bare runtime_error.
//
//  2. Injected failures become possible: an IoFaultPlan installed via
//     ScopedFaultInjection makes the Nth matching operation fail with
//     ENOSPC/EIO, land only half its bytes (short write), or tear the
//     destination at rename — without touching the call sites.
//
// The write path is deliberately explicit about durability:
// write_file_atomic is the commit primitive (tmp + fsync + rename) whose
// guarantee is "either the old content or the new content, never a mix" —
// except under an injected torn rename, which is exactly the failure the
// manifest loader's corrupt-line tolerance exists to absorb.

#include <charconv>
#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <type_traits>

#include "io/error.hpp"
#include "io/fault_plan.hpp"

namespace trinity::io {

/// Installs `plan` as the process-global storage fault plan (arming it if
/// needed). Passing a disabled plan is equivalent to clear_fault_plan().
void set_fault_plan(IoFaultPlan plan);

/// Removes any installed fault plan.
void clear_fault_plan();

/// Copy of the currently installed plan (disabled when none).
[[nodiscard]] IoFaultPlan current_fault_plan();

/// RAII installation for tests, the fault-matrix gate, and the pipeline:
/// installs an enabled plan on construction (a disabled plan is a no-op,
/// leaving any caller-installed plan in place) and restores the previously
/// installed plan on destruction. The restored copy shares the original's
/// fire budget, so nesting composes.
class ScopedFaultInjection {
 public:
  explicit ScopedFaultInjection(IoFaultPlan plan) : previous_(current_fault_plan()) {
    if (plan.enabled()) set_fault_plan(std::move(plan));
  }
  ~ScopedFaultInjection() { set_fault_plan(std::move(previous_)); }
  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;

 private:
  IoFaultPlan previous_;
};

/// A writable file descriptor whose operations report typed errors and
/// honor the installed fault plan. Move-only RAII: the destructor closes
/// silently; call close() to observe close-time errors.
class IoFile {
 public:
  /// O_CREAT|O_WRONLY|O_TRUNC with mode 0644.
  [[nodiscard]] static IoFile create(const std::string& path);

  IoFile(IoFile&& other) noexcept;
  IoFile& operator=(IoFile&& other) noexcept;
  IoFile(const IoFile&) = delete;
  IoFile& operator=(const IoFile&) = delete;
  ~IoFile();

  /// Appends all of `data` at the current offset, looping over partial
  /// syscall writes. Throws IoError on failure (injected short writes
  /// leave the partial prefix on disk, then throw transient).
  void write_all(std::string_view data);

  void fsync();

  /// Closes the descriptor, reporting errors; idempotent.
  void close();

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] bool is_open() const { return fd_ >= 0; }

 private:
  IoFile(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}

  int fd_ = -1;
  std::string path_;
};

/// Text output to a fresh file through IoFile in bounded pieces: `<<`
/// appends to a buffer that is handed to write_all whenever it reaches
/// kCapacity, so a large artifact never sits in memory whole and every
/// flush is an io-layer write (typed errors, fault injection). close()
/// flushes the tail and must be called; a writer destroyed while an
/// exception unwinds drops its unflushed bytes.
class BufferedWriter {
 public:
  static constexpr std::size_t kCapacity = std::size_t{1} << 20;

  explicit BufferedWriter(const std::string& path);

  BufferedWriter& operator<<(std::string_view text) {
    buffer_.append(text);
    if (buffer_.size() >= kCapacity) flush();
    return *this;
  }
  BufferedWriter& operator<<(char c) { return *this << std::string_view(&c, 1); }
  template <typename Int, std::enable_if_t<std::is_integral_v<Int>, int> = 0>
  BufferedWriter& operator<<(Int value) {
    char digits[24];
    const auto end = std::to_chars(digits, digits + sizeof(digits), value).ptr;
    return *this << std::string_view(digits, static_cast<std::size_t>(end - digits));
  }

  /// Flushes the buffer and closes the file, reporting errors.
  void close();

 private:
  void flush();

  IoFile file_;
  std::string buffer_;
};

/// Renames `from` over `to` (atomic on POSIX), honoring rename faults: a
/// torn rename truncates `from` to half before renaming, then throws —
/// modeling a crash after a non-atomic metadata commit.
void rename_file(const std::string& from, const std::string& to);

/// create + write_all + close in one call.
void write_file(const std::string& path, std::string_view contents);

/// The atomic commit primitive: writes `path + ".tmp"`, fsyncs, renames
/// over `path`. On any failure the previous content of `path` is intact
/// (injected torn renames excepted, by design).
void write_file_atomic(const std::string& path, std::string_view contents);

/// Size of `path` in bytes; throws IoError (permanent) when unreadable.
[[nodiscard]] std::uint64_t file_size(const std::string& path);

/// Line-by-line reader for the text stage files (components.txt,
/// readsToComponents.out.tsv, bowtie.sam). It tracks the 1-based line
/// number and the byte offset of each line's start, so every reject is a
/// ParseError located at the offending line.
class LineCursor {
 public:
  /// Opens `path`; throws std::runtime_error naming `who` when it cannot.
  LineCursor(const std::string& path, const char* who);

  /// Advances to the next line; false at end of file, where the cursor
  /// points one past the last line, at the file's end.
  bool next();

  [[nodiscard]] const std::string& line() const { return line_; }

  /// Throws a ParseError at the current line.
  [[noreturn]] void fail(ParseCategory category, const std::string& detail) const;

  /// The whole of `text` as a decimal T; otherwise fails with
  /// kInvalidCharacter naming `field`.
  template <typename T>
  [[nodiscard]] T number(std::string_view text, const char* field) const {
    T value{};
    const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
    if (text.empty() || ec != std::errc() || end != text.data() + text.size()) {
      fail(ParseCategory::kInvalidCharacter,
           std::string(field) + " '" + std::string(text) + "' is not a number in range");
    }
    return value;
  }

 private:
  std::ifstream in_;
  std::string path_;
  std::string line_;
  std::size_t line_no_ = 0;
  std::uint64_t offset_ = 0;
  std::uint64_t next_offset_ = 0;
};

}  // namespace trinity::io
