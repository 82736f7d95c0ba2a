#include "io/io_file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <mutex>

#include "trace/span_recorder.hpp"

namespace trinity::io {

namespace {

// The installed plan. Copies share the trigger/budget atomics, so handing
// out copies under the mutex keeps the hot path short while firing
// decisions stay globally consistent across threads (simpi ranks).
std::mutex g_plan_mu;
IoFaultPlan g_plan;

IoFaultPlan installed_plan() {
  std::lock_guard<std::mutex> lock(g_plan_mu);
  return g_plan;
}

[[noreturn]] void throw_injected(IoOp op, const std::string& path, IoFaultKind kind,
                                 const std::string& detail) {
  switch (kind) {
    case IoFaultKind::kEnospc:
      throw IoError(IoErrorKind::kPermanent, to_string(op), path, ENOSPC,
                    "injected fault: " + detail);
    case IoFaultKind::kEio:
      throw IoError(IoErrorKind::kTransient, to_string(op), path, EIO,
                    "injected fault: " + detail);
    case IoFaultKind::kShortWrite:
      throw IoError(IoErrorKind::kTransient, to_string(op), path, EIO,
                    "injected fault: " + detail);
    case IoFaultKind::kTornRename:
      throw IoError(IoErrorKind::kPermanent, to_string(op), path, EIO,
                    "injected fault: " + detail);
    case IoFaultKind::kNone: break;
  }
  throw IoError(IoErrorKind::kPermanent, to_string(op), path, 0, "injected fault");
}

/// The per-operation injection hook. Returns the fault to act out for ops
/// with non-throw semantics (short write, torn rename); plain failure
/// kinds throw from here.
IoFaultKind fault_point(IoOp op, const std::string& path) {
  const IoFaultPlan plan = installed_plan();
  if (!plan.should_fire(op, path)) return IoFaultKind::kNone;
  // Every injected fault — thrown here or acted out by the caller — leaves
  // an instant event on the firing thread's track.
  trace::instant("io.fault", trace::kCatIo,
                 std::string(to_string(plan.kind)) + " at " + to_string(op) + " " + path);
  switch (plan.kind) {
    case IoFaultKind::kShortWrite:
      // Only a write can land partial bytes; elsewhere degrade to EIO.
      if (op == IoOp::kWrite) return IoFaultKind::kShortWrite;
      throw_injected(op, path, IoFaultKind::kEio, "short_write degraded to eio");
    case IoFaultKind::kTornRename:
      if (op == IoOp::kRename) return IoFaultKind::kTornRename;
      throw_injected(op, path, IoFaultKind::kEio, "torn_rename degraded to eio");
    default:
      throw_injected(op, path, plan.kind, std::string(to_string(plan.kind)) + " on op " +
                                              std::to_string(plan.at_op));
  }
  return IoFaultKind::kNone;
}

[[noreturn]] void throw_errno(const char* op, const std::string& path, int err,
                              const std::string& detail) {
  throw IoError(classify_errno(err), op, path, err, detail);
}

}  // namespace

void set_fault_plan(IoFaultPlan plan) {
  if (plan.enabled()) plan.arm();
  std::lock_guard<std::mutex> lock(g_plan_mu);
  g_plan = std::move(plan);
}

void clear_fault_plan() {
  std::lock_guard<std::mutex> lock(g_plan_mu);
  g_plan = IoFaultPlan{};
}

IoFaultPlan current_fault_plan() { return installed_plan(); }

IoFile IoFile::create(const std::string& path) {
  trace::SpanScope span("io.open", trace::kCatIo);
  if (span) span.set_detail(path);
  fault_point(IoOp::kOpen, path);
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) throw_errno("open", path, errno, "cannot create");
  return IoFile(fd, path);
}

IoFile::IoFile(IoFile&& other) noexcept : fd_(other.fd_), path_(std::move(other.path_)) {
  other.fd_ = -1;
}

IoFile& IoFile::operator=(IoFile&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    other.fd_ = -1;
  }
  return *this;
}

IoFile::~IoFile() {
  if (fd_ >= 0) ::close(fd_);
}

void IoFile::write_all(std::string_view data) {
  trace::SpanScope span("io.write", trace::kCatIo);
  if (span) {
    span.arg("bytes", static_cast<double>(data.size()));
    span.set_detail(path_);
  }
  const IoFaultKind fault = fault_point(IoOp::kWrite, path_);
  if (fault == IoFaultKind::kShortWrite) {
    // Land half the payload, then fail: the on-disk file now holds a
    // partial record, which the consumer must never read as complete.
    const std::size_t half = data.size() / 2;
    std::size_t written = 0;
    while (written < half) {
      const ssize_t n = ::write(fd_, data.data() + written, half - written);
      if (n < 0) break;
      written += static_cast<std::size_t>(n);
    }
    throw IoError(IoErrorKind::kTransient, "write", path_, EIO,
                  "injected fault: short write (" + std::to_string(written) + " of " +
                      std::to_string(data.size()) + " bytes)");
  }
  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::write(fd_, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("write", path_, errno,
                  "write failure after " + std::to_string(written) + " of " +
                      std::to_string(data.size()) + " bytes");
    }
    written += static_cast<std::size_t>(n);
  }
}

void IoFile::fsync() {
  trace::SpanScope span("io.fsync", trace::kCatIo);
  if (span) span.set_detail(path_);
  fault_point(IoOp::kFsync, path_);
  if (::fsync(fd_) < 0) throw_errno("fsync", path_, errno, "fsync failure");
}

void IoFile::close() {
  if (fd_ < 0) return;
  const int fd = fd_;
  fd_ = -1;
  if (::close(fd) < 0) throw_errno("close", path_, errno, "close failure");
}

BufferedWriter::BufferedWriter(const std::string& path) : file_(IoFile::create(path)) {
  buffer_.reserve(kCapacity);
}

void BufferedWriter::flush() {
  if (buffer_.empty()) return;
  file_.write_all(buffer_);
  buffer_.clear();
}

void BufferedWriter::close() {
  flush();
  file_.close();
}

void rename_file(const std::string& from, const std::string& to) {
  trace::SpanScope span("io.rename", trace::kCatIo);
  if (span) span.set_detail(to);
  // The plan may target either side of the rename; count the op once,
  // against the destination first (commit targets name their final path).
  IoFaultKind fault = fault_point(IoOp::kRename, to);
  if (fault == IoFaultKind::kNone) fault = fault_point(IoOp::kRename, from);
  if (fault == IoFaultKind::kTornRename) {
    // Model a crash after a non-atomic commit: the destination ends up
    // with only a prefix of the new content, and the caller sees a
    // permanent failure (the "process died here" signal).
    std::error_code ec;
    const auto size = std::filesystem::file_size(from, ec);
    if (!ec) std::filesystem::resize_file(from, size / 2, ec);
    std::filesystem::rename(from, to, ec);
    throw IoError(IoErrorKind::kPermanent, "rename", to, EIO,
                  "injected fault: torn rename (crash after partial write of '" + from + "')");
  }
  if (::rename(from.c_str(), to.c_str()) < 0) {
    throw_errno("rename", to, errno, "cannot rename '" + from + "' over");
  }
}

void write_file(const std::string& path, std::string_view contents) {
  IoFile out = IoFile::create(path);
  out.write_all(contents);
  out.close();
}

void write_file_atomic(const std::string& path, std::string_view contents) {
  const std::string tmp = path + ".tmp";
  IoFile out = IoFile::create(tmp);
  out.write_all(contents);
  out.fsync();
  out.close();
  rename_file(tmp, path);
}

std::uint64_t file_size(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec) {
    throw IoError(IoErrorKind::kPermanent, "stat", path, ec.value(), "cannot stat");
  }
  return static_cast<std::uint64_t>(size);
}

LineCursor::LineCursor(const std::string& path, const char* who) : in_(path), path_(path) {
  if (!in_) throw std::runtime_error(std::string(who) + ": cannot open '" + path + "'");
}

bool LineCursor::next() {
  offset_ = next_offset_;
  ++line_no_;
  if (!std::getline(in_, line_)) return false;
  next_offset_ += line_.size() + (in_.eof() ? 0 : 1);
  return true;
}

void LineCursor::fail(ParseCategory category, const std::string& detail) const {
  throw ParseError(category, path_, line_no_, offset_, detail);
}

}  // namespace trinity::io
