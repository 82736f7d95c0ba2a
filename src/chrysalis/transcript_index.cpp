#include "chrysalis/transcript_index.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "chrysalis/reads_to_transcripts.hpp"
#include "io/error.hpp"
#include "io/io_file.hpp"
#include "util/hash.hpp"

namespace trinity::chrysalis {

namespace {

/// The 64-byte on-disk header (docs/INDEXING.md). Fixed-width fields, no
/// implicit padding; written and read in host byte order (little-endian on
/// every platform this repo targets — load() rejects a byte-swapped magic
/// rather than translating).
struct FileHeader {
  std::uint64_t magic = kTranscriptIndexMagic;
  std::uint32_t version = kTranscriptIndexFormatVersion;
  std::uint32_t k = 0;
  std::uint64_t slot_count = 0;
  std::uint64_t entry_count = 0;
  std::uint64_t component_count = 0;
  std::uint64_t reserved[2] = {0, 0};
  std::uint64_t checksum = 0;  ///< image_digest() of the file, this field read as 0
};
static_assert(sizeof(FileHeader) == 64 && std::is_trivially_copyable_v<FileHeader>);

static_assert(offsetof(FileHeader, checksum) + sizeof(std::uint64_t) == sizeof(FileHeader));

/// Slot count for `entries` distinct keys: the next power of two keeping
/// the load factor under FlatKmerIndex's 0.7 ceiling, never below 16.
std::uint64_t slot_count_for(std::uint64_t entries) {
  std::uint64_t want = 16;
  while (static_cast<double>(entries) >= 0.7 * static_cast<double>(want)) want *= 2;
  return want;
}

std::size_t image_bytes_for(std::uint64_t slots) {
  return sizeof(FileHeader) + slots * (sizeof(std::uint64_t) + sizeof(std::int32_t));
}

/// Checksum of the whole image: util::ContentHash of `header` with its
/// checksum field read as zero, then the sections after it, so a flipped
/// header byte is caught as surely as a flipped slot.
std::uint64_t image_digest(FileHeader header, const char* image, std::size_t size) {
  header.checksum = 0;
  return util::ContentHash()
      .update(&header, sizeof(header))
      .update(image + sizeof(FileHeader), size - sizeof(FileHeader))
      .digest();
}

}  // namespace

TranscriptIndex::TranscriptIndex(TranscriptIndex&& other) noexcept {
  *this = std::move(other);
}

TranscriptIndex& TranscriptIndex::operator=(TranscriptIndex&& other) noexcept {
  if (this == &other) return *this;
  if (map_base_ != nullptr) ::munmap(map_base_, map_length_);
  k_ = other.k_;
  slot_count_ = std::exchange(other.slot_count_, 0);
  entry_count_ = std::exchange(other.entry_count_, 0);
  component_count_ = other.component_count_;
  owned_ = std::move(other.owned_);
  map_base_ = std::exchange(other.map_base_, nullptr);
  map_length_ = std::exchange(other.map_length_, 0);
  image_size_ = std::exchange(other.image_size_, 0);
  attach_sections();
  other.keys_ = nullptr;
  other.components_ = nullptr;
  return *this;
}

TranscriptIndex::~TranscriptIndex() {
  if (map_base_ != nullptr) ::munmap(map_base_, map_length_);
}

const char* TranscriptIndex::image_data() const {
  if (map_base_ != nullptr) return static_cast<const char*>(map_base_);
  return reinterpret_cast<const char*>(owned_.data());
}

void TranscriptIndex::attach_sections() {
  if (image_size_ == 0) {
    keys_ = nullptr;
    components_ = nullptr;
    return;
  }
  const char* base = image_data() + sizeof(FileHeader);
  keys_ = reinterpret_cast<const std::uint64_t*>(base);
  components_ =
      reinterpret_cast<const std::int32_t*>(base + slot_count_ * sizeof(std::uint64_t));
}

TranscriptIndex TranscriptIndex::build(const std::vector<seq::Sequence>& contigs,
                                       const ComponentSet& components, int k) {
  const auto bundle_of = build_bundle_kmer_map(contigs, components, k);

  TranscriptIndex index;
  index.k_ = static_cast<std::uint32_t>(k);
  index.slot_count_ = slot_count_for(bundle_of.size());
  index.entry_count_ = bundle_of.size();
  index.component_count_ = components.num_components();
  index.image_size_ = image_bytes_for(index.slot_count_);
  index.owned_.assign((index.image_size_ + sizeof(std::uint64_t) - 1) / sizeof(std::uint64_t),
                      0);
  char* base = reinterpret_cast<char*>(index.owned_.data());
  auto* keys = reinterpret_cast<std::uint64_t*>(base + sizeof(FileHeader));
  auto* slots = reinterpret_cast<std::int32_t*>(keys + index.slot_count_);
  std::fill(slots, slots + index.slot_count_, kFreeSlot);

  // Copy the map slot by slot; its iteration order is deterministic, so
  // the image is a pure function of the inputs.
  const std::uint64_t mask = index.slot_count_ - 1;
  for (const auto& [code, component] : bundle_of) {
    std::uint64_t slot = kmer::mix_kmer_code(code) & mask;
    while (slots[slot] != kFreeSlot) slot = (slot + 1) & mask;
    keys[slot] = code;
    slots[slot] = component;
  }

  FileHeader header;
  header.k = index.k_;
  header.slot_count = index.slot_count_;
  header.entry_count = index.entry_count_;
  header.component_count = index.component_count_;
  header.checksum = image_digest(header, base, index.image_size_);
  std::memcpy(base, &header, sizeof(FileHeader));

  index.attach_sections();
  return index;
}

void TranscriptIndex::save(const std::string& path) const {
  if (image_size_ == 0) {
    throw std::logic_error("TranscriptIndex::save: index was never built or loaded");
  }
  io::write_file_atomic(path, std::string_view(image_data(), image_size_));
}

TranscriptIndex TranscriptIndex::load(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw io::IoError(io::classify_errno(errno), "open", path, errno,
                      "cannot open transcript index");
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    throw io::IoError(io::classify_errno(err), "fstat", path, err,
                      "cannot stat transcript index");
  }
  const auto size = static_cast<std::uint64_t>(st.st_size);
  if (size < sizeof(FileHeader)) {
    ::close(fd);
    throw io::ParseError(io::ParseCategory::kMissingHeader, path, 1, 0,
                         "file is " + std::to_string(size) +
                             " bytes, smaller than the " +
                             std::to_string(sizeof(FileHeader)) +
                             "-byte index header");
  }
  void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  const int mmap_errno = errno;
  ::close(fd);
  if (base == MAP_FAILED) {
    throw io::IoError(io::classify_errno(mmap_errno), "mmap", path, mmap_errno,
                      "cannot map transcript index");
  }

  TranscriptIndex index;  // owns the mapping from here, so throws unmap it
  index.map_base_ = base;
  index.map_length_ = size;

  FileHeader header;
  std::memcpy(&header, base, sizeof(FileHeader));
  if (header.magic != kTranscriptIndexMagic) {
    throw io::ParseError(io::ParseCategory::kMissingHeader, path, 1, 0,
                         "bad magic: not a transcript index file");
  }
  if (header.version != kTranscriptIndexFormatVersion) {
    throw io::ParseError(
        io::ParseCategory::kMissingHeader, path, 1, 0,
        "format version " + std::to_string(header.version) + ", this build reads version " +
            std::to_string(kTranscriptIndexFormatVersion) +
            "; rebuild the index (--r2t-index build)");
  }
  if (header.k < 1 || header.k > 32 || header.slot_count < 16 ||
      (header.slot_count & (header.slot_count - 1)) != 0 ||
      header.slot_count > (std::uint64_t{1} << 58) ||  // image_bytes_for cannot wrap
      header.entry_count >= header.slot_count) {
    throw io::ParseError(io::ParseCategory::kMissingHeader, path, 1, 0,
                         "header invariants violated (k=" + std::to_string(header.k) +
                             ", slots=" + std::to_string(header.slot_count) + ")");
  }
  const std::uint64_t expected = image_bytes_for(header.slot_count);
  if (size != expected) {
    throw io::ParseError(io::ParseCategory::kTruncatedRecord, path, 1, expected,
                         "file is " + std::to_string(size) + " bytes, header implies " +
                             std::to_string(expected));
  }
  if (image_digest(header, static_cast<const char*>(base), size) != header.checksum) {
    throw io::ParseError(io::ParseCategory::kInvalidCharacter, path, 1, 0,
                         "checksum mismatch: index file is corrupt");
  }

  index.k_ = header.k;
  index.slot_count_ = header.slot_count;
  index.entry_count_ = header.entry_count;
  index.component_count_ = header.component_count;
  index.image_size_ = size;
  index.attach_sections();

  // The slot table must agree with the header: every component in range
  // and exactly entry_count slots used, which leaves lookup() a free slot
  // to stop at even on a file whose checksum was forged.
  std::uint64_t used = 0;
  for (std::uint64_t slot = 0; slot < index.slot_count_; ++slot) {
    const std::int32_t component = index.components_[slot];
    if (component == kFreeSlot) continue;
    if (component < 0 || static_cast<std::uint64_t>(component) >= index.component_count_) {
      throw io::ParseError(io::ParseCategory::kInvalidCharacter, path, 1,
                           sizeof(FileHeader) + index.slot_count_ * sizeof(std::uint64_t) +
                               slot * sizeof(std::int32_t),
                           "slot " + std::to_string(slot) + " holds component " +
                               std::to_string(component) + " outside [0, " +
                               std::to_string(index.component_count_) + ")");
    }
    ++used;
  }
  if (used != index.entry_count_) {
    throw io::ParseError(io::ParseCategory::kInvalidCharacter, path, 1, 0,
                         "slot table holds " + std::to_string(used) +
                             " k-mers, header says " + std::to_string(index.entry_count_));
  }
  return index;
}

}  // namespace trinity::chrysalis
