#pragma once
// TranscriptIndex: the k-mer -> bundle vote map of ReadsToTranscripts,
// saved as an image that later runs mmap instead of rebuilding.
//
// The voting path (reads_to_transcripts.hpp) rebuilds its FlatKmerIndex on
// every run — the "assignment of k-mers to Inchworm bundles" setup region
// the paper leaves serial and which dominates the high-node end of
// Figure 9. build() copies that same map into an open-addressing image in
// which each slot holds its k-mer and its component directly; lookup()
// has the FlatKmerIndex<std::int32_t>::lookup shape, so both engines run
// one tally kernel (detail::assign_read) and assignments are bit-identical.
//
// save() commits the image atomically through the io layer, and load()
// maps the file read-only and validates magic, version, size, a checksum
// over every byte but its own field, and the slot table itself — corrupt
// or truncated files are rejected with a typed io::ParseError, never a
// crash. A loaded index is immutable and safe for concurrent lookups.
//
// On-disk format: docs/INDEXING.md. The format version documented there
// must match kTranscriptIndexFormatVersion (scripts/check.sh enforces it).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "chrysalis/components.hpp"
#include "kmer/flat_index.hpp"
#include "seq/kmer.hpp"
#include "seq/sequence.hpp"

namespace trinity::chrysalis {

/// On-disk format version. Bump on any layout change; load() refuses a
/// mismatched file with a clear message (stale files rebuild instead of
/// misreading). Documented as "Format version: N" in docs/INDEXING.md.
inline constexpr std::uint32_t kTranscriptIndexFormatVersion = 3;

/// File magic: "TRIR2TIX" as a little-endian u64.
inline constexpr std::uint64_t kTranscriptIndexMagic = 0x5849543252495254ULL;

/// The mmap-able image of the vote map. Move-only: it owns either the
/// built in-memory image or a read-only mmap of the index file.
class TranscriptIndex {
 public:
  TranscriptIndex() = default;
  TranscriptIndex(TranscriptIndex&& other) noexcept;
  TranscriptIndex& operator=(TranscriptIndex&& other) noexcept;
  TranscriptIndex(const TranscriptIndex&) = delete;
  TranscriptIndex& operator=(const TranscriptIndex&) = delete;
  ~TranscriptIndex();

  /// Builds the vote map (build_bundle_kmer_map) and copies it into the
  /// image, so every lookup answers exactly as the map does.
  static TranscriptIndex build(const std::vector<seq::Sequence>& contigs,
                               const ComponentSet& components, int k);

  /// Maps `path` read-only and validates it. Throws io::ParseError on a
  /// bad magic (kMissingHeader), a format-version mismatch
  /// (kMissingHeader, message names both versions), a size that does not
  /// match the header (kTruncatedRecord, byte_offset = expected size), a
  /// checksum mismatch or an inconsistent slot table (kInvalidCharacter);
  /// io::IoError when the file cannot be opened or mapped.
  static TranscriptIndex load(const std::string& path);

  /// Commits the serialized image to `path` atomically (tmp + fsync +
  /// rename through the io layer). Works for built and loaded indexes;
  /// save(load(p)) writes a byte-identical file.
  void save(const std::string& path) const;

  /// The component of `code` (a canonical k-mer), or nullptr on a miss.
  [[nodiscard]] const std::int32_t* lookup(seq::KmerCode code) const {
    if (slot_count_ == 0) return nullptr;
    const std::uint64_t mask = slot_count_ - 1;
    // Linear probe over the same mix as FlatKmerIndex; component -1 marks
    // a free slot, and load() guarantees at least one exists.
    for (std::uint64_t slot = kmer::mix_kmer_code(code) & mask;
         components_[slot] != kFreeSlot; slot = (slot + 1) & mask) {
      if (keys_[slot] == code) return &components_[slot];
    }
    return nullptr;
  }

  [[nodiscard]] int k() const { return static_cast<int>(k_); }
  [[nodiscard]] std::size_t num_kmers() const { return entry_count_; }
  [[nodiscard]] std::size_t num_components() const { return component_count_; }
  /// True when the arrays live in a read-only mmap of the index file.
  [[nodiscard]] bool mmap_backed() const { return map_base_ != nullptr; }
  /// Size of the serialized image in bytes.
  [[nodiscard]] std::size_t image_bytes() const { return image_size_; }

 private:
  static constexpr std::int32_t kFreeSlot = -1;

  void attach_sections();  ///< points keys_/components_ into the image
  [[nodiscard]] const char* image_data() const;

  std::uint32_t k_ = 0;
  std::uint64_t slot_count_ = 0;  ///< hash slots (power of two; 0 when empty)
  std::uint64_t entry_count_ = 0;
  std::uint64_t component_count_ = 0;

  // The serialized image: exactly one of owned_ / map_base_ holds it.
  // owned_ is u64-backed so every section meets its alignment.
  std::vector<std::uint64_t> owned_;  ///< built in memory (header + sections)
  void* map_base_ = nullptr;     ///< mmap base when loaded from disk
  std::size_t map_length_ = 0;   ///< mapped length (munmap needs it)
  std::size_t image_size_ = 0;

  // Section pointers into the image (null for an empty index).
  const std::uint64_t* keys_ = nullptr;       ///< slot_count_ packed k-mers
  const std::int32_t* components_ = nullptr;  ///< per slot; kFreeSlot = free
};

}  // namespace trinity::chrysalis
