#pragma once
// The one content hash, over bytes, strings and files, and the splitmix64
// finalizer over one 64-bit word.
//
// ContentHash fingerprints pipeline options, hashes checkpoint artifacts
// so a resumed run can prove the on-disk state still matches its manifest,
// and checksums the transcript index image: a fast, dependency-free hash
// (the xxhash role in production assemblers), not a cryptographic digest,
// which artifact validation does not need.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace trinity::util {

/// splitmix64's increment (2^64 / golden ratio), which callers add to or
/// multiply into the word they mix.
inline constexpr std::uint64_t kGoldenGamma = 0x9e3779b97f4a7c15ULL;

/// The splitmix64 finalizer: a full-avalanche bijection of one word. The
/// RNG seeder, the k-mer table hash and the salted assembly tie-breaks all
/// mix through it.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Streaming 64-bit content hash: four lanes (seeded 0..3) each take one
/// 8-byte word of every 32-byte stripe through xxHash64's multiply-rotate
/// round. A short final stripe is zero-padded and digest() folds the lanes
/// with the total length through mix64, so trailing zeros still count. A
/// change to any one word changes the digest (each round and fold is a
/// bijection in it); how update() split the bytes never does.
class ContentHash {
 public:
  ContentHash& update(const void* data, std::size_t len);
  ContentHash& update(std::string_view s) { return update(s.data(), s.size()); }

  /// The digest of everything so far; more bytes may follow.
  [[nodiscard]] std::uint64_t digest() const;

 private:
  static constexpr std::size_t kStripe = 32;

  std::uint64_t lanes_[4] = {0, 1, 2, 3};
  unsigned char pending_[kStripe] = {};  ///< a partial stripe awaiting bytes
  std::size_t pending_len_ = 0;
  std::uint64_t length_ = 0;
};

/// ContentHash of a file's contents, read in 64 KiB blocks. Throws
/// std::runtime_error when the file cannot be opened or read.
[[nodiscard]] std::uint64_t hash_file(const std::string& path);

}  // namespace trinity::util
