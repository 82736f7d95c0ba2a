#pragma once
// FNV-1a 64-bit hashing over bytes, strings, and files, and the
// splitmix64 finalizer over one 64-bit word.
//
// The checkpoint subsystem fingerprints pipeline options and stage
// artifacts so a resumed run can prove the on-disk state still matches
// what the manifest recorded. FNV-1a is deliberate: a fast, dependency-free
// content hash (the xxhash role in production assemblers) — not a
// cryptographic digest, which artifact validation does not need.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace trinity::util {

inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// splitmix64's increment (2^64 / golden ratio), which callers add to or
/// multiply into the word they mix.
inline constexpr std::uint64_t kGoldenGamma = 0x9e3779b97f4a7c15ULL;

/// The splitmix64 finalizer: a full-avalanche bijection of one word. The
/// RNG seeder, the k-mer table hash, retry jitter and the salted assembly
/// tie-breaks all mix through it.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Folds `len` bytes into a running FNV-1a state.
[[nodiscard]] std::uint64_t fnv1a_append(std::uint64_t state, const void* data,
                                         std::size_t len);

/// FNV-1a 64 of a byte range.
[[nodiscard]] inline std::uint64_t fnv1a(const void* data, std::size_t len) {
  return fnv1a_append(kFnvOffsetBasis, data, len);
}

/// FNV-1a 64 of a string.
[[nodiscard]] inline std::uint64_t fnv1a(std::string_view s) {
  return fnv1a(s.data(), s.size());
}

/// Streaming FNV-1a 64 over a file's contents. Throws std::runtime_error
/// when the file cannot be opened.
[[nodiscard]] std::uint64_t fnv1a_file(const std::string& path);

}  // namespace trinity::util
