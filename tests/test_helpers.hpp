#pragma once
// Shared helpers for the test suite: scratch directories and small
// sequence-construction utilities.

#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "seq/sequence.hpp"
#include "util/rng.hpp"

namespace trinity::testing {

/// RAII scratch directory under the system temp dir, removed on scope exit.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    static std::atomic<unsigned> counter{0};
    path_ = std::filesystem::temp_directory_path() /
            ("trinity_test_" + tag + "_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter.fetch_add(1)));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] std::string str() const { return path_.string(); }
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

/// Deterministic random DNA string.
inline std::string random_dna(std::size_t length, std::uint64_t seed) {
  util::Rng rng(seed);
  std::string out(length, 'A');
  constexpr char kBases[4] = {'A', 'C', 'G', 'T'};
  for (auto& c : out) c = kBases[rng.uniform_below(4)];
  return out;
}

/// `source` with `edits` random substitutions, insertions and deletions of
/// 1-4 bases.
inline std::string mutate(std::string out, std::size_t edits, util::Rng& rng) {
  for (std::size_t k = 0; k < edits && !out.empty(); ++k) {
    const auto pos = rng.uniform_below(out.size());
    const auto len = 1 + rng.uniform_below(4);
    switch (rng.uniform_below(3)) {
      case 0:
        out[pos] = "ACGT"[rng.uniform_below(4)];
        break;
      case 1:
        out.insert(pos, random_dna(len, rng()));
        break;
      default:
        out.erase(pos, len);
        break;
    }
  }
  return out;
}

/// Chops `source` into overlapping error-free reads covering it end to end.
inline std::vector<seq::Sequence> tile_reads(const std::string& source,
                                             std::size_t read_length, std::size_t stride,
                                             const std::string& prefix = "read") {
  std::vector<seq::Sequence> reads;
  if (source.size() < read_length) return reads;
  for (std::size_t pos = 0;; pos += stride) {
    if (pos + read_length > source.size()) pos = source.size() - read_length;
    seq::Sequence r;
    r.name = prefix + std::to_string(reads.size());
    r.bases = source.substr(pos, read_length);
    reads.push_back(std::move(r));
    if (pos + read_length >= source.size()) break;
  }
  return reads;
}

}  // namespace trinity::testing
