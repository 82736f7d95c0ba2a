#pragma once
// Work-distribution strategies for the hybrid (simpi + OpenMP) loops.
//
// Section III.B of the paper: "Our current implementation uses a 'chunked
// round robin' strategy with each MPI process getting a chunk, distributing
// to its multiple threads, and then working on the next chunk.
// Mathematically, in the outer loop, chunk i ... is allocated to MPI rank p
// if i (modulo) p = 0" — i.e. chunk i belongs to rank (i mod P). The paper
// also notes the care needed at the tail: "the end index of the inner
// thread loop might have to be changed depending on how many Inchworm
// contigs are left".
//
// The first strategy they tried — pre-allocating one contiguous block per
// rank — "did not give us a good speedup"; it is kept here as
// BlockDistribution for the ablation benchmark.

#include <cstddef>
#include <stdexcept>
#include <vector>

namespace trinity::chrysalis {

/// A half-open index range [begin, end) of work items.
struct IndexRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  [[nodiscard]] std::size_t size() const { return end - begin; }
  [[nodiscard]] bool empty() const { return begin >= end; }
  friend bool operator==(const IndexRange&, const IndexRange&) = default;
};

/// Chunked round-robin: item space cut into fixed-size chunks; chunk i is
/// owned by rank (i mod nranks). Each returned range is one chunk, clipped
/// at the tail exactly as the paper describes.
class ChunkedRoundRobin {
 public:
  /// @throws std::invalid_argument for nranks < 1 or chunk_size < 1.
  ChunkedRoundRobin(std::size_t num_items, int nranks, std::size_t chunk_size);

  /// The chunks owned by `rank`, in increasing index order.
  [[nodiscard]] std::vector<IndexRange> chunks_for(int rank) const;

  /// Chunk `index`, clipped at the tail; empty past the last chunk.
  [[nodiscard]] IndexRange chunk(std::size_t index) const;

  /// The rank that owns chunk `index` of any chunked stream: index mod
  /// nranks, the paper's rule.
  static int owner_of(std::size_t index, int nranks);

  /// Total number of chunks (including the possibly short tail chunk).
  [[nodiscard]] std::size_t num_chunks() const;

  /// Chunk size the paper derives: proportional to items / (ranks*threads).
  /// Clamped to at least 1.
  static std::size_t default_chunk_size(std::size_t num_items, int nranks, int threads);

 private:
  std::size_t num_items_;
  int nranks_;
  std::size_t chunk_size_;
};

/// Pre-allocated contiguous blocks: rank p gets the p-th of nranks nearly
/// equal slices. The paper's discarded first attempt, kept for the
/// distribution-strategy ablation.
class BlockDistribution {
 public:
  BlockDistribution(std::size_t num_items, int nranks);

  /// The single contiguous range owned by `rank`.
  [[nodiscard]] IndexRange block_for(int rank) const;

 private:
  std::size_t num_items_;
  int nranks_;
};

}  // namespace trinity::chrysalis
