#include "chrysalis/distribution.hpp"

#include <algorithm>

namespace trinity::chrysalis {

ChunkedRoundRobin::ChunkedRoundRobin(std::size_t num_items, int nranks, std::size_t chunk_size)
    : num_items_(num_items), nranks_(nranks), chunk_size_(chunk_size) {
  if (nranks < 1) throw std::invalid_argument("ChunkedRoundRobin: nranks must be >= 1");
  if (chunk_size < 1) throw std::invalid_argument("ChunkedRoundRobin: chunk_size must be >= 1");
}

std::size_t ChunkedRoundRobin::num_chunks() const {
  return (num_items_ + chunk_size_ - 1) / chunk_size_;
}

std::vector<IndexRange> ChunkedRoundRobin::chunks_for(int rank) const {
  std::vector<IndexRange> out;
  for (std::size_t c = 0; c < num_chunks(); ++c) {
    if (owner_of(c, nranks_) == rank) out.push_back(chunk(c));
  }
  return out;
}

IndexRange ChunkedRoundRobin::chunk(std::size_t index) const {
  if (index >= num_chunks()) return {};
  const std::size_t begin = index * chunk_size_;
  return {begin, std::min(begin + chunk_size_, num_items_)};  // tail clip
}

int ChunkedRoundRobin::owner_of(std::size_t index, int nranks) {
  return static_cast<int>(index % static_cast<std::size_t>(nranks));
}

std::size_t ChunkedRoundRobin::default_chunk_size(std::size_t num_items, int nranks,
                                                  int threads) {
  const std::size_t workers =
      static_cast<std::size_t>(nranks) * static_cast<std::size_t>(std::max(threads, 1));
  // The paper sizes chunks proportionally to items / workers. Inchworm
  // emits contigs in decreasing seed abundance, so per-contig cost falls
  // steeply along the array; many chunks per rank (16x workers) let the
  // round-robin stripe every rank across that gradient.
  const std::size_t size = num_items / (workers * 16 + 1);
  return std::max<std::size_t>(size, 1);
}

BlockDistribution::BlockDistribution(std::size_t num_items, int nranks)
    : num_items_(num_items), nranks_(nranks) {
  if (nranks < 1) throw std::invalid_argument("BlockDistribution: nranks must be >= 1");
}

IndexRange BlockDistribution::block_for(int rank) const {
  const auto p = static_cast<std::size_t>(rank);
  const auto n = static_cast<std::size_t>(nranks_);
  const std::size_t base = num_items_ / n;
  const std::size_t extra = num_items_ % n;
  IndexRange r;
  r.begin = p * base + std::min(p, extra);
  r.end = r.begin + base + (p < extra ? 1 : 0);
  return r;
}

}  // namespace trinity::chrysalis
