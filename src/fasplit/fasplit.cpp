#include "fasplit/fasplit.hpp"

#include <algorithm>
#include <numeric>
#include <queue>
#include <stdexcept>

#include "seq/fasta.hpp"

namespace trinity::fasplit {

Partition partition_balanced(const std::vector<seq::Sequence>& seqs, int parts) {
  if (parts < 1) throw std::invalid_argument("partition_balanced: parts must be >= 1");
  Partition out;
  out.parts = parts;
  out.part_of.assign(seqs.size(), 0);
  out.part_bases.assign(static_cast<std::size_t>(parts), 0);

  // Longest-processing-time: visit sequences in descending length and put
  // each on the lightest part. A min-heap of (bases, part) keeps this
  // O(n log p); ties break toward the lower part index for determinism.
  std::vector<std::size_t> order(seqs.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return seqs[a].bases.size() > seqs[b].bases.size();
  });

  using Slot = std::pair<std::size_t, int>;  // (bases, part index)
  auto cmp = [](const Slot& a, const Slot& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second > b.second;
  };
  std::priority_queue<Slot, std::vector<Slot>, decltype(cmp)> heap(cmp);
  for (int p = 0; p < parts; ++p) heap.push({0, p});

  for (const std::size_t i : order) {
    auto [bases, p] = heap.top();
    heap.pop();
    out.part_of[i] = p;
    bases += seqs[i].bases.size();
    out.part_bases[static_cast<std::size_t>(p)] = bases;
    heap.push({bases, p});
  }
  return out;
}

std::vector<seq::Sequence> extract_part(const std::vector<seq::Sequence>& seqs,
                                        const Partition& partition, int p) {
  std::vector<seq::Sequence> out;
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    if (partition.part_of[i] == p) out.push_back(seqs[i]);
  }
  return out;
}

std::vector<std::string> split_fasta_file(const std::string& fasta_path,
                                          const std::string& out_prefix, int parts) {
  const auto seqs = seq::read_all(fasta_path);
  const auto partition = partition_balanced(seqs, parts);
  std::vector<std::string> paths;
  paths.reserve(static_cast<std::size_t>(parts));
  for (int p = 0; p < parts; ++p) {
    const std::string path = out_prefix + "." + std::to_string(p) + ".fa";
    seq::write_fasta(path, extract_part(seqs, partition, p));
    paths.push_back(path);
  }
  return paths;
}

}  // namespace trinity::fasplit
