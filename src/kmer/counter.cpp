#include "kmer/counter.hpp"

#include "io/io_file.hpp"
#include "util/hash.hpp"

#include <omp.h>

#include <algorithm>
#include <cerrno>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <string_view>

namespace trinity::kmer {

namespace {
// Reads per counting block: bounds the per-thread partition buffers, which
// would otherwise hold every k-mer occurrence of the input.
constexpr std::size_t kBlockReads = 16384;

// count_solid's filter bits per k-mer window scanned. When no code repeats
// (a window per distinct code), up to ~15% of the codes pass the two-probe
// filter as false positives; at RNA-seq coverage, under 1% do.
constexpr std::size_t kFilterBitsPerWindow = 4;

/// count_solid's per-partition Bloom filter: a power-of-two bit array
/// probed at two positions taken from one mix of the code. That mix is
/// independent of mix_kmer_code, which picks the partition and the table
/// slot.
class SeenFilter {
 public:
  explicit SeenFilter(std::size_t min_bits) {
    std::size_t bits = 64;
    while (bits < min_bits) bits *= 2;
    words_.assign(bits / 64, 0);
    mask_ = bits - 1;
  }

  /// Marks `code` seen. True when both its bits were already set: always
  /// for a code marked before, and for a few codes that were not.
  bool test_and_set(seq::KmerCode code) {
    const std::uint64_t h = util::mix64(code);
    return set(h & mask_) & set((h >> 32) & mask_);
  }

 private:
  /// Sets one bit; true when it was already set.
  bool set(std::uint64_t bit) {
    std::uint64_t& word = words_[bit >> 6];
    const std::uint64_t m = std::uint64_t{1} << (bit & 63);
    const bool was = (word & m) != 0;
    word |= m;
    return was;
  }

  std::vector<std::uint64_t> words_;
  std::uint64_t mask_ = 0;
};
}  // namespace

KmerCounter::KmerCounter(CounterOptions options)
    : options_(options), codec_(options.k), partitions_(std::size_t{1} << kPartitionBits) {}

int KmerCounter::thread_count() const {
  return options_.num_threads > 0 ? options_.num_threads : omp_get_max_threads();
}

void KmerCounter::add_counts(const std::vector<KmerCount>& counts) {
  for (const auto& kc : counts) partitions_[partition_of(kc.code)][kc.code] += kc.count;
}

template <typename Fold>
void KmerCounter::walk_blocks(const std::vector<seq::Sequence>& seqs, const Fold& fold) {
  const int threads = thread_count();
  const std::size_t nparts = partitions_.size();
  // buffers[t * nparts + p]: the codes thread t found for partition p in
  // the current block.
  std::vector<std::vector<seq::KmerCode>> buffers(static_cast<std::size_t>(threads) * nparts);
  for (std::size_t first = 0; first < seqs.size(); first += kBlockReads) {
    const std::size_t last = std::min(seqs.size(), first + kBlockReads);
#pragma omp parallel num_threads(threads)
    {
      auto* mine = &buffers[static_cast<std::size_t>(omp_get_thread_num()) * nparts];
#pragma omp for schedule(dynamic, 64)
      for (std::size_t i = first; i < last; ++i) {
        codec_.for_each(seqs[i].bases, [&](const seq::KmerCodec::Window& w) {
          const seq::KmerCode code = options_.canonical ? w.canonical() : w.code;
          mine[partition_of(code)].push_back(code);
        });
      }
      // The loop's implicit barrier completes the block's buffers; each
      // partition is then folded by exactly one thread.
#pragma omp for schedule(dynamic, 1)
      for (std::size_t p = 0; p < nparts; ++p) {
        for (int t = 0; t < threads; ++t) {
          auto& buffer = buffers[static_cast<std::size_t>(t) * nparts + p];
          fold(p, buffer);
          buffer.clear();
        }
      }
    }
  }
}

void KmerCounter::add_sequences(const std::vector<seq::Sequence>& seqs) {
  walk_blocks(seqs, [&](std::size_t p, const std::vector<seq::KmerCode>& codes) {
    for (const seq::KmerCode code : codes) ++partitions_[p][code];
  });
}

void KmerCounter::count_solid(const std::vector<seq::Sequence>& seqs, std::uint32_t min_count) {
  partitions_.assign(partitions_.size(), FlatKmerIndex<std::uint32_t>());
  if (min_count <= 1) {
    add_sequences(seqs);
    return;
  }
  // The windows scanned bound the distinct codes: each filter gets
  // kFilterBitsPerWindow bits per window of its partition's share.
  std::size_t windows = 0;
  for (const auto& s : seqs) windows += codec_.window_count(s.bases);
  std::vector<SeenFilter> filters(partitions_.size(),
                                  SeenFilter(kFilterBitsPerWindow * windows / partitions_.size()));

  // Pass 1: a code's second sighting (or a false positive) makes it a key.
  walk_blocks(seqs, [&](std::size_t p, const std::vector<seq::KmerCode>& codes) {
    for (const seq::KmerCode code : codes) {
      if (filters[p].test_and_set(code)) partitions_[p].emplace(code, 0);
    }
  });
  filters = std::vector<SeenFilter>();

  // Pass 2: exact counts over the keys only.
  walk_blocks(seqs, [&](std::size_t p, const std::vector<seq::KmerCode>& codes) {
    for (const seq::KmerCode code : codes) {
      if (std::uint32_t* count = partitions_[p].lookup(code)) ++*count;
    }
  });

  // Drop the keys below the threshold, each partition into a table sized
  // to its survivors.
#pragma omp parallel for schedule(dynamic, 1) num_threads(thread_count())
  for (std::size_t p = 0; p < partitions_.size(); ++p) {
    const auto& all = partitions_[p];
    std::size_t kept = 0;
    for (const auto& [code, count] : all) kept += count >= min_count;
    FlatKmerIndex<std::uint32_t> solid(kept);
    for (const auto& [code, count] : all) {
      if (count >= min_count) solid.emplace(code, count);
    }
    partitions_[p] = std::move(solid);
  }
}

std::uint32_t KmerCounter::count_of(seq::KmerCode code) const {
  const seq::KmerCode key = options_.canonical ? codec_.canonical(code) : code;
  const std::uint32_t* hit = partitions_[partition_of(key)].lookup(key);
  return hit != nullptr ? *hit : 0u;
}

std::size_t KmerCounter::distinct() const {
  std::size_t total = 0;
  for (const auto& partition : partitions_) total += partition.size();
  return total;
}

std::uint64_t KmerCounter::total() const {
  std::uint64_t total = 0;
  for (const auto& partition : partitions_) {
    for (const auto& [code, count] : partition) total += count;
  }
  return total;
}

std::vector<KmerCount> KmerCounter::dump(std::uint32_t min_count) const {
  const std::size_t nparts = partitions_.size();
  // starts[p + 1] first counts partition p's records; the prefix sum then
  // turns starts[p] into the offset where they begin.
  std::vector<std::size_t> starts(nparts + 1, 0);
  std::vector<KmerCount> out;
#pragma omp parallel num_threads(thread_count())
  {
#pragma omp for schedule(dynamic, 1)
    for (std::size_t p = 0; p < nparts; ++p) {
      for (const auto& [code, count] : partitions_[p]) starts[p + 1] += count >= min_count;
    }
#pragma omp single
    {
      std::partial_sum(starts.begin(), starts.end(), starts.begin());
      out.resize(starts.back());
    }
#pragma omp for schedule(dynamic, 1)
    for (std::size_t p = 0; p < nparts; ++p) {
      const auto begin = out.begin() + static_cast<std::ptrdiff_t>(starts[p]);
      auto slot = begin;
      for (const auto& [code, count] : partitions_[p]) {
        if (count >= min_count) *slot++ = {code, count};
      }
      std::sort(begin, slot, [](const auto& a, const auto& b) { return a.code < b.code; });
    }
  }
  return out;
}

void write_dump_binary(const std::string& path, const std::vector<KmerCount>& counts, int k) {
  const auto k32 = static_cast<std::uint32_t>(k);
  const auto n = static_cast<std::uint64_t>(counts.size());
  const auto bytes = [](const auto& value) {
    return std::string_view(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  // Record by record through the 1 MiB buffer: fault-injectable, throws
  // io::IoError, and never holds the whole dump in memory.
  io::BufferedWriter out(path);
  out << bytes(k32) << bytes(n);
  for (const auto& kc : counts) out << bytes(kc.code) << bytes(kc.count);
  out.close();
}

std::vector<KmerCount> read_dump_binary(const std::string& path, int expected_k) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("read_dump_binary: cannot open '" + path + "'");
  constexpr std::uint64_t kHeaderBytes = sizeof(std::uint32_t) + sizeof(std::uint64_t);
  constexpr std::uint64_t kRecordBytes = sizeof(seq::KmerCode) + sizeof(std::uint32_t);
  const std::uint64_t size = io::file_size(path);
  std::uint32_t k32 = 0;
  std::uint64_t n = 0;
  in.read(reinterpret_cast<char*>(&k32), sizeof(k32));
  in.read(reinterpret_cast<char*>(&n), sizeof(n));
  if (!in) {
    throw io::ParseError(io::ParseCategory::kMissingHeader, path, 1, 0,
                         "file is " + std::to_string(size) + " bytes, smaller than the " +
                             std::to_string(kHeaderBytes) + "-byte k-mer dump header");
  }
  if (static_cast<int>(k32) != expected_k) {
    throw io::ParseError(io::ParseCategory::kMissingHeader, path, 1, 0,
                         "k-mer dump has k=" + std::to_string(k32) + ", expected k=" +
                             std::to_string(expected_k));
  }
  // Bound the header's record count by what the file holds before
  // allocating anything for it.
  const std::uint64_t whole_records = (size - kHeaderBytes) / kRecordBytes;
  if (n > whole_records) {
    throw io::ParseError(io::ParseCategory::kTruncatedRecord, path, 1,
                         kHeaderBytes + whole_records * kRecordBytes,
                         "header claims " + std::to_string(n) + " records, file holds " +
                             std::to_string(whole_records));
  }
  // A code above the mask is not a k-mer of this k: Inchworm would decode
  // its low 2k bits into a contig of garbage.
  const seq::KmerCode mask = seq::KmerCodec(expected_k).mask();
  std::vector<KmerCount> out(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    auto& kc = out[i];
    in.read(reinterpret_cast<char*>(&kc.code), sizeof(kc.code));
    in.read(reinterpret_cast<char*>(&kc.count), sizeof(kc.count));
    if (!in) {
      throw io::IoError(io::IoErrorKind::kTransient, "read", path, EIO,
                        "short read of a k-mer dump the size check admitted");
    }
    if (kc.code > mask) {
      throw io::ParseError(io::ParseCategory::kInvalidCharacter, path, 1,
                           kHeaderBytes + i * kRecordBytes,
                           "record " + std::to_string(i) + " holds code " +
                               std::to_string(kc.code) + ", not a k-mer of k=" +
                               std::to_string(expected_k));
    }
  }
  return out;
}

}  // namespace trinity::kmer
