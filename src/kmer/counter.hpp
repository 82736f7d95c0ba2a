#pragma once
// KmerCounter: the Jellyfish substitute.
//
// In the Trinity workflow, `jellyfish count` + `jellyfish dump` produce the
// k-mer/count stream that Inchworm consumes. This module reproduces that
// role with HipMer-style partition-then-build counting over 256 hash
// partitions, each a FlatKmerIndex: per block of reads, threads append
// codes to per-thread, per-partition buffers, then each partition is folded
// by exactly one thread. No locks; the block size bounds the buffers. A
// binary dump format and its loader complete it. Counts are over canonical
// k-mers (min of a k-mer and its reverse complement); CounterOptions can
// switch that off to count literal strands.
//
// count_solid keeps the singletons, two thirds of the distinct k-mers of
// an RNA-seq read set and dropped by every consumer at the default
// thresholds, out of the tables altogether. It runs the same block walk
// twice (HipMer's Bloom-filter first pass): pass 1 folds each code into a
// per-partition Bloom filter and gives a code a table key only when the
// filter has already seen it; pass 2 counts exactly over those keys, and
// keys below the threshold (Bloom false positives among them, whose count
// ends at 1) are dropped.

#include <cstdint>
#include <string>
#include <vector>

#include "kmer/flat_index.hpp"
#include "seq/kmer.hpp"
#include "seq/sequence.hpp"

namespace trinity::kmer {

/// One dumped k-mer with its abundance.
struct KmerCount {
  seq::KmerCode code = 0;
  std::uint32_t count = 0;
};

/// Counting options.
struct CounterOptions {
  int k = 25;                 ///< Trinity's default k-mer size
  bool canonical = true;      ///< count strand-neutral (min of kmer, revcomp)
  int num_threads = 0;        ///< 0 = OpenMP default
};

/// Parallel k-mer counter.
class KmerCounter {
 public:
  explicit KmerCounter(CounterOptions options);

  /// Adds every k-mer of every sequence with num_threads threads; callable
  /// repeatedly (counts accumulate). The result does not depend on the
  /// thread count. Not safe to call concurrently with any other method.
  void add_sequences(const std::vector<seq::Sequence>& seqs);

  /// Replaces the contents with the k-mers of `seqs` that occur at least
  /// `min_count` times, at their exact counts: afterwards every query and
  /// dump() equal those of a fresh counter after add_sequences(seqs) and
  /// then dump(min_count). A min_count of 0 or 1 is that plain count. The
  /// result does not depend on the thread count.
  void count_solid(const std::vector<seq::Sequence>& seqs, std::uint32_t min_count);

  /// Merges pre-counted (k-mer, count) records — rebuilding a counter from
  /// a dump file, e.g. when a checkpointed pipeline resumes past its
  /// counting stage. Codes are taken as stored (a canonical counter's dump
  /// already holds canonical codes).
  void add_counts(const std::vector<KmerCount>& counts);

  /// Count of a specific k-mer (canonicalized when the counter is
  /// canonical); 0 when absent.
  ///
  /// Lock-free: safe to call concurrently with other lookups, but NOT
  /// concurrently with add_sequences/add_counts. The pipeline's phases
  /// respect this (counting completes before Chrysalis starts querying);
  /// the weld-support checks issue tens of lookups per candidate across
  /// every rank.
  [[nodiscard]] std::uint32_t count_of(seq::KmerCode code) const;

  /// Number of distinct k-mers seen.
  [[nodiscard]] std::size_t distinct() const;

  /// Sum of all counts (total k-mer occurrences).
  [[nodiscard]] std::uint64_t total() const;

  /// Extracts all (k-mer, count) pairs with count >= min_count. The order
  /// depends only on the k-mer set: partitions in index order, codes
  /// ascending within each partition.
  [[nodiscard]] std::vector<KmerCount> dump(std::uint32_t min_count = 1) const;

 private:
  static constexpr int kPartitionBits = 8;  ///< 256 partitions

  [[nodiscard]] static std::size_t partition_of(seq::KmerCode code) {
    return static_cast<std::size_t>(mix_kmer_code(code) >> (64 - kPartitionBits));
  }
  [[nodiscard]] int thread_count() const;

  /// The block walk behind add_sequences and count_solid: for each block
  /// of reads, buffers the block's codes per thread and partition, then
  /// calls fold(p, codes) for every partition p and thread buffer, with
  /// each partition folded by exactly one thread.
  template <typename Fold>
  void walk_blocks(const std::vector<seq::Sequence>& seqs, const Fold& fold);

  CounterOptions options_;
  seq::KmerCodec codec_;
  std::vector<FlatKmerIndex<std::uint32_t>> partitions_;
};

/// Binary dump: u32 k, u64 record count, then (u64 code, u32 count) pairs.
void write_dump_binary(const std::string& path, const std::vector<KmerCount>& counts, int k);

/// Reads the binary dump. Throws io::ParseError on a short header or a k
/// mismatch (kMissingHeader), when the header's record count exceeds
/// what the file holds (kTruncatedRecord, byte_offset = first incomplete
/// record), and on a record whose code is not a k-mer of that k
/// (kInvalidCharacter, byte_offset = the record); nothing is allocated for
/// records the file does not contain.
std::vector<KmerCount> read_dump_binary(const std::string& path, int expected_k);

}  // namespace trinity::kmer
