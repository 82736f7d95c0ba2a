#pragma once
// KmerPostings: k-mer -> contiguous span of items, for the indexes whose
// value is a list (the aligner's seed hits, GraphFromFasta's weld cores,
// the validation prefilter's targets).
//
// A FlatKmerIndex<std::vector<T>> pays a heap vector per distinct key and,
// reserved from bases, a slot array sized to the input rather than to its
// keys. KmerPostings stores CSR instead: one FlatKmerIndex of {begin, end}
// spans over one flat item array. build() runs the caller's walk twice —
// once to count each key's items, once to fill them — so the key table
// grows to the distinct keys and the item array is allocated exactly once.
// lookup() returns a key's items in the order the walk emitted them.

#include <cstdint>
#include <span>
#include <vector>

#include "kmer/flat_index.hpp"
#include "seq/kmer.hpp"

namespace trinity::kmer {

template <typename T>
class KmerPostings {
 public:
  KmerPostings() = default;

  /// Builds the table from `walk(emit)`, which must call emit(code, item)
  /// for every posting and emit the same sequence on both of its calls.
  template <typename Walk>
  [[nodiscard]] static KmerPostings build(Walk&& walk) {
    KmerPostings out;
    std::size_t total = 0;
    walk([&](seq::KmerCode code, const T&) {
      ++out.spans_[code].end;
      ++total;
    });
    std::uint32_t offset = 0;
    for (auto&& [code, span] : out.spans_) {
      const std::uint32_t n = span.end;
      span = {offset, offset};
      offset += n;
    }
    out.items_.resize(total);
    walk([&](seq::KmerCode code, const T& item) {
      out.items_[out.spans_.find(code)->second.end++] = item;
    });
    return out;
  }

  /// Items posted under `code`, in emission order; empty when absent.
  [[nodiscard]] std::span<const T> lookup(seq::KmerCode code) const {
    const Span* span = spans_.lookup(code);
    if (span == nullptr) return {};
    return {items_.data() + span->begin, span->end - span->begin};
  }

 private:
  /// A key's items: items_[begin, end).
  struct Span {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };
  FlatKmerIndex<Span> spans_;
  std::vector<T> items_;
};

}  // namespace trinity::kmer
