#pragma once
// FlatKmerIndex: the hot-path replacement for std::unordered_map<KmerCode, V>.
//
// The Chrysalis kernels the paper measures (GraphFromFasta loops 1-2 and the
// ReadsToTranscripts assignment loop) are dominated by k-mer lookups: one
// multiplicity probe per contig (k-1)-mer in the weld harvest and one
// bundle-map probe per read k-mer in assign_read. A node-based unordered_map
// pays a pointer chase plus an allocation per insert on exactly those paths.
// Extreme-scale assemblers (Georganas et al.; Guidi et al.) replace it with a
// flat open-addressing table, which is what this header provides:
//
//  * keys are the 2-bit-packed KmerCodes the KmerCodec's rolling encoder
//    already produces — no re-hashing of base strings, just a 64-bit mix
//    (splitmix64 finalizer) over the packed word;
//  * open addressing with linear probing over a power-of-two capacity —
//    probes stay in one or two cache lines, no per-node allocation;
//  * reserve-from-count: callers size the table once from the k-mer window
//    count of what they index (sum of len - k + 1 over the sequences, an
//    upper bound on distinct k-mers), so the build loop never rehashes.
//
// The iterator surface is deliberately unordered_map-shaped (find()/end(),
// ->first/->second, range-for with structured bindings) so the Chrysalis
// call sites and their tests read identically against either container —
// flat_index_test pins exact parity on random corpora.
//
// Every k-mer map uses it; a key with a list of items goes through
// KmerPostings (kmer/postings.hpp), so V is always a small trivial value.
// One writer at a time and no reader during a write; concurrent read-only
// lookups are safe. KmerCounter folds each of
// its partitions on exactly one thread, and count_of() is a plain lookup.

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "seq/kmer.hpp"
#include "util/hash.hpp"

namespace trinity::kmer {

/// 64-bit finalizer (splitmix64) applied to the packed k-mer word. Packed
/// codes are extremely regular in their low bits (2-bit bases), so the
/// identity hash a std::unordered_map would often get away with clusters
/// badly under linear probing; full-width mixing keeps probe chains short.
[[nodiscard]] inline std::uint64_t mix_kmer_code(seq::KmerCode code) {
  return util::mix64(code + util::kGoldenGamma);
}

/// Open-addressing k-mer -> V table with linear probing. V must be cheap to
/// move; slots are stored in parallel key/value/occupied arrays, so a probe
/// reads each slot's occupancy byte and key and touches the value array
/// only on a hit.
template <typename V>
class FlatKmerIndex {
 public:
  FlatKmerIndex() = default;
  /// Sizes the table for `expected` distinct keys up front (see reserve()).
  explicit FlatKmerIndex(std::size_t expected) { reserve(expected); }

  /// Ensures capacity for `expected` distinct keys without rehashing. An
  /// upper bound (e.g. the k-mer windows scanned) is fine: capacity is the
  /// smallest power of two p >= 16 with expected < 0.7 p.
  void reserve(std::size_t expected) {
    std::size_t want = 16;
    while (static_cast<double>(expected) >= kMaxLoad * static_cast<double>(want)) want *= 2;
    if (want > keys_.size()) rehash(want);
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Number of slots (a power of two once non-empty).
  [[nodiscard]] std::size_t capacity() const { return keys_.size(); }

  /// Value for `code`, inserting a value-initialized V when absent.
  V& operator[](seq::KmerCode code) {
    grow_if_needed();
    const std::size_t slot = locate(code);
    if (!used_[slot]) {
      used_[slot] = 1;
      keys_[slot] = code;
      values_[slot] = V{};
      ++size_;
    }
    return values_[slot];
  }

  /// Inserts (code, value) when absent; unordered_map-shaped return of
  /// {iterator to the slot, inserted}.
  auto emplace(seq::KmerCode code, V value) {
    grow_if_needed();
    const std::size_t slot = locate(code);
    const bool inserted = !used_[slot];
    if (inserted) {
      used_[slot] = 1;
      keys_[slot] = code;
      values_[slot] = std::move(value);
      ++size_;
    }
    return std::pair{Iterator<false>{this, slot}, inserted};
  }

  // --- unordered_map-shaped iteration ------------------------------------------

  /// What dereferencing an iterator yields: a pair-shaped view of one slot.
  template <typename Ref>
  struct Entry {
    seq::KmerCode first;
    Ref second;
  };

  template <bool Const>
  class Iterator {
    using Owner = std::conditional_t<Const, const FlatKmerIndex, FlatKmerIndex>;
    using Ref = std::conditional_t<Const, const V&, V&>;

   public:
    Iterator(Owner* owner, std::size_t slot) : owner_(owner), slot_(slot) { skip_free(); }

    [[nodiscard]] Entry<Ref> operator*() const {
      return {owner_->keys_[slot_], owner_->values_[slot_]};
    }
    /// Proxy so `it->second` works on the by-value Entry.
    struct Arrow {
      Entry<Ref> entry;
      Entry<Ref>* operator->() { return &entry; }
    };
    [[nodiscard]] Arrow operator->() const { return {**this}; }

    Iterator& operator++() {
      ++slot_;
      skip_free();
      return *this;
    }
    [[nodiscard]] bool operator==(const Iterator& other) const { return slot_ == other.slot_; }
    [[nodiscard]] bool operator!=(const Iterator& other) const { return slot_ != other.slot_; }

   private:
    void skip_free() {
      while (slot_ < owner_->keys_.size() && !owner_->used_[slot_]) ++slot_;
    }
    Owner* owner_;
    std::size_t slot_;
  };

  using iterator = Iterator<false>;
  using const_iterator = Iterator<true>;

  [[nodiscard]] iterator begin() { return {this, 0}; }
  [[nodiscard]] iterator end() { return {this, keys_.size()}; }
  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, keys_.size()}; }

  /// find(): end() when absent, otherwise an iterator whose ->second is the
  /// mapped value — the drop-in for unordered_map::find on the hot paths.
  [[nodiscard]] const_iterator find(seq::KmerCode code) const {
    const std::size_t slot = locate_const(code);
    return {this, slot};
  }
  [[nodiscard]] iterator find(seq::KmerCode code) {
    const std::size_t slot = locate_const(code);
    return {this, slot};
  }

  /// Pointer-returning lookup for the innermost loops (no iterator object).
  [[nodiscard]] const V* lookup(seq::KmerCode code) const {
    const std::size_t slot = locate_const(code);
    return slot < keys_.size() ? &values_[slot] : nullptr;
  }
  [[nodiscard]] V* lookup(seq::KmerCode code) {
    return const_cast<V*>(std::as_const(*this).lookup(code));
  }

 private:
  // Load factor ceiling: linear probing degrades sharply past ~0.8; 0.7
  // keeps expected probe chains around two slots.
  static constexpr double kMaxLoad = 0.7;

  void grow_if_needed() {
    if (keys_.empty()) rehash(16);
    else if (static_cast<double>(size_ + 1) > kMaxLoad * static_cast<double>(keys_.size()))
      rehash(keys_.size() * 2);
  }

  /// Slot of `code` or of the free slot where it belongs (table non-empty).
  [[nodiscard]] std::size_t locate(seq::KmerCode code) const {
    std::size_t slot = mix_kmer_code(code) & mask_;
    // Linear probe; wraps around via the power-of-two mask.
    while (used_[slot] && keys_[slot] != code) slot = (slot + 1) & mask_;
    return slot;
  }

  /// Slot of `code`, or keys_.size() (the end() sentinel) when absent.
  [[nodiscard]] std::size_t locate_const(seq::KmerCode code) const {
    if (keys_.empty()) return 0;  // begin()==end() on an empty table
    const std::size_t slot = locate(code);
    return used_[slot] ? slot : keys_.size();
  }

  void rehash(std::size_t new_capacity) {
    std::vector<seq::KmerCode> old_keys = std::move(keys_);
    std::vector<V> old_values = std::move(values_);
    std::vector<std::uint8_t> old_used = std::move(used_);
    keys_.assign(new_capacity, 0);
    values_.assign(new_capacity, V{});
    used_.assign(new_capacity, 0);
    mask_ = new_capacity - 1;
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (!old_used[i]) continue;
      const std::size_t slot = locate(old_keys[i]);
      used_[slot] = 1;
      keys_[slot] = old_keys[i];
      values_[slot] = std::move(old_values[i]);
    }
  }

  std::vector<seq::KmerCode> keys_;
  std::vector<V> values_;
  std::vector<std::uint8_t> used_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
};

}  // namespace trinity::kmer
