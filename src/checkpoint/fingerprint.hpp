#pragma once
// FingerprintBuilder: order-sensitive digest of named configuration fields.
//
// A manifest record is only reusable when the options that produced the
// recorded artifacts still hold. The pipeline folds every output-affecting
// option (and a digest of the input reads) into one 64-bit fingerprint;
// scheduling-only knobs (rank counts, thread counts, cost models) are
// deliberately left out, because the paper's central equivalence claim —
// verified by the pipeline tests — is that they never change results, so
// a crashed 16-rank run may legitimately resume on 8 ranks.

#include <cstdint>
#include <string_view>

#include "util/hash.hpp"

namespace trinity::checkpoint {

/// Accumulates (name, value) pairs into a util::ContentHash digest. Both the field
/// name and the order of add() calls are significant: renaming or
/// reordering a field changes the fingerprint, which is the desired
/// invalidation behavior when an option's meaning changes.
class FingerprintBuilder {
 public:
  FingerprintBuilder& add(std::string_view name, std::string_view value);
  FingerprintBuilder& add(std::string_view name, std::uint64_t value);
  FingerprintBuilder& add(std::string_view name, std::int64_t value);
  FingerprintBuilder& add(std::string_view name, bool value);
  /// Doubles are folded via their bit pattern, not a decimal rendering, so
  /// the fingerprint is exact.
  FingerprintBuilder& add(std::string_view name, double value);

  /// The digest of everything added so far (a running value: more fields
  /// can be folded in afterwards).
  [[nodiscard]] std::uint64_t digest() const { return state_.digest(); }

 private:
  FingerprintBuilder& fold(std::string_view name, const void* data, std::size_t len);

  util::ContentHash state_;
};

}  // namespace trinity::checkpoint
