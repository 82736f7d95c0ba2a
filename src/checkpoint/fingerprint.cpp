#include "checkpoint/fingerprint.hpp"

#include <cstring>

namespace trinity::checkpoint {

FingerprintBuilder& FingerprintBuilder::fold(std::string_view name, const void* data,
                                             std::size_t len) {
  // Field names are part of the digest, so swapping two same-typed values
  // between fields changes the fingerprint; separators keep (ab, c) and
  // (a, bc) distinct.
  state_.update(name).update("=").update(data, len).update(";");
  return *this;
}

FingerprintBuilder& FingerprintBuilder::add(std::string_view name, std::string_view value) {
  return fold(name, value.data(), value.size());
}

FingerprintBuilder& FingerprintBuilder::add(std::string_view name, std::uint64_t value) {
  return fold(name, &value, sizeof(value));
}

FingerprintBuilder& FingerprintBuilder::add(std::string_view name, std::int64_t value) {
  return fold(name, &value, sizeof(value));
}

FingerprintBuilder& FingerprintBuilder::add(std::string_view name, bool value) {
  const unsigned char byte = value ? 1 : 0;
  return fold(name, &byte, 1);
}

FingerprintBuilder& FingerprintBuilder::add(std::string_view name, double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return fold(name, &bits, sizeof(bits));
}

}  // namespace trinity::checkpoint
