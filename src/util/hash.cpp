#include "util/hash.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace trinity::util {

namespace {

/// One xxHash64 round of each lane over the 32-byte stripe at `p`.
void mix_stripe(std::uint64_t (&lanes)[4], const unsigned char* p) {
  constexpr std::uint64_t kP1 = 0x9e3779b185ebca87ULL;
  constexpr std::uint64_t kP2 = 0xc2b2ae3d27d4eb4fULL;
  std::uint64_t words[4];
  std::memcpy(words, p, sizeof(words));
  for (int i = 0; i < 4; ++i) lanes[i] = std::rotl(lanes[i] + words[i] * kP2, 31) * kP1;
}

}  // namespace

ContentHash& ContentHash::update(const void* data, std::size_t len) {
  if (len == 0) return *this;  // data may be null then
  const auto* p = static_cast<const unsigned char*>(data);
  length_ += len;
  if (pending_len_ > 0) {
    const std::size_t take = std::min(len, kStripe - pending_len_);
    std::memcpy(pending_ + pending_len_, p, take);
    pending_len_ += take;
    p += take;
    len -= take;
    if (pending_len_ < kStripe) return *this;
    mix_stripe(lanes_, pending_);
    pending_len_ = 0;
  }
  for (; len >= kStripe; p += kStripe, len -= kStripe) mix_stripe(lanes_, p);
  std::memcpy(pending_, p, len);
  pending_len_ = len;
  return *this;
}

std::uint64_t ContentHash::digest() const {
  std::uint64_t lanes[4] = {lanes_[0], lanes_[1], lanes_[2], lanes_[3]};
  if (pending_len_ > 0) {
    unsigned char stripe[kStripe] = {};  // the zero-padded final stripe
    std::memcpy(stripe, pending_, pending_len_);
    mix_stripe(lanes, stripe);
  }
  std::uint64_t h = length_;
  for (const std::uint64_t lane : lanes) h = mix64(h ^ lane);
  return h;
}

std::uint64_t hash_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("hash_file: cannot open " + path);
  ContentHash hash;
  char buf[1 << 16];
  while (in) {
    in.read(buf, sizeof(buf));
    hash.update(buf, static_cast<std::size_t>(in.gcount()));
  }
  if (in.bad()) throw std::runtime_error("hash_file: read failed on " + path);
  return hash.digest();
}

}  // namespace trinity::util
