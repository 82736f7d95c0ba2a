#include "seq/kmer.hpp"

#include <algorithm>
#include <stdexcept>

namespace trinity::seq {

KmerCodec::KmerCodec(int k) : k_(k) {
  if (k < 1 || k > 32) throw std::invalid_argument("KmerCodec: k must be in [1, 32]");
  mask_ = k == 32 ? ~KmerCode{0} : ((KmerCode{1} << (2 * k)) - 1);
}

std::optional<KmerCode> KmerCodec::encode(std::string_view s) const {
  if (s.size() < static_cast<std::size_t>(k_)) return std::nullopt;
  KmerCode code = 0;
  for (int i = 0; i < k_; ++i) {
    const std::uint8_t b = base_to_code(s[static_cast<std::size_t>(i)]);
    if (b == kInvalidBase) return std::nullopt;
    code = (code << 2) | b;
  }
  return code;
}

std::string KmerCodec::decode(KmerCode code) const {
  std::string out(static_cast<std::size_t>(k_), 'A');
  for (int i = k_ - 1; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = code_to_base(static_cast<std::uint8_t>(code & 3u));
    code >>= 2;
  }
  return out;
}

std::vector<KmerCodec::Occurrence> KmerCodec::extract(std::string_view s) const {
  std::vector<Occurrence> out;
  out.reserve(window_count(s));
  for_each(s, [&](const Window& w) { out.push_back({w.code, w.position}); });
  return out;
}

std::vector<KmerCode> KmerCodec::distinct_canonical(std::string_view s) const {
  std::vector<KmerCode> codes;
  codes.reserve(window_count(s));
  for_each(s, [&](const Window& w) { codes.push_back(w.canonical()); });
  std::sort(codes.begin(), codes.end());
  codes.erase(std::unique(codes.begin(), codes.end()), codes.end());
  return codes;
}

}  // namespace trinity::seq
