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

KmerCode KmerCodec::reverse_complement(KmerCode code) const {
  KmerCode rc = 0;
  for (int i = 0; i < k_; ++i) {
    const std::uint8_t b = static_cast<std::uint8_t>(code & 3u);
    rc = (rc << 2) | (b ^ 3u);  // complement of a 2-bit code is its bitwise NOT in 2 bits
    code >>= 2;
  }
  return rc;
}

std::vector<KmerCodec::Occurrence> KmerCodec::extract(std::string_view s) const {
  std::vector<Occurrence> out;
  if (s.size() < static_cast<std::size_t>(k_)) return out;
  out.reserve(s.size() - static_cast<std::size_t>(k_) + 1);
  KmerCode code = 0;
  int valid = 0;  // number of consecutive valid bases ending at position i
  for (std::size_t i = 0; i < s.size(); ++i) {
    const std::uint8_t b = base_to_code(s[i]);
    if (b == kInvalidBase) {
      valid = 0;
      code = 0;
      continue;
    }
    code = ((code << 2) | b) & mask_;
    if (++valid >= k_) {
      out.push_back({code, i + 1 - static_cast<std::size_t>(k_)});
    }
  }
  return out;
}

std::vector<KmerCodec::Occurrence> KmerCodec::extract_canonical(std::string_view s) const {
  auto occ = extract(s);
  for (auto& o : occ) o.code = canonical(o.code);
  return occ;
}

std::vector<KmerCode> KmerCodec::distinct_canonical(std::string_view s) const {
  std::vector<KmerCode> codes;
  for (const auto& o : extract(s)) codes.push_back(canonical(o.code));
  std::sort(codes.begin(), codes.end());
  codes.erase(std::unique(codes.begin(), codes.end()), codes.end());
  return codes;
}

}  // namespace trinity::seq
