#include "seq/dna.hpp"

namespace trinity::seq {

std::string reverse_complement(std::string_view s) {
  std::string out(s.size(), 'N');
  for (std::size_t i = 0; i < s.size(); ++i) {
    out[s.size() - 1 - i] = complement(s[i]);
  }
  return out;
}

}  // namespace trinity::seq
