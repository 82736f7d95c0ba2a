#include "inchworm/inchworm.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "seq/dna.hpp"
#include "util/hash.hpp"

namespace trinity::inchworm {

Inchworm::Inchworm(InchwormOptions options) : options_(options), codec_(options.k) {}

void Inchworm::load_counts(const std::vector<kmer::KmerCount>& counts) {
  const auto survivors = std::count_if(counts.begin(), counts.end(), [&](const auto& kc) {
    return kc.count >= options_.min_kmer_count;  // error prune
  });
  dict_ = kmer::FlatKmerIndex<std::uint32_t>(static_cast<std::size_t>(survivors));
  for (const auto& kc : counts) {
    if (kc.count < options_.min_kmer_count) continue;
    std::uint32_t& count = dict_[kc.code];
    if (kc.count >= kUsed - count) {
      throw std::overflow_error("Inchworm: k-mer " + std::to_string(kc.code) +
                                " reaches a count of 2^31, beyond the dictionary's 31 bits");
    }
    count += kc.count;
  }
}

std::uint32_t Inchworm::available_count(seq::KmerCode literal) const {
  const std::uint32_t* word = dict_.lookup(codec_.canonical(literal));
  // A used word (top bit set) is no longer available.
  return word == nullptr || (*word & kUsed) != 0 ? 0 : *word;
}

void Inchworm::mark_used(seq::KmerCode literal) {
  if (std::uint32_t* word = dict_.lookup(codec_.canonical(literal))) *word |= kUsed;
}

namespace {
// splitmix64 mix of (code, salt) for salted tie-breaking: a different salt
// permutes equal-abundance choices, modeling Trinity's run-to-run
// nondeterminism. Salt 0 never reaches it.
std::uint64_t mix_tie(seq::KmerCode code, std::uint64_t salt) {
  return util::mix64(code ^ (salt * util::kGoldenGamma));
}
}  // namespace

void Inchworm::extend_right(std::string& contig) {
  const auto k = static_cast<std::size_t>(options_.k);
  auto tail = codec_.encode(std::string_view(contig).substr(contig.size() - k));
  if (!tail) throw std::logic_error("Inchworm: contig tail is not a valid k-mer");
  seq::KmerCode current = *tail;
  const std::uint64_t salt = options_.tie_break_seed;
  for (;;) {
    std::uint32_t best_count = 0;
    std::uint8_t best_base = 0;
    seq::KmerCode best_code = 0;
    for (std::uint8_t b = 0; b < 4; ++b) {
      const seq::KmerCode candidate = codec_.roll_right(current, b);
      const std::uint32_t c = available_count(candidate);
      // Equal-abundance extension ties are where Trinity's run-to-run
      // nondeterminism lives; a nonzero salt permutes the choice.
      const bool wins =
          c > best_count ||
          (c == best_count && c > 0 && salt != 0 &&
           mix_tie(candidate, salt) < mix_tie(best_code, salt));
      if (wins) {
        best_count = c;
        best_base = b;
        best_code = candidate;
      }
    }
    if (best_count == 0) return;  // no unused supported extension
    contig.push_back(seq::code_to_base(best_base));
    mark_used(best_code);  // consuming immediately also breaks cycles
    current = best_code;
  }
}

std::vector<seq::Sequence> Inchworm::assemble() {
  stats_ = InchwormStats{};
  stats_.dictionary_size = dict_.size();

  // Seed order: decreasing abundance, code as a deterministic tiebreak.
  std::vector<std::pair<seq::KmerCode, std::uint32_t>> seeds;
  seeds.reserve(dict_.size());
  for (const auto& [code, count] : dict_) seeds.emplace_back(code, count);
  const std::uint64_t salt = options_.tie_break_seed;
  auto tie_key = [salt](seq::KmerCode code) {
    return salt == 0 ? static_cast<std::uint64_t>(code) : mix_tie(code, salt);
  };
  std::sort(seeds.begin(), seeds.end(), [&](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return tie_key(a.first) < tie_key(b.first);
  });

  std::vector<seq::Sequence> contigs;
  for (const auto& [code, count] : seeds) {
    std::uint32_t& word = *dict_.lookup(code);
    if ((word & kUsed) != 0) continue;
    word |= kUsed;

    std::string contig = codec_.decode(code);
    extend_right(contig);
    // Left extension = right extension of the reverse complement.
    contig = seq::reverse_complement(contig);
    extend_right(contig);
    contig = seq::reverse_complement(contig);

    if (contig.size() < options_.min_contig_length) {
      ++stats_.contigs_discarded;
      continue;
    }
    seq::Sequence rec;
    rec.name = "iworm_" + std::to_string(contigs.size());
    rec.bases = std::move(contig);
    stats_.bases_assembled += rec.bases.size();
    contigs.push_back(std::move(rec));
  }
  stats_.contigs_reported = contigs.size();
  return contigs;
}

}  // namespace trinity::inchworm
