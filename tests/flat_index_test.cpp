// kmer::FlatKmerIndex — the open-addressing replacement for
// std::unordered_map<KmerCode, V> on the Chrysalis hot paths
// (kmer/flat_index.hpp).
//
// Pins exact behavioural parity against unordered_map on random corpora
// (same entries, same values, same lookup results, including misses), the
// linear-probe wraparound at the end of the slot array, growth with and
// without an up-front reserve, and the unordered_map-shaped surface the
// call sites depend on (operator[], emplace, find/end, lookup, range-for
// with structured bindings).
//
// kmer::KmerPostings (kmer/postings.hpp), the CSR k-mer -> items table
// built on it, is pinned the same way against an
// unordered_map<KmerCode, vector<T>> filled in the same order.

#include "kmer/flat_index.hpp"
#include "kmer/postings.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "seq/kmer.hpp"

namespace trinity::kmer {
namespace {

using seq::KmerCode;

TEST(FlatKmerIndex, StartsEmpty) {
  FlatKmerIndex<std::uint32_t> index;
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.find(42), index.end());
  EXPECT_EQ(index.lookup(42), nullptr);
  EXPECT_EQ(index.begin(), index.end());
}

TEST(FlatKmerIndex, OperatorBracketInsertsValueInitialized) {
  FlatKmerIndex<std::uint32_t> index;
  EXPECT_EQ(index[7], 0u);
  ++index[7];
  ++index[7];
  EXPECT_EQ(index.size(), 1u);
  ASSERT_NE(index.lookup(7), nullptr);
  EXPECT_EQ(*index.lookup(7), 2u);
}

TEST(FlatKmerIndex, EmplaceReportsInsertionLikeUnorderedMap) {
  FlatKmerIndex<int> index;
  auto [it1, inserted1] = index.emplace(5, 50);
  EXPECT_TRUE(inserted1);
  EXPECT_EQ(it1->first, 5u);
  EXPECT_EQ(it1->second, 50);
  auto [it2, inserted2] = index.emplace(5, 99);
  EXPECT_FALSE(inserted2);       // existing value untouched, like unordered_map
  EXPECT_EQ(it2->second, 50);
  EXPECT_EQ(index.size(), 1u);
}

TEST(FlatKmerIndex, FindAndMutateThroughIterator) {
  FlatKmerIndex<std::vector<int>> index;  // a non-trivial V
  index[3].push_back(1);
  auto it = index.find(3);
  ASSERT_NE(it, index.end());
  // The find() iterator addresses the live slot; mutations must stick.
  (*it).second.push_back(2);
  EXPECT_EQ(index.lookup(3)->size(), 2u);
}

TEST(FlatKmerIndex, ParityAgainstUnorderedMapOnRandomCorpora) {
  // Keys drawn from the full 64-bit space AND from a dense low-entropy set
  // (packed 2-bit codes are regular in their low bits — the pattern the
  // mixer must spread). Values are occurrence counts, as on the hot paths.
  std::mt19937_64 rng(20260805);
  for (const bool dense : {false, true}) {
    std::vector<KmerCode> keys;
    for (int i = 0; i < 20000; ++i) {
      keys.push_back(dense ? static_cast<KmerCode>(rng() % 4096) * 4 : rng());
    }
    FlatKmerIndex<std::uint32_t> flat;
    std::unordered_map<KmerCode, std::uint32_t> reference;
    for (const KmerCode key : keys) {
      ++flat[key];
      ++reference[key];
    }
    ASSERT_EQ(flat.size(), reference.size());
    for (const auto& [key, count] : reference) {
      const std::uint32_t* hit = flat.lookup(key);
      ASSERT_NE(hit, nullptr) << key;
      EXPECT_EQ(*hit, count) << key;
    }
    // Iteration covers exactly the reference entries.
    std::size_t seen = 0;
    for (const auto& [key, count] : flat) {
      const auto it = reference.find(key);
      ASSERT_NE(it, reference.end()) << key;
      EXPECT_EQ(count, it->second);
      ++seen;
    }
    EXPECT_EQ(seen, reference.size());
    // Misses agree too.
    for (int i = 0; i < 2000; ++i) {
      const KmerCode probe = rng();
      EXPECT_EQ(flat.lookup(probe) != nullptr, reference.count(probe) != 0) << probe;
    }
  }
}

TEST(FlatKmerIndex, ProbeChainsWrapAroundTheSlotArray) {
  // Fill a table past half full so some chains necessarily cross the
  // end of the power-of-two array; every key must remain reachable.
  FlatKmerIndex<std::uint32_t> index;
  index.reserve(64);
  const std::size_t capacity = index.capacity();
  std::vector<KmerCode> keys;
  // Adversarial keys: consecutive integers whose mixed hashes scatter, so
  // with enough of them some land in the final slots and wrap.
  for (KmerCode k = 0; keys.size() < (capacity * 6) / 10; ++k) {
    keys.push_back(k);
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    index[keys[i]] = static_cast<std::uint32_t>(i);
  }
  EXPECT_EQ(index.capacity(), capacity) << "reserve() sizing must hold during the build";
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_NE(index.lookup(keys[i]), nullptr) << keys[i];
    EXPECT_EQ(*index.lookup(keys[i]), static_cast<std::uint32_t>(i));
  }
}

TEST(FlatKmerIndex, GrowsWithoutReserveAndKeepsEntries) {
  FlatKmerIndex<std::uint32_t> index;  // no reserve: must rehash repeatedly
  const int n = 5000;
  for (int i = 0; i < n; ++i) index[static_cast<KmerCode>(i) * 2654435761u] = i;
  EXPECT_EQ(index.size(), static_cast<std::size_t>(n));
  EXPECT_LE(static_cast<double>(index.size()), 0.7 * static_cast<double>(index.capacity()));
  for (int i = 0; i < n; ++i) {
    const auto* hit = index.lookup(static_cast<KmerCode>(i) * 2654435761u);
    ASSERT_NE(hit, nullptr) << i;
    EXPECT_EQ(*hit, static_cast<std::uint32_t>(i));
  }
}

TEST(FlatKmerIndex, ReserveFromCountPreventsRehash) {
  // total-bases-style upper bound: reserving for n keys then inserting n
  // must never move the slot array (capacity stays put).
  FlatKmerIndex<std::uint32_t> index(10000);
  const std::size_t capacity = index.capacity();
  EXPECT_GE(static_cast<double>(capacity) * 0.7, 10000.0);
  for (int i = 0; i < 10000; ++i) ++index[static_cast<KmerCode>(i) * 0x9e3779b9u];
  EXPECT_EQ(index.capacity(), capacity);
  // A smaller re-reserve is a no-op; shrinking never happens.
  index.reserve(16);
  EXPECT_EQ(index.capacity(), capacity);
}

TEST(FlatKmerIndex, ConstIterationAndFind) {
  FlatKmerIndex<int> index;
  index[1] = 10;
  index[2] = 20;
  const FlatKmerIndex<int>& view = index;
  EXPECT_NE(view.find(1), view.end());
  EXPECT_EQ(view.find(3), view.end());
  int sum = 0;
  for (const auto& [key, value] : view) sum += value;
  EXPECT_EQ(sum, 30);
}


// --- KmerPostings ------------------------------------------------------------------

struct Hit {
  std::int32_t seq;
  std::uint32_t pos;
  bool operator==(const Hit& other) const { return seq == other.seq && pos == other.pos; }
};

std::string random_bases(std::mt19937_64& rng, std::size_t n) {
  static const char kBases[] = "ACGT";
  std::string out(n, 'A');
  for (auto& c : out) c = kBases[rng() % 4];
  return out;
}

TEST(KmerPostings, ParityAgainstUnorderedMapOfVectors) {
  // Every window of a random corpus posts (sequence, position); the table
  // must hand back exactly the reference's vector for every key, in the
  // order the walk emitted them. k = 1 makes four keys with huge spans;
  // k = 32 uses the whole 64-bit word, and a run of T plants the
  // all-ones code.
  std::mt19937_64 rng(20261018);
  for (const int k : {1, 7, 16, 32}) {
    const seq::KmerCodec codec(k);
    std::vector<std::string> corpus;
    for (int i = 0; i < 60; ++i) corpus.push_back(random_bases(rng, 50 + rng() % 200));
    corpus.push_back(std::string(40, 'T'));
    corpus.push_back(corpus.front());  // every key of one sequence twice

    const auto walk = [&](auto&& emit) {
      for (std::size_t s = 0; s < corpus.size(); ++s) {
        codec.for_each(corpus[s], [&](const seq::KmerCodec::Window& w) {
          emit(w.code, Hit{static_cast<std::int32_t>(s), static_cast<std::uint32_t>(w.position)});
        });
      }
    };
    const auto postings = KmerPostings<Hit>::build(walk);
    std::unordered_map<KmerCode, std::vector<Hit>> reference;
    std::size_t total = 0;
    walk([&](KmerCode code, const Hit& hit) {
      reference[code].push_back(hit);
      ++total;
    });

    std::size_t found = 0;
    for (const auto& [code, hits] : reference) {
      const auto span = postings.lookup(code);
      ASSERT_EQ(span.size(), hits.size()) << "k=" << k << " code " << code;
      EXPECT_TRUE(std::equal(span.begin(), span.end(), hits.begin())) << "k=" << k;
      found += span.size();
    }
    EXPECT_EQ(found, total) << "k=" << k;
    EXPECT_EQ(postings.lookup(codec.mask()).size(), reference.at(codec.mask()).size());
    for (int i = 0; i < 500; ++i) {
      const KmerCode probe = rng() & codec.mask();
      EXPECT_EQ(postings.lookup(probe).size(),
                reference.count(probe) != 0 ? reference.at(probe).size() : 0u);
    }
  }
}

TEST(KmerPostings, EmptyTableFindsNothing) {
  const KmerPostings<std::int32_t> unbuilt;
  const auto built = KmerPostings<std::int32_t>::build([](auto&&) {});
  for (const auto* table : {&unbuilt, &built}) {
    EXPECT_TRUE(table->lookup(0).empty());
    EXPECT_TRUE(table->lookup(1).empty());
    EXPECT_TRUE(table->lookup(~KmerCode{0}).empty());
  }
}

}  // namespace
}  // namespace trinity::kmer
