#pragma once
// Deterministic, fast random number generation (xoshiro256**).
//
// Everything stochastic in the library — transcriptome simulation, read
// sampling, error injection, the intentionally nondeterministic tie-breaks
// that model Trinity's "slightly indeterministic output" — draws from this
// generator so that runs are exactly reproducible from a seed.

#include <cstdint>

namespace trinity::util {

/// xoshiro256** 1.0 by Blackman & Vigna; public-domain reference algorithm.
/// Satisfies UniformRandomBitGenerator so it can drive <random>
/// distributions, but the convenience members below avoid libstdc++
/// distribution portability issues for common cases.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four lanes of state from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  /// Next raw 64-bit draw.
  result_type operator()();

  /// Uniform integer in [0, bound) using Lemire's unbiased method.
  /// `bound` must be nonzero.
  std::uint64_t uniform_below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform real in [0, 1).
  double uniform01();

  /// Standard normal via Box–Muller.
  double normal();

  /// Log-normal draw: exp(mu + sigma * N(0,1)). Used for the paper's
  /// "very large dynamic range" of expression levels.
  double lognormal(double mu, double sigma);

  /// Bernoulli trial with probability p.
  bool bernoulli(double p);

  /// Creates an independent child generator (stream split).
  Rng split();

 private:
  std::uint64_t s_[4];
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace trinity::util
