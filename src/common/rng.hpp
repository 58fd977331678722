#pragma once
// Deterministic random number generation.
//
// All stochastic components of the simulator (mobility, sensing noise,
// appearance rendering, scenario scheduling) draw from named sub-streams of a
// single master seed. This makes every experiment reproducible bit-for-bit
// and lets independent modules consume randomness without perturbing each
// other — a property the tests rely on heavily.

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace evm {

/// SplitMix64 — used to expand seeds and to derive sub-stream seeds.
class SplitMix64 {
 public:
  constexpr explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t Next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** — the workhorse generator. Satisfies the
/// UniformRandomBitGenerator requirements so it composes with <random>.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words via SplitMix64 as recommended by the
  /// xoshiro authors.
  explicit Rng(std::uint64_t seed) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return ~static_cast<result_type>(0);
  }

  result_type operator()() noexcept { return Next(); }
  result_type Next() noexcept;

  /// Uniform double in [0, 1).
  double NextDouble() noexcept;

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t NextBelow(std::uint64_t n) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi) noexcept;

  /// Standard normal via Box-Muller (cached second variate).
  double Gaussian() noexcept;

  /// Draws the uniform pairs that `count` successive uncached Gaussian()
  /// calls consume, in their order: per pair u1 in (0, 1) (a zero draw is
  /// redrawn), then u2 in [0, 1).
  void NextBoxMullerUniforms(double* u1, double* u2,
                             std::size_t count) noexcept;

  /// The Box-Muller transform Gaussian() applies to one uniform pair:
  /// returns the variate Gaussian() hands out first (the cosine one) and
  /// stores the one it caches (the sine one) in `second`. Out of line on
  /// purpose: bulk kernels that certify an approximation against it must
  /// call this one definition, compiled without FMA contraction, to
  /// reproduce Gaussian() bit for bit (DESIGN.md §18).
  static double BoxMuller(double u1, double u2, double& second) noexcept;

  /// Normal with the given mean and standard deviation.
  double Gaussian(double mean, double stddev) noexcept;

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p) noexcept;

 private:
  std::uint64_t s_[4];
  double cached_gaussian_{0.0};
  bool has_cached_gaussian_{false};
};

/// Derives a deterministic sub-stream seed from (master seed, stream name,
/// index). Different names or indices give statistically independent streams.
[[nodiscard]] std::uint64_t DeriveSeed(std::uint64_t master,
                                       std::string_view stream_name,
                                       std::uint64_t index = 0) noexcept;

/// Convenience: an Rng seeded by DeriveSeed.
[[nodiscard]] Rng MakeStream(std::uint64_t master, std::string_view name,
                             std::uint64_t index = 0) noexcept;

}  // namespace evm
