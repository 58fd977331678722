#include "common/rng.hpp"

#include <cmath>
#include <numbers>

namespace evm {
namespace {

constexpr std::uint64_t Rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

// FNV-1a over the stream name, mixed with the master seed and index.
constexpr std::uint64_t Fnv1a(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  SplitMix64 sm(seed);
  for (auto& w : s_) w = sm.Next();
}

Rng::result_type Rng::Next() noexcept {
  const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() noexcept {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * NextDouble();
}

std::uint64_t Rng::NextBelow(std::uint64_t n) noexcept {
  // Lemire's nearly-divisionless bounded generation; bias is negligible for
  // simulation purposes and rejected for small n.
  std::uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = -n % n;
    while (lo < threshold) {
      x = Next();
      m = static_cast<__uint128_t>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::UniformInt(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(NextBelow(span));
}

double Rng::Gaussian() noexcept {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = 0.0;
  double u2 = 0.0;
  NextBoxMullerUniforms(&u1, &u2, 1);
  has_cached_gaussian_ = true;
  return BoxMuller(u1, u2, cached_gaussian_);
}

void Rng::NextBoxMullerUniforms(double* u1, double* u2,
                                std::size_t count) noexcept {
  for (std::size_t i = 0; i < count; ++i) {
    u1[i] = NextDouble();
    while (u1[i] <= 0.0) u1[i] = NextDouble();
    u2[i] = NextDouble();
  }
}

double Rng::BoxMuller(double u1, double u2, double& second) noexcept {
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  second = r * std::sin(theta);
  return r * std::cos(theta);
}

double Rng::Gaussian(double mean, double stddev) noexcept {
  return mean + stddev * Gaussian();
}

bool Rng::Bernoulli(double p) noexcept { return NextDouble() < p; }

std::uint64_t DeriveSeed(std::uint64_t master, std::string_view stream_name,
                         std::uint64_t index) noexcept {
  SplitMix64 sm(master ^ Fnv1a(stream_name) ^ (index * 0x9e3779b97f4a7c15ULL));
  sm.Next();
  return sm.Next();
}

Rng MakeStream(std::uint64_t master, std::string_view name,
               std::uint64_t index) noexcept {
  return Rng(DeriveSeed(master, name, index));
}

}  // namespace evm
