#pragma once
// Hash helpers shared by the MapReduce partitioner, container keys and the
// multi-process engine's pinned name hash.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

namespace evm {

/// Boost-style hash combiner.
inline void HashCombine(std::size_t& seed, std::size_t value) noexcept {
  seed ^= value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
}

/// 64-bit finalizer (MurmurHash3 fmix64) — used by the shuffle partitioner so
/// that consecutive integer keys spread uniformly across reducers.
constexpr std::uint64_t Mix64(std::uint64_t k) noexcept {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdULL;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ULL;
  k ^= k >> 33;
  return k;
}

/// Hash of a vector of 64-bit values (order-sensitive).
inline std::size_t HashU64Vector(const std::vector<std::uint64_t>& v) noexcept {
  std::size_t seed = 0x2545f4914f6cdd1dULL;
  for (auto x : v) HashCombine(seed, static_cast<std::size_t>(Mix64(x)));
  return seed;
}

/// Stable 64-bit hash of a byte string: FNV-1a over the bytes, folded
/// through Mix64. std::hash would work on any one platform but is not pinned
/// across standard libraries; the distributed engine's first-attempt
/// placement, its worker kill schedule and the workers' dataset cache keys
/// must be, so a given seed means the same thing on every build.
constexpr std::uint64_t HashName(std::string_view name) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return Mix64(h);
}

}  // namespace evm
