#include "vsense/kernels/observation.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <numbers>

#include "common/error.hpp"
#include "common/rng.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace evm::kernels {
namespace {

// --- the shared algorithm ------------------------------------------------------
//
// log u1: split u1 = 2^e * m with m in [sqrt(1/2), sqrt(2)], then
// ln m = 2 atanh(s) = 2 (s + s^3/3 + s^5/5 + ...), s = (m - 1) / (m + 1).
// |s| <= 0.1716, so the series through s^21 truncates below 3e-17 relative.
// sincos(2 pi u2): the quadrant q = round(4 u2) is split off in u-space,
// where t = u2 - q/4 in [-1/8, 1/8] is exact; x = 2 pi t in [-pi/4, pi/4]
// then takes Taylor polynomials through x^17 (sin) and x^16 (cos), whose
// next terms are below 1e-19 and 2e-18. Every variant runs these steps; only
// rounding (FMA or not) differs, which the certificate's delta absorbs.

constexpr double kTwoPi = 2.0 * std::numbers::pi;
constexpr double kLn2 = std::numbers::ln2;
constexpr double kSqrt2 = std::numbers::sqrt2;
constexpr std::uint64_t kMantissaMask = 0x000fffffffffffffULL;
constexpr std::uint64_t kOneBits = 0x3ff0000000000000ULL;

constexpr double InvFactorial(int n) {
  double f = 1.0;
  for (int i = 2; i <= n; ++i) f *= i;
  return 1.0 / f;
}

// Horner order, highest power first.
constexpr double kAtanh[] = {1.0 / 21, 1.0 / 19, 1.0 / 17, 1.0 / 15, 1.0 / 13,
                             1.0 / 11, 1.0 / 9,  1.0 / 7,  1.0 / 5,  1.0 / 3};
// sin x = x + x z P(z), z = x^2.
constexpr double kSin[] = {InvFactorial(17), -InvFactorial(15),
                           InvFactorial(13), -InvFactorial(11),
                           InvFactorial(9),  -InvFactorial(7),
                           InvFactorial(5),  -InvFactorial(3)};
// cos x = 1 + z Q(z).
constexpr double kCos[] = {InvFactorial(16), -InvFactorial(14),
                           InvFactorial(12), -InvFactorial(10),
                           InvFactorial(8),  -InvFactorial(6),
                           InvFactorial(4),  -InvFactorial(2)};

/// Relative weight of the rounding term in the certificate's margin: the
/// exact and approximate evaluations of v plus the v -/+ M additions round
/// at most 8 times, each by <= 2^-53 of |bg| + |texture| + |sensor|, so
/// 2^-40 of that sum leaves a factor 1000 of slack.
constexpr double kRoundingScale = 0x1p-40;

template <std::size_t N>
double HornerScalar(double z, const double (&c)[N]) {
  double p = c[0];
  for (std::size_t i = 1; i < N; ++i) p = p * z + c[i];
  return p;
}

double LogScalar(double u) {
  const auto bits = std::bit_cast<std::uint64_t>(u);
  double e = static_cast<double>(static_cast<std::int64_t>(bits >> 52) - 1023);
  double m = std::bit_cast<double>((bits & kMantissaMask) | kOneBits);
  if (m > kSqrt2) {
    m *= 0.5;
    e += 1.0;
  }
  const double s = (m - 1.0) / (m + 1.0);
  const double z = s * s;
  const double two_s = s + s;
  return e * kLn2 + (two_s + two_s * z * HornerScalar(z, kAtanh));
}

void BoxMullerScalarOne(double u1, double u2, double& first, double& second) {
  const double r = std::sqrt(-2.0 * LogScalar(u1));
  const double q = std::nearbyint(4.0 * u2);
  const double x = (u2 - 0.25 * q) * kTwoPi;
  const double z = x * x;
  const double sin_x = x + x * z * HornerScalar(z, kSin);
  const double cos_x = 1.0 + z * HornerScalar(z, kCos);
  const auto quadrant = static_cast<int>(q);
  // theta = q pi/2 + x: odd quadrants swap sin and cos; the sign flips
  // follow cos(theta) < 0 for q in {1, 2} and sin(theta) < 0 for q in {2, 3}.
  const bool swap = (quadrant & 1) != 0;
  const double c = swap ? sin_x : cos_x;
  const double s = swap ? cos_x : sin_x;
  first = r * (((quadrant + 1) & 2) != 0 ? -c : c);
  second = r * ((quadrant & 2) != 0 ? -s : s);
}

void BoxMullerScalar(const double* u1, const double* u2, std::size_t n,
                     double* first, double* second) {
  for (std::size_t i = 0; i < n; ++i) {
    BoxMullerScalarOne(u1[i], u2[i], first[i], second[i]);
  }
}

/// Per-row constants of the approximate shader.
struct ShadeConsts {
  double bg[3];       // base[c] * gain
  double bg_max;      // max |bg[c]|
  double amp;
  double noise;
  double fixed_margin;  // delta * (|amp| + |noise|)
};

ShadeConsts MakeShadeConsts(const RowShade& shade, double delta) {
  ShadeConsts k{};
  for (std::size_t c = 0; c < 3; ++c) {
    k.bg[c] = shade.base[c] * shade.gain;
    k.bg_max = std::max(k.bg_max, std::fabs(k.bg[c]));
  }
  k.amp = shade.texture_amp;
  k.noise = shade.sensor_noise;
  k.fixed_margin = delta * (std::fabs(k.amp) + std::fabs(k.noise));
  return k;
}

/// clamp(v, 0, 255) then truncate, the exact path's byte map.
int ByteOf(double v) {
  return static_cast<int>(std::min(std::max(v, 0.0), 255.0));
}

/// Approximate shade of one pixel; true when all three bytes are certified.
bool ShadeApproxPixel(double g_t, double g_s, const ShadeConsts& k,
                      std::uint8_t* px) {
  const double t = k.amp * g_t;
  const double s = k.noise * g_s;
  const double margin =
      k.fixed_margin +
      kRoundingScale * (k.bg_max + std::fabs(t) + std::fabs(s));
  bool certified = true;
  for (std::size_t c = 0; c < 3; ++c) {
    const double v = k.bg[c] + t + s;
    const int lo = ByteOf(v - margin);
    certified = certified && lo == ByteOf(v + margin);
    px[c] = static_cast<std::uint8_t>(lo);
  }
  return certified;
}

/// Approximate shade of pixels [begin, n); appends uncertified indices.
std::size_t ShadeApproxScalar(const NoiseChunk& chunk, std::size_t begin,
                              std::size_t n, const ShadeConsts& k,
                              std::uint8_t* out, std::uint32_t* uncertain,
                              std::size_t count) {
  for (std::size_t j = begin; j < n; ++j) {
    if (!ShadeApproxPixel(chunk.second[j], chunk.first[j + 1], k,
                          out + 3 * j)) {
      uncertain[count++] = static_cast<std::uint32_t>(j);
    }
  }
  return count;
}

/// The exact pixel: the renderer's defining expression on the Gaussians
/// that Rng::Gaussian() returns for this pixel's two draws. Called only from the
/// (baseline-ISA) dispatcher, so it is never inlined into an FMA-enabled
/// variant and rounds exactly like Rng::Gaussian's own translation unit.
void ShadeExactPixel(const NoiseChunk& chunk, std::size_t j,
                     const RowShade& shade, std::uint8_t* px) {
  double g_t = 0.0;
  double unused = 0.0;
  Rng::BoxMuller(chunk.u1[j], chunk.u2[j], g_t);
  const double g_s = Rng::BoxMuller(chunk.u1[j + 1], chunk.u2[j + 1], unused);
  // Rng::Gaussian(mean, stddev) is mean + stddev * Gaussian().
  const double texture = 0.0 + shade.texture_amp * g_t;
  const double sensor = 0.0 + shade.sensor_noise * g_s;
  for (std::size_t c = 0; c < 3; ++c) {
    const double v = shade.base[c] * shade.gain + texture + sensor;
    px[c] = static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0));
  }
}

// --- x86 variants ------------------------------------------------------------
//
// Per-function target attributes (not global -march) keep the library
// buildable for plain x86-64; only the CPUID-gated callees use wider ISAs.

#if defined(__x86_64__) || defined(__i386__)

template <std::size_t N>
__attribute__((target("avx2,fma"))) inline __m256d Horner256(
    __m256d z, const double (&c)[N]) {
  __m256d p = _mm256_set1_pd(c[0]);
  for (std::size_t i = 1; i < N; ++i) {
    p = _mm256_fmadd_pd(p, z, _mm256_set1_pd(c[i]));
  }
  return p;
}

__attribute__((target("avx2,fma"))) inline __m256d Log256(__m256d u) {
  const __m256i bits = _mm256_castpd_si256(u);
  // Exponent field to double via the 2^52 trick (AVX2 lacks cvtepi64_pd).
  const __m256d magic = _mm256_set1_pd(0x1p52);
  __m256d e = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(_mm256_srli_epi64(bits, 52),
                                          _mm256_castpd_si256(magic))),
      _mm256_set1_pd(0x1p52 + 1023.0));
  __m256d m = _mm256_castsi256_pd(_mm256_or_si256(
      _mm256_and_si256(bits, _mm256_set1_epi64x(
                                 static_cast<long long>(kMantissaMask))),
      _mm256_set1_epi64x(static_cast<long long>(kOneBits))));
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d big = _mm256_cmp_pd(m, _mm256_set1_pd(kSqrt2), _CMP_GT_OQ);
  m = _mm256_blendv_pd(m, _mm256_mul_pd(m, _mm256_set1_pd(0.5)), big);
  e = _mm256_add_pd(e, _mm256_and_pd(big, one));
  const __m256d s =
      _mm256_div_pd(_mm256_sub_pd(m, one), _mm256_add_pd(m, one));
  const __m256d z = _mm256_mul_pd(s, s);
  const __m256d two_s = _mm256_add_pd(s, s);
  const __m256d ln_m =
      _mm256_fmadd_pd(_mm256_mul_pd(two_s, z), Horner256(z, kAtanh), two_s);
  return _mm256_fmadd_pd(e, _mm256_set1_pd(kLn2), ln_m);
}

__attribute__((target("avx2,fma"))) inline void BoxMuller256(
    __m256d u1, __m256d u2, __m256d& first, __m256d& second) {
  const __m256d r =
      _mm256_sqrt_pd(_mm256_mul_pd(_mm256_set1_pd(-2.0), Log256(u1)));
  const __m256d q =
      _mm256_round_pd(_mm256_mul_pd(u2, _mm256_set1_pd(4.0)),
                      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  const __m256d x = _mm256_mul_pd(
      _mm256_fnmadd_pd(q, _mm256_set1_pd(0.25), u2), _mm256_set1_pd(kTwoPi));
  const __m256d z = _mm256_mul_pd(x, x);
  const __m256d sin_x =
      _mm256_fmadd_pd(_mm256_mul_pd(x, z), Horner256(z, kSin), x);
  const __m256d cos_x =
      _mm256_fmadd_pd(z, Horner256(z, kCos), _mm256_set1_pd(1.0));
  const __m256i quadrant = _mm256_cvtepi32_epi64(_mm256_cvtpd_epi32(q));
  const __m256i bit0 = _mm256_set1_epi64x(1);
  const __m256i bit1 = _mm256_set1_epi64x(2);
  const __m256d swap = _mm256_castsi256_pd(
      _mm256_cmpeq_epi64(_mm256_and_si256(quadrant, bit0), bit0));
  const __m256d cos_sign = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_and_si256(_mm256_add_epi64(quadrant, bit0), bit1), 62));
  const __m256d sin_sign = _mm256_castsi256_pd(
      _mm256_slli_epi64(_mm256_and_si256(quadrant, bit1), 62));
  first = _mm256_mul_pd(
      r, _mm256_xor_pd(_mm256_blendv_pd(cos_x, sin_x, swap), cos_sign));
  second = _mm256_mul_pd(
      r, _mm256_xor_pd(_mm256_blendv_pd(sin_x, cos_x, swap), sin_sign));
}

__attribute__((target("avx2,fma"))) void BoxMullerAvx2(
    const double* u1, const double* u2, std::size_t n, double* first,
    double* second) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d f;
    __m256d s;
    BoxMuller256(_mm256_loadu_pd(u1 + i), _mm256_loadu_pd(u2 + i), f, s);
    _mm256_storeu_pd(first + i, f);
    _mm256_storeu_pd(second + i, s);
  }
  BoxMullerScalar(u1 + i, u2 + i, n - i, first + i, second + i);
}

/// Writes 4 RGB pixels (12 bytes) from per-channel int32 lanes in [0, 255].
__attribute__((target("avx2"))) inline void Interleave4(__m128i r, __m128i g,
                                                        __m128i b,
                                                        std::uint8_t* out) {
  const __m128i planar = _mm_packus_epi16(
      _mm_packus_epi32(r, g), _mm_packus_epi32(b, _mm_setzero_si128()));
  const __m128i order =
      _mm_setr_epi8(0, 4, 8, 1, 5, 9, 2, 6, 10, 3, 7, 11, -1, -1, -1, -1);
  alignas(16) std::uint8_t bytes[16];
  _mm_store_si128(reinterpret_cast<__m128i*>(bytes),
                  _mm_shuffle_epi8(planar, order));
  std::memcpy(out, bytes, 12);
}

__attribute__((target("avx2,fma"))) std::size_t ShadeApproxAvx2(
    const NoiseChunk& chunk, std::size_t n, const ShadeConsts& k,
    std::uint8_t* out, std::uint32_t* uncertain) {
  const __m256d amp = _mm256_set1_pd(k.amp);
  const __m256d noise = _mm256_set1_pd(k.noise);
  const __m256d fixed = _mm256_set1_pd(k.fixed_margin);
  const __m256d bg_max = _mm256_set1_pd(k.bg_max);
  const __m256d scale = _mm256_set1_pd(kRoundingScale);
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d top = _mm256_set1_pd(255.0);
  const __m256d bg[3] = {_mm256_set1_pd(k.bg[0]), _mm256_set1_pd(k.bg[1]),
                         _mm256_set1_pd(k.bg[2])};
  std::size_t count = 0;
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d t = _mm256_mul_pd(amp, _mm256_loadu_pd(chunk.second + j));
    const __m256d s = _mm256_mul_pd(noise, _mm256_loadu_pd(chunk.first + j + 1));
    const __m256d ts = _mm256_add_pd(t, s);
    const __m256d margin = _mm256_fmadd_pd(
        scale,
        _mm256_add_pd(bg_max, _mm256_add_pd(_mm256_andnot_pd(sign, t),
                                            _mm256_andnot_pd(sign, s))),
        fixed);
    __m128i bytes[3];
    __m128i same = _mm_set1_epi32(-1);
    for (std::size_t c = 0; c < 3; ++c) {
      const __m256d v = _mm256_add_pd(bg[c], ts);
      const __m128i lo = _mm256_cvttpd_epi32(_mm256_min_pd(
          _mm256_max_pd(_mm256_sub_pd(v, margin), zero), top));
      const __m128i hi = _mm256_cvttpd_epi32(_mm256_min_pd(
          _mm256_max_pd(_mm256_add_pd(v, margin), zero), top));
      same = _mm_and_si128(same, _mm_cmpeq_epi32(lo, hi));
      bytes[c] = lo;
    }
    Interleave4(bytes[0], bytes[1], bytes[2], out + 3 * j);
    const int certified = _mm_movemask_ps(_mm_castsi128_ps(same));
    if (certified != 0xf) {
      for (std::size_t l = 0; l < 4; ++l) {
        if ((certified & (1 << l)) == 0) {
          uncertain[count++] = static_cast<std::uint32_t>(j + l);
        }
      }
    }
  }
  // GCC emits no vzeroupper before this baseline-ISA call; dirty upper
  // halves would slow every SSE instruction that follows (measured 2x).
  _mm256_zeroupper();
  return ShadeApproxScalar(chunk, j, n, k, out, uncertain, count);
}

#endif  // x86

}  // namespace

void BoxMullerApproxWithIsa(Isa isa, const double* u1, const double* u2,
                            std::size_t n, double* first, double* second) {
  switch (isa) {
#if defined(__x86_64__) || defined(__i386__)
    // AVX-512 CPUs run the AVX2 kernel: an 8-lane variant won every A/B
    // pair but by less than the run-to-run spread (EXPERIMENTS.md), which
    // does not pay for a second SIMD path.
    case Isa::kAvx2:
    case Isa::kAvx512:
      BoxMullerAvx2(u1, u2, n, first, second);
      return;
#endif
    default:
      // NEON takes the portable loop: the observation kernel has no NEON
      // variant yet, and the certificate makes its output identical anyway.
      BoxMullerScalar(u1, u2, n, first, second);
      return;
  }
}

std::size_t ShadePixelsWithIsa(Isa isa, NoiseChunk& chunk, std::size_t n,
                               const RowShade& shade, double delta,
                               std::uint8_t* out) {
  EVM_CHECK(n <= NoiseChunk::kPixels);
  BoxMullerApproxWithIsa(isa, chunk.u1 + 1, chunk.u2 + 1, n, chunk.first + 1,
                         chunk.second + 1);
  const ShadeConsts k = MakeShadeConsts(shade, delta);
  std::uint32_t uncertain[NoiseChunk::kPixels] = {};
  std::size_t count = 0;
  switch (isa) {
#if defined(__x86_64__) || defined(__i386__)
    case Isa::kAvx2:
    case Isa::kAvx512:
      count = ShadeApproxAvx2(chunk, n, k, out, uncertain);
      break;
#endif
    default:
      count = ShadeApproxScalar(chunk, 0, n, k, out, uncertain, 0);
      break;
  }
  for (std::size_t i = 0; i < count; ++i) {
    ShadeExactPixel(chunk, uncertain[i], shade, out + 3 * uncertain[i]);
  }
  return count;
}

}  // namespace evm::kernels
