#pragma once
// The observation kernel behind RenderObservation: bulk Box-Muller over the
// render loop's uniform pairs plus a certified pixel shader (DESIGN.md §18).
//
// Exactness contract: the image RenderObservation returns is byte-identical
// to evaluating every pixel with Rng::Gaussian(). The SIMD Box-Muller here
// is only approximate (polynomial log and sincos), so each pixel's bytes are
// certified: with |g~ - g| <= delta for both of its Gaussians, the exact
// channel value lies within a margin M of the approximate one, and the byte
// is accepted only when clamp-and-truncate maps v - M and v + M to the same
// byte. Every other pixel is recomputed from its stored uniforms through
// Rng::BoxMuller, the one definition Rng::Gaussian() itself uses. The
// accepted bytes therefore never depend on the ISA or on delta; only the
// (tiny) share of recomputed pixels does.
//
// Callers pass the ISA (RenderObservation passes ActiveIsa()). Calling with
// an ISA the CPU lacks is undefined (SIGILL); tests gate on IsaSupported.

#include <cstddef>
#include <cstdint>

#include "vsense/kernels/dispatch.hpp"

namespace evm::kernels {

/// delta: bound on |BoxMullerApproxWithIsa - Rng::BoxMuller| for u1 in
/// [2^-53, 1) and u2 in [0, 1). The error analysis gives about 1e-14
/// (DESIGN.md §18); this is 10^4 times that, so the certificate holds with
/// room to spare.
inline constexpr double kBoxMullerErrorBound = 1e-10;

/// Approximate Box-Muller on `isa`: first[i] and second[i] are within
/// kBoxMullerErrorBound of the two variates Rng::BoxMuller(u1[i], u2[i], ...)
/// returns and stores. Requires u1[i] in [2^-53, 1) (what
/// Rng::NextBoxMullerUniforms draws).
void BoxMullerApproxWithIsa(Isa isa, const double* u1, const double* u2,
                            std::size_t n, double* first, double* second);

/// The render loop's Gaussian stream for up to kPixels pixels of one image
/// row, as uniform pairs. Successive Gaussian() calls hand out a pair's
/// first variate, then its cached second one, so pixel j of the chunk draws
/// its texture Gaussian as pair j's second variate and its sensor Gaussian
/// as pair j+1's first. Pair 0 is carried over from the previous chunk (for
/// the image's first chunk it is the illumination-gain draw, whose second
/// variate the first texture draw is served from) and arrives with its
/// variates evaluated; pairs 1..n arrive as uniforms only.
struct NoiseChunk {
  static constexpr std::size_t kPixels = 64;
  double u1[kPixels + 1];
  double u2[kPixels + 1];
  double first[kPixels + 1];
  double second[kPixels + 1];
};

/// One row's shading inputs: v = base[c] * gain + texture + sensor, with
/// texture = texture_amp * g_t and sensor = sensor_noise * g_s.
struct RowShade {
  double base[3];
  double gain;
  double texture_amp;
  double sensor_noise;
};

/// Evaluates pairs 1..n of `chunk` (n <= kPixels) with
/// BoxMullerApproxWithIsa, then writes the n pixels (3 bytes each, RGB) to
/// `out`: certified bytes where the approximation decides them, the exact
/// Rng::Gaussian() result everywhere else. `delta` is the Gaussian error
/// bound the margin is derived from (kBoxMullerErrorBound in production; a
/// larger value only sends more pixels down the exact path). Returns the
/// number of pixels recomputed exactly.
std::size_t ShadePixelsWithIsa(Isa isa, NoiseChunk& chunk, std::size_t n,
                               const RowShade& shade, double delta,
                               std::uint8_t* out);

}  // namespace evm::kernels
