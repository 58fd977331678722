#pragma once
// Latent person appearance and the synthetic observation renderer.
//
// Substitution for CUHK02 (see DESIGN.md): each person is assigned a latent
// appearance — a stack of horizontal body stripes, each with a base RGB
// colour and a texture amplitude (think hair / face / torso / legs / shoes).
// An *observation* of that person renders the stripes into a small RGB crop
// with (a) a per-observation global illumination gain, (b) per-pixel texture
// noise, and (c) a small vertical mis-cropping jitter — the same nuisance
// factors that make re-identification on real data imperfect. The noise
// levels are calibrated so that single-shot re-id errs at a realistic rate.

#include <cstdint>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "vsense/image.hpp"
#include "vsense/kernels/dispatch.hpp"

namespace evm {

/// Number of horizontal body stripes in the latent appearance model.
inline constexpr std::size_t kAppearanceStripes = 6;

/// The latent, time-invariant appearance of one person.
struct LatentAppearance {
  struct Stripe {
    float r, g, b;        ///< base colour in [0, 255]
    float texture_amp;    ///< per-pixel noise amplitude
  };
  Stripe stripes[kAppearanceStripes];
};

/// Rendering / nuisance parameters shared across the dataset.
struct RenderParams {
  std::size_t width{32};
  std::size_t height{64};
  /// Std-dev of the per-observation global illumination gain (multiplier
  /// around 1.0). Larger -> harder re-identification.
  double illumination_sigma{0.10};
  /// Extra additive per-pixel sensor noise (0..255 scale).
  double sensor_noise{8.0};
  /// Max vertical crop jitter as a fraction of the stripe height.
  double crop_jitter{0.33};
  /// Probability that any given body stripe is partially occluded in an
  /// observation (bags, other people, furniture), blending its colour
  /// toward a random occluder colour. Calibrated (with the other nuisance
  /// knobs) so the full pipeline lands in the paper's 85-93% accuracy band.
  double occlusion_prob{0.12};
  /// Occluder blend strength range [min, max].
  double occlusion_alpha_min{0.25};
  double occlusion_alpha_max{0.52};
};

/// Generates `count` latent appearances with well-spread base colours.
[[nodiscard]] std::vector<LatentAppearance> GenerateAppearances(
    std::size_t count, Rng rng);

/// Renders one observation of `appearance` with per-observation nuisance
/// noise derived deterministically from `render_seed`. The pixel noise runs
/// through the certified observation kernel (vsense/kernels/observation.hpp):
/// the bytes are exactly those of drawing every pixel with Rng::Gaussian().
[[nodiscard]] Image RenderObservation(const LatentAppearance& appearance,
                                      const RenderParams& params,
                                      std::uint64_t render_seed);

/// RenderObservation on a fixed kernel ISA, for the equivalence tests. The
/// output is identical for every ISA; calling with an unsupported one is
/// undefined (SIGILL), so tests gate on kernels::IsaSupported.
[[nodiscard]] Image RenderObservationWithIsa(kernels::Isa isa,
                                             const LatentAppearance& appearance,
                                             const RenderParams& params,
                                             std::uint64_t render_seed);

}  // namespace evm
