#include "vsense/appearance.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "vsense/kernels/observation.hpp"

namespace evm {

std::vector<LatentAppearance> GenerateAppearances(std::size_t count, Rng rng) {
  std::vector<LatentAppearance> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    LatentAppearance appearance{};
    for (auto& stripe : appearance.stripes) {
      // Base colours drawn uniformly over a wide gamut; clothing colours in
      // the wild cluster, but uniform keeps inter-person distances honest
      // while the nuisance noise controls intra-person spread.
      stripe.r = static_cast<float>(rng.Uniform(20.0, 235.0));
      stripe.g = static_cast<float>(rng.Uniform(20.0, 235.0));
      stripe.b = static_cast<float>(rng.Uniform(20.0, 235.0));
      stripe.texture_amp = static_cast<float>(rng.Uniform(4.0, 18.0));
    }
    out.push_back(appearance);
  }
  return out;
}

Image RenderObservation(const LatentAppearance& appearance,
                        const RenderParams& params,
                        std::uint64_t render_seed) {
  return RenderObservationWithIsa(kernels::ActiveIsa(), appearance, params,
                                  render_seed);
}

Image RenderObservationWithIsa(kernels::Isa isa,
                               const LatentAppearance& appearance,
                               const RenderParams& params,
                               std::uint64_t render_seed) {
  Rng rng(render_seed);
  Image image(params.width, params.height);
  // The gain is the stream's first Gaussian() draw. Its pair's second
  // variate is what serves the pixel loop's first texture draw, so the pair
  // opens the noise stream as pair 0 of the first chunk.
  kernels::NoiseChunk noise{};
  rng.NextBoxMullerUniforms(noise.u1, noise.u2, 1);
  noise.first[0] = Rng::BoxMuller(noise.u1[0], noise.u2[0], noise.second[0]);
  // Rng::Gaussian(mean, stddev) is mean + stddev * Gaussian().
  const double gain =
      std::max(0.2, 1.0 + params.illumination_sigma * noise.first[0]);
  const double stripe_height =
      static_cast<double>(params.height) / kAppearanceStripes;
  const double jitter =
      rng.Uniform(-params.crop_jitter, params.crop_jitter) * stripe_height;

  // Per-observation occlusions: some stripes blend toward a random occluder
  // colour (bags, passers-by, furniture) — the main source of single-shot
  // re-identification error, as in real surveillance crops.
  struct Occlusion {
    bool active{false};
    double alpha{0.0};
    double r{0.0}, g{0.0}, b{0.0};
  };
  Occlusion occlusions[kAppearanceStripes];
  for (auto& occlusion : occlusions) {
    if (rng.Bernoulli(params.occlusion_prob)) {
      occlusion.active = true;
      occlusion.alpha =
          rng.Uniform(params.occlusion_alpha_min, params.occlusion_alpha_max);
      occlusion.r = rng.Uniform(0.0, 255.0);
      occlusion.g = rng.Uniform(0.0, 255.0);
      occlusion.b = rng.Uniform(0.0, 255.0);
    }
  }

  std::uint8_t* pixels = image.data();
  for (std::size_t y = 0; y < params.height; ++y) {
    // Vertical mis-cropping shifts which stripe a row samples from.
    const double shifted = static_cast<double>(y) + jitter;
    const auto stripe_index = static_cast<std::size_t>(std::clamp(
        shifted / stripe_height, 0.0,
        static_cast<double>(kAppearanceStripes) - 1.0));
    const auto& stripe = appearance.stripes[stripe_index];
    const Occlusion& occlusion = occlusions[stripe_index];
    kernels::RowShade shade{{stripe.r, stripe.g, stripe.b},
                            gain,
                            stripe.texture_amp,
                            params.sensor_noise};
    if (occlusion.active) {
      const double occluder[3] = {occlusion.r, occlusion.g, occlusion.b};
      for (std::size_t c = 0; c < 3; ++c) {
        shade.base[c] = (1.0 - occlusion.alpha) * shade.base[c] +
                        occlusion.alpha * occluder[c];
      }
    }
    // Each pixel draws a texture then a sensor Gaussian; the uniforms are
    // drawn here in exactly the order those Gaussian() calls would draw
    // them, and the kernel evaluates and certifies them in bulk.
    for (std::size_t x = 0; x < params.width;
         x += kernels::NoiseChunk::kPixels) {
      const std::size_t n =
          std::min(kernels::NoiseChunk::kPixels, params.width - x);
      rng.NextBoxMullerUniforms(noise.u1 + 1, noise.u2 + 1, n);
      kernels::ShadePixelsWithIsa(isa, noise, n, shade,
                                  kernels::kBoxMullerErrorBound,
                                  pixels + (y * params.width + x) * 3);
      // Pair n's second variate serves the next pixel's texture draw.
      noise.u1[0] = noise.u1[n];
      noise.u2[0] = noise.u2[n];
      noise.first[0] = noise.first[n];
      noise.second[0] = noise.second[n];
    }
  }
  return image;
}

}  // namespace evm
