// The scalar renderer and feature extractor as they were before the
// certified observation kernel (DESIGN.md §18), kept verbatim as the
// independent truth the kernel's byte-identity tests compare against: one
// Rng::Gaussian() call per draw, libm log/sqrt/sin/cos, and per-value
// soft binning.

#include "tests/vsense/observation_reference.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace evm {

Image ReferenceRenderObservation(const LatentAppearance& appearance,
                                 const RenderParams& params,
                                 std::uint64_t render_seed) {
  Rng rng(render_seed);
  Image image(params.width, params.height);
  const double gain = std::max(0.2, rng.Gaussian(1.0, params.illumination_sigma));
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

  for (std::size_t y = 0; y < params.height; ++y) {
    // Vertical mis-cropping shifts which stripe a row samples from.
    const double shifted = static_cast<double>(y) + jitter;
    const auto stripe_index = static_cast<std::size_t>(std::clamp(
        shifted / stripe_height, 0.0,
        static_cast<double>(kAppearanceStripes) - 1.0));
    const auto& stripe = appearance.stripes[stripe_index];
    const Occlusion& occlusion = occlusions[stripe_index];
    double base[3] = {stripe.r, stripe.g, stripe.b};
    if (occlusion.active) {
      const double occluder[3] = {occlusion.r, occlusion.g, occlusion.b};
      for (std::size_t c = 0; c < 3; ++c) {
        base[c] = (1.0 - occlusion.alpha) * base[c] +
                  occlusion.alpha * occluder[c];
      }
    }
    for (std::size_t x = 0; x < params.width; ++x) {
      const double texture = rng.Gaussian(0.0, stripe.texture_amp);
      const double sensor = rng.Gaussian(0.0, params.sensor_noise);
      for (std::size_t c = 0; c < 3; ++c) {
        const double v = base[c] * gain + texture + sensor;
        image.Set(x, y, c,
                  static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0)));
      }
    }
  }
  return image;
}

FeatureVector ReferenceExtractFeatures(const Image& image,
                                       const FeatureParams& params) {
  EVM_CHECK(params.stripes > 0 && params.bins_per_channel > 0);
  EVM_CHECK_MSG(image.height() >= params.stripes,
                "image shorter than stripe count");
  FeatureVector feature(params.Dimension(), 0.0f);
  const std::size_t stripe_floats = 3 * params.bins_per_channel;
  const double rows_per_stripe =
      static_cast<double>(image.height()) / params.stripes;

  // Gray-world colour constancy: rescale each channel so its image-wide mean
  // is mid-gray. This cancels the per-observation illumination gain the
  // camera model applies — without it, a global gain shifts entire
  // histograms across bin boundaries and intra-person similarity collapses.
  double channel_sum[3] = {0.0, 0.0, 0.0};
  for (std::size_t y = 0; y < image.height(); ++y) {
    for (std::size_t x = 0; x < image.width(); ++x) {
      for (std::size_t c = 0; c < 3; ++c) channel_sum[c] += image.At(x, y, c);
    }
  }
  const double pixels =
      static_cast<double>(image.width()) * static_cast<double>(image.height());
  double gain[3];
  for (std::size_t c = 0; c < 3; ++c) {
    const double mean = channel_sum[c] / pixels;
    gain[c] = mean > 1.0 ? 128.0 / mean : 1.0;
  }

  const double bin_width = 256.0 / static_cast<double>(params.bins_per_channel);
  for (std::size_t y = 0; y < image.height(); ++y) {
    const auto stripe = std::min(
        params.stripes - 1,
        static_cast<std::size_t>(static_cast<double>(y) / rows_per_stripe));
    float* block = feature.data() + stripe * stripe_floats;
    for (std::size_t x = 0; x < image.width(); ++x) {
      for (std::size_t c = 0; c < 3; ++c) {
        const double v =
            std::clamp(image.At(x, y, c) * gain[c], 0.0, 255.999);
        // Soft binning: split each pixel's vote linearly between the two
        // nearest bin centres so that small colour shifts move mass
        // smoothly instead of flipping bins.
        const double pos = v / bin_width - 0.5;
        const auto lo = static_cast<std::int64_t>(std::floor(pos));
        const double hi_weight = pos - static_cast<double>(lo);
        float* channel = block + c * params.bins_per_channel;
        const auto last =
            static_cast<std::int64_t>(params.bins_per_channel) - 1;
        const std::int64_t lo_clamped = std::clamp<std::int64_t>(lo, 0, last);
        const std::int64_t hi_clamped =
            std::clamp<std::int64_t>(lo + 1, 0, last);
        channel[lo_clamped] += static_cast<float>(1.0 - hi_weight);
        channel[hi_clamped] += static_cast<float>(hi_weight);
      }
    }
  }
  // L1-normalize each stripe block so stripes contribute equally.
  for (std::size_t s = 0; s < params.stripes; ++s) {
    float* block = feature.data() + s * stripe_floats;
    float sum = 0.0f;
    for (std::size_t i = 0; i < stripe_floats; ++i) sum += block[i];
    if (sum > 0.0f) {
      const float inv = 1.0f / sum;
      for (std::size_t i = 0; i < stripe_floats; ++i) block[i] *= inv;
    }
  }
  return feature;
}

}  // namespace evm
