#include "vsense/features.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/error.hpp"

namespace evm {

FeatureVector ExtractFeatures(const Image& image, const FeatureParams& params) {
  EVM_CHECK(params.stripes > 0 && params.bins_per_channel > 0);
  EVM_CHECK_MSG(image.height() >= params.stripes,
                "image shorter than stripe count");
  FeatureVector feature(params.Dimension(), 0.0f);
  const std::size_t stripe_floats = 3 * params.bins_per_channel;
  const double rows_per_stripe =
      static_cast<double>(image.height()) / params.stripes;
  const std::size_t width = image.width();
  const std::uint8_t* pixels = image.pixels().data();

  // Gray-world colour constancy: rescale each channel so its image-wide mean
  // is mid-gray. This cancels the per-observation illumination gain the
  // camera model applies — without it, a global gain shifts entire
  // histograms across bin boundaries and intra-person similarity collapses.
  // Integer sums are exact, so the double mean is too.
  std::uint64_t channel_sum[3] = {0, 0, 0};
  for (std::size_t i = 0; i < width * image.height(); ++i) {
    for (std::size_t c = 0; c < 3; ++c) channel_sum[c] += pixels[3 * i + c];
  }
  const double pixel_count =
      static_cast<double>(width) * static_cast<double>(image.height());
  double gain[3];
  for (std::size_t c = 0; c < 3; ++c) {
    const double mean = static_cast<double>(channel_sum[c]) / pixel_count;
    gain[c] = mean > 1.0 ? 128.0 / mean : 1.0;
  }

  // Soft binning: split each pixel's vote linearly between the two nearest
  // bin centres so that small colour shifts move mass smoothly instead of
  // flipping bins. A channel value is a byte, so the split is tabulated once
  // per (channel, byte) from the same expression.
  struct SoftBin {
    std::uint32_t lo;
    std::uint32_t hi;
    float lo_weight;
    float hi_weight;
  };
  SoftBin table[3][256] = {};
  const double bin_width = 256.0 / static_cast<double>(params.bins_per_channel);
  const auto last = static_cast<std::int64_t>(params.bins_per_channel) - 1;
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t b = 0; b < 256; ++b) {
      const double v =
          std::clamp(static_cast<double>(b) * gain[c], 0.0, 255.999);
      const double pos = v / bin_width - 0.5;
      const auto lo = static_cast<std::int64_t>(std::floor(pos));
      const double hi_weight = pos - static_cast<double>(lo);
      const auto bin = [&](std::int64_t index) {
        return static_cast<std::uint32_t>(
            c * params.bins_per_channel +
            static_cast<std::size_t>(std::clamp<std::int64_t>(index, 0, last)));
      };
      table[c][b] = {bin(lo), bin(lo + 1), static_cast<float>(1.0 - hi_weight),
                     static_cast<float>(hi_weight)};
    }
  }

  // Votes land in pixel order, channel by channel, low bin before high bin:
  // each bin's float sum rounds as if the split were computed per pixel.
  for (std::size_t y = 0; y < image.height(); ++y) {
    const auto stripe = std::min(
        params.stripes - 1,
        static_cast<std::size_t>(static_cast<double>(y) / rows_per_stripe));
    float* block = feature.data() + stripe * stripe_floats;
    const std::uint8_t* row = pixels + y * width * 3;
    for (std::size_t x = 0; x < width; ++x) {
      for (std::size_t c = 0; c < 3; ++c) {
        const SoftBin& bin = table[c][row[3 * x + c]];
        block[bin.lo] += bin.lo_weight;
        block[bin.hi] += bin.hi_weight;
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

double FeatureDistance(const FeatureVector& a, const FeatureVector& b) {
  EVM_CHECK_MSG(a.size() == b.size(), "feature dimension mismatch");
  EVM_CHECK_MSG(!a.empty(), "empty feature");
  // Each stripe block sums to 1 across its 3*bins entries, so with S stripes
  // the maximum possible L1 difference is 2*S. Normalizing by that bound
  // lands the distance in [0, 1]. Single fused float pass: this is the
  // hottest loop of the V stage.
  float l1 = 0.0f;
  float mass_a = 0.0f;
  float mass_b = 0.0f;
  const float* pa = a.data();
  const float* pb = b.data();
  const std::size_t n = a.size();
  for (std::size_t i = 0; i < n; ++i) {
    l1 += std::fabs(pa[i] - pb[i]);
    mass_a += pa[i];
    mass_b += pb[i];
  }
  // Symmetric bound: normalizing by either argument's mass alone would make
  // the distance order-dependent under float rounding.
  const double max_l1 =
      std::max({static_cast<double>(mass_a) + static_cast<double>(mass_b),
                2.0});
  return std::clamp(static_cast<double>(l1) / max_l1, 0.0, 1.0);
}

}  // namespace evm
