// Byte-identity suite for the certified observation kernel (DESIGN.md §18):
// RenderObservation and ExtractFeatures must reproduce the pre-kernel
// scalar reference (observation_reference.cpp) byte for byte on every ISA,
// over many seeds and over parameter edges; the approximate Box-Muller must
// stay within the certificate's delta; and the exact fallback must produce
// the same bytes when it handles every pixel.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "tests/vsense/observation_reference.hpp"
#include "vsense/appearance.hpp"
#include "vsense/features.hpp"
#include "vsense/kernels/dispatch.hpp"
#include "vsense/kernels/observation.hpp"

namespace evm {
namespace {

using kernels::Isa;

const Isa kAllIsas[] = {Isa::kScalar, Isa::kAvx2, Isa::kAvx512, Isa::kNeon};

/// Renders with `isa` and with the reference, and extracts features from
/// both images; expects every byte and every float to match.
void ExpectMatchesReference(Isa isa, const LatentAppearance& appearance,
                            const RenderParams& rp, const FeatureParams& fp,
                            std::uint64_t seed, const std::string& context) {
  const Image expect = ReferenceRenderObservation(appearance, rp, seed);
  const Image got = RenderObservationWithIsa(isa, appearance, rp, seed);
  ASSERT_EQ(got.pixels(), expect.pixels())
      << context << " isa=" << kernels::IsaName(isa) << " seed=" << seed;
  ASSERT_EQ(ExtractFeatures(got, fp), ReferenceExtractFeatures(expect, fp))
      << context << " isa=" << kernels::IsaName(isa) << " seed=" << seed;
}

class ObservationKernelIsaTest : public ::testing::TestWithParam<Isa> {};

TEST_P(ObservationKernelIsaTest, MatchesReferenceOverManySeeds) {
  const Isa isa = GetParam();
  if (!kernels::IsaSupported(isa)) GTEST_SKIP() << "CPU lacks this ISA";
  const auto apps = GenerateAppearances(64, MakeStream(19, "obs-kernel"));
  const RenderParams rp;
  const FeatureParams fp;
  for (std::uint64_t seed = 0; seed < 20000; ++seed) {
    ExpectMatchesReference(isa, apps[seed % apps.size()], rp, fp,
                           seed * 0x9e3779b97f4a7c15ULL + 1, "default");
    if (HasFatalFailure()) return;
  }
}

TEST_P(ObservationKernelIsaTest, MatchesReferenceOnEdgeParameters) {
  const Isa isa = GetParam();
  if (!kernels::IsaSupported(isa)) GTEST_SKIP() << "CPU lacks this ISA";
  const auto apps = GenerateAppearances(8, MakeStream(20, "obs-kernel"));

  // Saturating appearance: texture far beyond the byte range drives
  // channels to both 0 and 255; black and white bases pin them there.
  LatentAppearance saturating = apps[0];
  for (std::size_t s = 0; s < kAppearanceStripes; ++s) {
    const float base = (s % 2 == 0) ? 0.0f : 255.0f;
    saturating.stripes[s] = {base, 255.0f - base, 128.0f, 400.0f};
  }
  // Near-black crop: channel means stay at or below 1, so the gray-world
  // gain is exactly 1.0 (illumination_sigma 0 makes the render gain 1.0).
  LatentAppearance near_black = apps[1];
  for (auto& stripe : near_black.stripes) stripe = {0.3f, 0.6f, 0.2f, 0.4f};

  struct Case {
    std::string name;
    LatentAppearance appearance;
    RenderParams rp;
    FeatureParams fp;
  };
  std::vector<Case> cases;
  for (const std::size_t width : {1u, 3u, 5u, 7u, 9u, 13u, 31u, 33u, 63u, 64u,
                                  65u, 100u, 130u}) {
    RenderParams rp;
    rp.width = width;
    rp.height = 13;  // not divisible by the 6 stripes
    cases.push_back({"width" + std::to_string(width), apps[2], rp, {}});
  }
  for (const std::size_t height : {6u, 7u, 61u, 67u}) {
    RenderParams rp;
    rp.width = 11;
    rp.height = height;
    cases.push_back({"height" + std::to_string(height), apps[3], rp, {}});
  }
  {
    RenderParams rp;
    rp.sensor_noise = 0.0;
    cases.push_back({"no-sensor-noise", apps[4], rp, {}});
  }
  {
    RenderParams rp;
    rp.sensor_noise = 0.0;
    rp.illumination_sigma = 0.0;
    LatentAppearance flat = apps[5];
    for (auto& stripe : flat.stripes) stripe.texture_amp = 0.0f;
    cases.push_back({"noise-free", flat, rp, {}});
  }
  {
    RenderParams rp;
    rp.sensor_noise = 300.0;
    cases.push_back({"saturating", saturating, rp, {}});
  }
  for (const double p : {0.0, 1.0}) {
    RenderParams rp;
    rp.occlusion_prob = p;
    cases.push_back({"occlusion" + std::to_string(p), apps[6], rp, {}});
  }
  for (const std::size_t bins : {4u, 8u, 16u}) {
    FeatureParams fp;
    fp.bins_per_channel = bins;
    cases.push_back({"bins" + std::to_string(bins), apps[7], {}, fp});
  }
  {
    RenderParams rp;
    rp.illumination_sigma = 0.0;
    rp.sensor_noise = 0.5;
    cases.push_back({"near-black", near_black, rp, {}});
  }

  for (const Case& c : cases) {
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
      ExpectMatchesReference(isa, c.appearance, c.rp, c.fp, seed * 7919,
                             c.name);
      if (HasFatalFailure()) return;
    }
  }
}

TEST_P(ObservationKernelIsaTest, NearBlackCropKeepsUnitGrayWorldGain) {
  // Guards the edge case above: the crop really is near black.
  const Isa isa = GetParam();
  if (!kernels::IsaSupported(isa)) GTEST_SKIP() << "CPU lacks this ISA";
  LatentAppearance near_black{};
  for (auto& stripe : near_black.stripes) stripe = {0.3f, 0.6f, 0.2f, 0.4f};
  RenderParams rp;
  rp.illumination_sigma = 0.0;
  rp.sensor_noise = 0.5;
  const Image image = RenderObservationWithIsa(isa, near_black, rp, 5);
  double sum = 0.0;
  for (const std::uint8_t v : image.pixels()) sum += v;
  EXPECT_LE(sum / static_cast<double>(image.pixels().size()), 1.0);
}

TEST_P(ObservationKernelIsaTest, BoxMullerWithinCertifiedBound) {
  const Isa isa = GetParam();
  if (!kernels::IsaSupported(isa)) GTEST_SKIP() << "CPU lacks this ISA";
  const double bound = kernels::kBoxMullerErrorBound / 100.0;
  constexpr std::size_t kBlock = 4096;
  std::vector<double> u1(kBlock), u2(kBlock), first(kBlock), second(kBlock);
  double max_error = 0.0;
  auto check_block = [&](std::size_t n) {
    kernels::BoxMullerApproxWithIsa(isa, u1.data(), u2.data(), n,
                                    first.data(), second.data());
    for (std::size_t i = 0; i < n; ++i) {
      double exact_second = 0.0;
      const double exact_first = Rng::BoxMuller(u1[i], u2[i], exact_second);
      max_error = std::max({max_error, std::fabs(first[i] - exact_first),
                            std::fabs(second[i] - exact_second)});
    }
  };

  // Extremes of the uniform ranges: u1 at 2^-53 (largest radius) and
  // 1 - 2^-53 (smallest), u2 at 0, every octant boundary k/8 and 1 - 2^-53.
  std::size_t n = 0;
  for (const double a : {0x1p-53, 0x1p-40, 0.5, 1.0 - 0x1p-53}) {
    for (int k = 0; k <= 8; ++k) {
      u1[n] = a;
      u2[n] = k == 8 ? 1.0 - 0x1p-53 : k / 8.0;
      ++n;
    }
  }
  check_block(n);

  Rng rng(2017);
  for (std::size_t done = 0; done < 10'000'000; done += kBlock) {
    rng.NextBoxMullerUniforms(u1.data(), u2.data(), kBlock);
    check_block(kBlock);
  }
  EXPECT_LE(max_error, bound) << "isa=" << kernels::IsaName(isa);
}

TEST_P(ObservationKernelIsaTest, ForcedFallbackIsStillExact) {
  const Isa isa = GetParam();
  if (!kernels::IsaSupported(isa)) GTEST_SKIP() << "CPU lacks this ISA";
  Rng rng(99);
  kernels::RowShade shade{{37.5, 128.25, 201.0}, 1.07, 11.0, 8.0};
  std::size_t production_fallbacks = 0;
  std::size_t pixels = 0;
  for (std::size_t n = 1; n <= kernels::NoiseChunk::kPixels; ++n) {
    kernels::NoiseChunk chunk{};
    rng.NextBoxMullerUniforms(chunk.u1, chunk.u2, n + 1);
    // Pair 0 arrives evaluated, as the renderer carries it over.
    chunk.first[0] = Rng::BoxMuller(chunk.u1[0], chunk.u2[0], chunk.second[0]);

    // Expected bytes: each pixel's Gaussians straight from Rng::Gaussian's
    // transform and the reference's shading expression.
    std::vector<std::uint8_t> expect(3 * n);
    for (std::size_t j = 0; j < n; ++j) {
      double g_t = 0.0;
      double unused = 0.0;
      Rng::BoxMuller(chunk.u1[j], chunk.u2[j], g_t);
      const double g_s =
          Rng::BoxMuller(chunk.u1[j + 1], chunk.u2[j + 1], unused);
      const double texture = 0.0 + shade.texture_amp * g_t;
      const double sensor = 0.0 + shade.sensor_noise * g_s;
      for (std::size_t c = 0; c < 3; ++c) {
        const double v = shade.base[c] * shade.gain + texture + sensor;
        expect[3 * j + c] =
            static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0));
      }
    }
    // A margin wider than the byte range certifies nothing: every pixel
    // takes the exact path.
    kernels::NoiseChunk wide = chunk;
    std::vector<std::uint8_t> forced(3 * n);
    EXPECT_EQ(kernels::ShadePixelsWithIsa(isa, wide, n, shade, 1e3,
                                          forced.data()),
              n);
    EXPECT_EQ(forced, expect) << "n=" << n;

    std::vector<std::uint8_t> production(3 * n);
    production_fallbacks += kernels::ShadePixelsWithIsa(
        isa, chunk, n, shade, kernels::kBoxMullerErrorBound,
        production.data());
    pixels += n;
    EXPECT_EQ(production, expect) << "n=" << n;
  }
  // The production margin certifies essentially every pixel.
  EXPECT_LE(production_fallbacks * 1000, pixels);
}

INSTANTIATE_TEST_SUITE_P(
    AllIsas, ObservationKernelIsaTest, ::testing::ValuesIn(kAllIsas),
    [](const ::testing::TestParamInfo<Isa>& info) {
      return std::string(kernels::IsaName(info.param));
    });

TEST(ObservationKernelTest, ActiveIsaRenderMatchesReference) {
  // The dispatched entry points the pipeline calls (RenderObservation,
  // ExtractFeatures) on whatever ISA this process resolved.
  const auto apps = GenerateAppearances(4, MakeStream(21, "obs-kernel"));
  const RenderParams rp;
  const FeatureParams fp;
  for (std::uint64_t seed = 0; seed < 500; ++seed) {
    const auto& app = apps[seed % apps.size()];
    const Image got = RenderObservation(app, rp, seed);
    const Image expect = ReferenceRenderObservation(app, rp, seed);
    ASSERT_EQ(got.pixels(), expect.pixels()) << "seed=" << seed;
    ASSERT_EQ(ExtractFeatures(got, fp), ReferenceExtractFeatures(expect, fp))
        << "seed=" << seed;
  }
}

}  // namespace
}  // namespace evm
