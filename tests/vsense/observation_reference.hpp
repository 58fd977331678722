#pragma once
// Test-only reference implementations of RenderObservation and
// ExtractFeatures (see observation_reference.cpp).

#include <cstdint>

#include "vsense/appearance.hpp"
#include "vsense/features.hpp"

namespace evm {

[[nodiscard]] Image ReferenceRenderObservation(
    const LatentAppearance& appearance, const RenderParams& params,
    std::uint64_t render_seed);

[[nodiscard]] FeatureVector ReferenceExtractFeatures(
    const Image& image, const FeatureParams& params);

}  // namespace evm
