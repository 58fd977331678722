#pragma once
// A tiny owned RGB image. This is the "raw V-data" unit: one detected human
// figure cropped from a surveillance frame. The synthetic renderer fills it
// from a person's latent appearance; the feature extractor consumes it.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/error.hpp"

namespace evm {

class Image {
 public:
  Image(std::size_t width, std::size_t height)
      : width_(width), height_(height), pixels_(width * height * 3, 0) {
    EVM_CHECK_MSG(width > 0 && height > 0, "image must be non-empty");
  }

  [[nodiscard]] std::size_t width() const noexcept { return width_; }
  [[nodiscard]] std::size_t height() const noexcept { return height_; }

  /// Channel c (0=R,1=G,2=B) of pixel (x, y).
  [[nodiscard]] std::uint8_t At(std::size_t x, std::size_t y,
                                std::size_t c) const noexcept {
    return pixels_[(y * width_ + x) * 3 + c];
  }
  void Set(std::size_t x, std::size_t y, std::size_t c,
           std::uint8_t v) noexcept {
    pixels_[(y * width_ + x) * 3 + c] = v;
  }

  [[nodiscard]] const std::vector<std::uint8_t>& pixels() const noexcept {
    return pixels_;
  }
  /// Row-major interleaved RGB bytes, for renderers that write in bulk.
  [[nodiscard]] std::uint8_t* data() noexcept { return pixels_.data(); }

 private:
  std::size_t width_;
  std::size_t height_;
  std::vector<std::uint8_t> pixels_;
};

}  // namespace evm
