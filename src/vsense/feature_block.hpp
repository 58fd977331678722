#pragma once
// FeatureBlock: a scenario's observation features as one contiguous
// row-major float matrix — the batch-side operand of the V stage's
// similarity kernels.
//
// Layout: `rows` features of `dim` floats each, stored at a row stride
// rounded up to a multiple of kRowAlign (8) floats. Padding lanes are zero
// in every row, and probes are zero-padded the same way, so a padded lane
// contributes |0 - 0| = 0 to the L1 term and 0 to either operand's mass —
// padded and unpadded distances are identical. Each row's L1 mass (which
// the scalar FeatureDistance recomputes on every call) is precomputed at
// build time, leaving the hot loop a pure |a - b| reduction over aligned
// contiguous memory that the compiler can vectorize at -O2 without
// -ffast-math: the kernel keeps kRowAlign independent accumulator chains,
// so no float reassociation is required.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "vsense/features.hpp"
#include "vsense/kernels/quantized_block.hpp"

namespace evm {

class FeatureBlock {
 public:
  /// Row stride alignment in floats; also the number of independent
  /// accumulator lanes the kernels run.
  static constexpr std::size_t kRowAlign = 8;

  /// Blocks at or above this row count also build int8 companion codes and
  /// take the SAD-shortlist scan; smaller blocks go straight to the exact
  /// kernel (the per-call probe quantization would dominate).
  static constexpr std::size_t kQuantizedMinRows = 16;

  FeatureBlock() = default;
  /// Packs `features` (all of equal, non-zero dimension) into the padded
  /// matrix and precomputes per-row L1 mass.
  explicit FeatureBlock(const std::vector<FeatureVector>& features);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  /// Padded row stride in floats (multiple of kRowAlign; >= dim()).
  [[nodiscard]] std::size_t stride() const noexcept { return stride_; }
  [[nodiscard]] bool empty() const noexcept { return rows_ == 0; }

  /// Pointer to row r's `stride()` floats (dim() data + zero padding).
  [[nodiscard]] const float* RowData(std::size_t r) const noexcept {
    return data_.data() + r * stride_;
  }
  /// Precomputed L1 mass (plain sum; histogram features are non-negative).
  [[nodiscard]] float RowMass(std::size_t r) const noexcept {
    return mass_[r];
  }
  /// Largest row mass — the mass term of the quantized scan's uniform cut.
  [[nodiscard]] float MaxRowMass() const noexcept {
    return max_mass_;
  }
  /// Copies row r back out as an unpadded FeatureVector.
  [[nodiscard]] FeatureVector Row(std::size_t r) const;

  /// Int8 companion codes (empty below kQuantizedMinRows rows).
  [[nodiscard]] const kernels::QuantizedFeatureBlock& quantized()
      const noexcept {
    return quantized_;
  }

 private:
  std::size_t rows_{0};
  std::size_t dim_{0};
  std::size_t stride_{0};
  std::vector<float> data_;   // rows_ * stride_ floats, padding zeroed
  std::vector<float> mass_;   // per-row L1 mass
  float max_mass_{0.0f};
  kernels::QuantizedFeatureBlock quantized_;
};

/// A probe prepared for the batched kernels: zero-padded to a block's row
/// stride with its L1 mass computed once (instead of once per comparison).
/// Borrows the source feature when no padding is needed — the source must
/// outlive the probe.
class PaddedProbe {
 public:
  PaddedProbe(const FeatureVector& probe, std::size_t stride);
  /// Borrows an already-padded row of a block (zero-copy).
  PaddedProbe(const float* padded_row, float mass) noexcept
      : data_(padded_row), mass_(mass) {}

  [[nodiscard]] const float* data() const noexcept { return data_; }
  [[nodiscard]] float mass() const noexcept { return mass_; }

 private:
  std::vector<float> storage_;  // used only when padding was required
  const float* data_;
  float mass_;
};

/// Result of a fused value+argmax scan over a block.
struct BlockMatch {
  int index{-1};          // -1 for an empty block
  double similarity{-1.0};
};

/// Per-scan accounting for the quantized shortlist path (folded into the
/// match counters by FilterVid).
struct BlockScanStats {
  std::uint64_t exact_rows{0};          // rows re-ranked by the float kernel
  std::uint64_t full_scan_fallbacks{0};  // scans whose bound excluded nothing
};

/// Fused best-match scan: index and similarity of the row most similar to
/// the probe (Eq. 1 semantics, first row wins ties). The probe must be
/// padded to the block's stride. Large blocks take the quantized SAD
/// shortlist + exact re-rank; the result is bit-identical to
/// BestInBlockExact on every input (DESIGN.md §12).
[[nodiscard]] BlockMatch BestInBlock(const PaddedProbe& probe,
                                     const FeatureBlock& block,
                                     BlockScanStats* stats);
[[nodiscard]] BlockMatch BestInBlock(const PaddedProbe& probe,
                                     const FeatureBlock& block);

/// Exact scan of every row with the dispatched SIMD float kernels (no
/// shortlist). The equivalence oracle for BestInBlock's quantized path.
[[nodiscard]] BlockMatch BestInBlockExact(const PaddedProbe& probe,
                                          const FeatureBlock& block);

/// Exact scan pinned to the scalar reference kernel regardless of dispatch —
/// the ground truth the SIMD variants are tested against.
[[nodiscard]] BlockMatch BestInBlockReference(const PaddedProbe& probe,
                                              const FeatureBlock& block);

/// Batched ProbInScenario: max similarity of `probe` against any row.
/// An empty block gives 0 (the candidate certainly is not observed).
[[nodiscard]] double BestSimilarityInBlock(const FeatureVector& probe,
                                           const FeatureBlock& block);

/// Batched BestMatchIndex: argmax row, or -1 for an empty block.
[[nodiscard]] int BestMatchInBlock(const FeatureVector& probe,
                                   const FeatureBlock& block);

}  // namespace evm
