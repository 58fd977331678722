#include "vsense/feature_block.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "vsense/kernels/best_in_block.hpp"

namespace evm {
namespace {

// Shared arithmetic of the exact scan and the quantized shortlist
// (DESIGN.md §12): both paths fold rows through these, which keeps them
// bit-identical to each other.

/// Plain-sum L1 mass, accumulated in the same order as the scalar
/// FeatureDistance so precomputed masses match its float rounding.
inline float MassOf(const float* data, std::size_t n) {
  float mass = 0.0f;
  for (std::size_t i = 0; i < n; ++i) mass += data[i];
  return mass;
}

/// Eq. (1) similarity from an L1 distance and the operands' masses —
/// identical arithmetic to the scalar FeatureDistance tail.
inline double SimilarityFromL1(float l1, float mass_a, float mass_b) {
  const double max_l1 = std::max(
      {static_cast<double>(mass_a) + static_cast<double>(mass_b), 2.0});
  return 1.0 - std::clamp(static_cast<double>(l1) / max_l1, 0.0, 1.0);
}

/// Bound on |PaddedL1's float result - real-valued L1|. Each of the 8 lanes
/// performs stride/8 adds plus the 7-op reduction; every intermediate is
/// bounded by the real L1 <= mass_a + mass_b, and each float op contributes
/// at most one ulp (2^-23 relative). The +2.0 keeps the bound positive for
/// all-zero masses and absorbs the subtraction/fabs rounding per term.
inline double FloatScanSlack(std::size_t stride, double mass_sum) {
  return (static_cast<double>(stride) / 8.0 + 8.0) * 0x1p-23 *
             (mass_sum + 2.0) +
         1e-12;
}

/// Folds one exactly-computed row distance into the running best
/// (first-row-wins: strictly greater replaces).
inline void FoldRow(BlockMatch& best, std::size_t r, float l1, float mass_p,
                    float mass_r) {
  const double sim = SimilarityFromL1(l1, mass_p, mass_r);
  if (sim > best.similarity) {
    best.index = static_cast<int>(r);
    best.similarity = sim;
  }
}

BlockMatch ScanAllRows(kernels::Isa isa, const PaddedProbe& probe,
                       const FeatureBlock& block) {
  BlockMatch best;
  const std::size_t stride = block.stride();
  const std::size_t rows = block.rows();
  std::size_t r = 0;
  for (; r + 1 < rows; r += 2) {
    float l1[2];
    kernels::PaddedL1x2WithIsa(isa, probe.data(), block.RowData(r),
                               block.RowData(r + 1), stride, l1);
    FoldRow(best, r, l1[0], probe.mass(), block.RowMass(r));
    FoldRow(best, r + 1, l1[1], probe.mass(), block.RowMass(r + 1));
  }
  if (r < rows) {
    FoldRow(best, r,
            kernels::PaddedL1WithIsa(isa, probe.data(), block.RowData(r),
                                     stride),
            probe.mass(), block.RowMass(r));
  }
  return best;
}

/// SAD-shortlist scan (see DESIGN.md §12 for the exactness argument). The
/// quantized distance scale*SAD brackets the real L1 within the stored
/// residual masses, so rows whose optimistic similarity cannot strictly
/// exceed the running best are excluded without touching their floats; every
/// survivor is re-ranked with the exact kernel, first row still wins ties.
BlockMatch ScanQuantized(const PaddedProbe& probe, const FeatureBlock& block,
                         BlockScanStats* stats) {
  const kernels::QuantizedFeatureBlock& q = block.quantized();
  const std::size_t rows = block.rows();
  const std::size_t stride = block.stride();
  const std::size_t qstride = q.qstride();

  thread_local std::vector<std::uint8_t> probe_codes;
  thread_local std::vector<std::uint32_t> sads;
  thread_local std::vector<std::uint32_t> keep;
  probe_codes.resize(qstride);
  sads.resize(rows);
  keep.resize(rows);
  const double err_p = q.QuantizeProbe(probe.data(), probe_codes.data());

  // Pass 1: batched SAD sweep (one kernel dispatch), then the argmin — the
  // most promising row, whose certified similarity seeds the threshold.
  kernels::SadU8Rows(probe_codes.data(), q.RowCodes(0), rows, qstride,
                     sads.data());
  const std::size_t amin = kernels::ArgMinU32(sads.data(), rows);

  // Guaranteed-reachable similarity at amin: its float L1 is at most
  // scale*SAD + both residuals + float slack, so its similarity is at least
  // this much — and the true best can only be higher.
  const double scale = q.scale();
  const double slack_coeff = (static_cast<double>(stride) / 8.0 + 8.0) *
                             0x1p-23;  // FloatScanSlack per unit mass term
  const double mass_p = static_cast<double>(probe.mass());
  double floor_sim;
  {
    const double mass_sum = mass_p + static_cast<double>(block.RowMass(amin));
    const double l1_ub = scale * static_cast<double>(sads[amin]) + err_p +
                         q.RowError(amin) +
                         FloatScanSlack(stride, mass_sum);
    const double max_l1 = std::max(mass_sum, 2.0);
    floor_sim = 1.0 - std::clamp(l1_ub / max_l1, 0.0, 1.0);
  }

  // Pass 2 (shortlist + re-rank, ascending rows): row r is provably below
  // the threshold L when
  //     scale*sad_r - err_p - err_r - slack_r > (1 - L) * M_r.
  // Instead of evaluating that per row, hoist one uniform integer cut: the
  // right-hand side and the err/slack terms are monotone in mass_r and
  // err_r, so substituting the block maxima gives CUT >= cut_r for every r,
  // and sad_r > CUT (a single integer compare on the sweep output) is a
  // conservative exclusion. Exclusion stays STRICT — floor(cut) with
  // integer sads keeps every row whose bound exactly meets the threshold —
  // so the argmax and every row that could tie it is re-ranked with the
  // exact float kernel; first-wins strict > then makes the result
  // bit-identical to the exact scan.
  //
  // The threshold must be strictly positive: similarity clamps at 0, so
  // with L = 0 a row whose bound (or even exact value) pins it to 0 could
  // still be the first-wins argmax. floor_sim <= the true best similarity,
  // so it is a valid L; no exclusion otherwise (full-scan fallback).
  std::uint32_t cut = std::numeric_limits<std::uint32_t>::max();
  if (floor_sim > 0.0) {
    const double mass_hi = mass_p + static_cast<double>(block.MaxRowMass());
    const double rhs = (1.0 - floor_sim) * std::max(mass_hi, 2.0) + err_p +
                       q.MaxRowError() +
                       (slack_coeff * (mass_hi + 2.0) + 1e-12);
    const double cut_d = rhs / scale;
    if (cut_d < static_cast<double>(cut)) {
      cut = static_cast<std::uint32_t>(cut_d);  // floor: sad > cut => sad > cut_d
    }
  }

  BlockMatch best;
  const std::size_t kept =
      kernels::CollectLeU32(sads.data(), rows, cut, keep.data());
  for (std::size_t k = 0; k < kept; ++k) {
    const std::size_t r = keep[k];  // ascending, so first-wins is preserved
    FoldRow(best, r,
            kernels::PaddedL1(probe.data(), block.RowData(r), stride),
            probe.mass(), block.RowMass(r));
  }
  if (stats != nullptr) {
    stats->exact_rows += kept;
    if (kept == rows) ++stats->full_scan_fallbacks;
  }
  return best;
}

}  // namespace

FeatureBlock::FeatureBlock(const std::vector<FeatureVector>& features) {
  rows_ = features.size();
  if (rows_ == 0) return;
  dim_ = features.front().size();
  EVM_CHECK_MSG(dim_ > 0, "empty feature in block");
  stride_ = (dim_ + kRowAlign - 1) / kRowAlign * kRowAlign;
  data_.assign(rows_ * stride_, 0.0f);
  mass_.resize(rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    EVM_CHECK_MSG(features[r].size() == dim_,
                  "feature dimension mismatch in block");
    std::copy(features[r].begin(), features[r].end(),
              data_.begin() + static_cast<std::ptrdiff_t>(r * stride_));
    mass_[r] = MassOf(features[r].data(), dim_);
    max_mass_ = std::max(max_mass_, mass_[r]);
  }
  if (rows_ >= kQuantizedMinRows) {
    quantized_ = kernels::QuantizedFeatureBlock(data_.data(), rows_, stride_);
  }
}

FeatureVector FeatureBlock::Row(std::size_t r) const {
  const float* row = RowData(r);
  return FeatureVector(row, row + dim_);
}

PaddedProbe::PaddedProbe(const FeatureVector& probe, std::size_t stride)
    : mass_(MassOf(probe.data(), probe.size())) {
  EVM_CHECK_MSG(probe.size() <= stride, "probe wider than block stride");
  if (probe.size() == stride) {
    data_ = probe.data();  // already aligned: borrow, no copy
  } else {
    storage_.assign(stride, 0.0f);
    std::copy(probe.begin(), probe.end(), storage_.begin());
    data_ = storage_.data();
  }
}

BlockMatch BestInBlock(const PaddedProbe& probe, const FeatureBlock& block,
                       BlockScanStats* stats) {
  if (block.quantized().empty()) {
    if (stats != nullptr) stats->exact_rows += block.rows();
    return BestInBlockExact(probe, block);
  }
  return ScanQuantized(probe, block, stats);
}

BlockMatch BestInBlock(const PaddedProbe& probe, const FeatureBlock& block) {
  return BestInBlock(probe, block, nullptr);
}

BlockMatch BestInBlockExact(const PaddedProbe& probe,
                            const FeatureBlock& block) {
  return ScanAllRows(kernels::ActiveIsa(), probe, block);
}

BlockMatch BestInBlockReference(const PaddedProbe& probe,
                                const FeatureBlock& block) {
  return ScanAllRows(kernels::Isa::kScalar, probe, block);
}

double BestSimilarityInBlock(const FeatureVector& probe,
                             const FeatureBlock& block) {
  if (block.empty()) return 0.0;
  EVM_CHECK_MSG(probe.size() == block.dim(), "feature dimension mismatch");
  return BestInBlock(PaddedProbe(probe, block.stride()), block).similarity;
}

int BestMatchInBlock(const FeatureVector& probe, const FeatureBlock& block) {
  if (block.empty()) return -1;
  EVM_CHECK_MSG(probe.size() == block.dim(), "feature dimension mismatch");
  return BestInBlock(PaddedProbe(probe, block.stride()), block).index;
}

}  // namespace evm
