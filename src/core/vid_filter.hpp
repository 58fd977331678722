#pragma once
// VID filtering — the V stage of EV-Matching (paper Sec. IV-B2).
//
// Given the presence-scenario list selected for an EID, the matching VID is
// the one whose appearance shows up in every corresponding V-Scenario. Each
// candidate feature f is scored P(f) = prod_i P(f in S_i) with
// P(f in S) = max over observations of sim(f, obs) (Eq. 1); the candidate
// pool is drawn from the list's smallest scenario (the true VID must appear
// in all of them, so any one scenario suffices — the smallest minimizes
// comparisons). The winner then nominates, in every scenario, the
// observation most similar to it; the reported VID is the majority vote of
// those nominations, which is exactly the quantity the paper's accuracy
// metric tests.

#include <cstdint>

#include "core/types.hpp"
#include "obs/trace.hpp"
#include "vsense/gallery.hpp"
#include "vsense/v_scenario.hpp"

namespace evm {

/// Counters accumulated across FilterVid calls.
struct VidFilterCounters {
  /// Feature rows *visited* by scoring/nomination scans — the paper's cost
  /// metric. Independent of the execution strategy below, so it stays
  /// bit-stable whether a scan ran quantized or exact.
  std::uint64_t feature_comparisons{0};
  std::uint64_t scenarios_processed{0};
  /// Rows whose exact float kernel actually ran (shortlist survivors plus
  /// all rows of blocks too small to quantize). The quantized shortlist's
  /// effectiveness is 1 - exact_feature_rows / feature_comparisons.
  std::uint64_t exact_feature_rows{0};
  /// Quantized scans whose error bound could not exclude any row (the
  /// shortlist degenerated to a full exact scan).
  std::uint64_t quantized_full_scans{0};
};

/// Where the candidate pool for the probability product is drawn from.
enum class CandidatePool {
  /// Observations of the list's smallest scenario only. Cheaper (the true
  /// VID must appear in every scenario, so any one suffices) but fragile
  /// when the target's single crop there is badly occluded.
  kSmallestScenario,
  /// Observations of every scenario in the list — the paper's formulation
  /// ("for each VID in these scenarios"): the true person gets one
  /// candidate chance per scenario. Default.
  kAllScenarios,
};

struct VidFilterOptions {
  CandidatePool candidate_pool{CandidatePool::kAllScenarios};
};

/// Runs VID filtering for one EID's scenario list. `gallery` provides (and
/// caches) the observation features; scenarios missing from `v_scenarios`
/// or with no detections are skipped. Returns an unresolved result when no
/// usable scenario remains. A non-null `trace` records a v-filter.eid span
/// per call.
[[nodiscard]] MatchResult FilterVid(const EidScenarioList& list,
                                    const VScenarioSet& v_scenarios,
                                    FeatureGallery& gallery,
                                    VidFilterCounters& counters,
                                    const VidFilterOptions& options = {},
                                    obs::TraceRecorder* trace = nullptr);

}  // namespace evm
