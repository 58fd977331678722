#pragma once
// The counter vocabulary of the matching pipeline and the helpers that turn
// registry movement into a MatchStats. Both matchers (EvMatcher, the EDP
// baseline) report through here: they snapshot the registry before a run,
// let the instrumented stages accumulate, and derive the per-run stats from
// the delta — so the sequential and MapReduce paths cannot drift apart in
// what they count.

#include <cstdint>

#include "core/types.hpp"
#include "obs/metrics.hpp"

namespace evm {

// Monotonic counters.
inline constexpr char kCtrSplittingIterations[] = "match.splitting_iterations";
inline constexpr char kCtrRefineRounds[] = "match.refine_rounds";
inline constexpr char kCtrFeatureComparisons[] = "match.feature_comparisons";
inline constexpr char kCtrScenariosProcessed[] = "match.scenarios_processed";
// Execution-path counters of the quantized V-stage kernel (registry-only:
// they describe how the scans ran, not what was matched, so they stay out
// of MatchStats and its exact-equality determinism checks).
inline constexpr char kCtrExactFeatureRows[] = "match.exact_feature_rows";
inline constexpr char kCtrQuantizedFullScans[] = "match.quantized_full_scans";
inline constexpr char kCtrGalleryExtractions[] = "gallery.extractions";
// Stage latency stats (count = runs; totals delta-able across snapshots).
inline constexpr char kLatEStage[] = "stage.e";
inline constexpr char kLatVStage[] = "stage.v";
// Gauges holding the latest run's derived statistics.
inline constexpr char kGaugeDistinctScenarios[] = "match.distinct_scenarios";
inline constexpr char kGaugeAvgScenariosPerEid[] =
    "match.avg_scenarios_per_eid";
inline constexpr char kGaugeUndistinguishedEids[] =
    "match.undistinguished_eids";

/// Point-in-time values of the counters a MatchStats is derived from.
struct MatchCounterSnapshot {
  std::uint64_t splitting_iterations{0};
  std::uint64_t refine_rounds{0};
  std::uint64_t feature_comparisons{0};
  std::uint64_t scenarios_processed{0};
  std::uint64_t gallery_extractions{0};
  double e_stage_seconds{0.0};
  double v_stage_seconds{0.0};
};

[[nodiscard]] MatchCounterSnapshot SnapshotMatchCounters(
    const obs::MetricsRegistry& registry);

/// Fills the counter-derived fields of `stats` with (after - before).
void ApplyMatchCounterDelta(const MatchCounterSnapshot& before,
                            const MatchCounterSnapshot& after,
                            MatchStats& stats);

/// Publishes the non-monotonic, per-run statistics as gauges.
void PublishDerivedStats(obs::MetricsRegistry* registry,
                         const MatchStats& stats);

}  // namespace evm
