#pragma once
// EDP — the baseline matcher (paper ref [24]: Teng et al., "EV: efficient
// visual surveillance with electronic footprints", INFOCOM'12), as used for
// comparison in the paper's evaluation (Sec. VI-B).
//
// EDP handles one EID at a time: its E stage walks the EID's own electronic
// footprint — scenarios the target EID appears in, visited in random time
// order — and keeps selecting them until the set of EIDs co-appearing in
// every selected scenario shrinks to the target alone. The V stage is the
// same VID filtering as EV-Matching. There is no cross-EID coordination, so
// a scenario selected for one EID is reused by another only by chance —
// this is exactly the inefficiency EV-Matching's set splitting removes.
//
// For fair comparison the paper adapts EDP to MapReduce by assigning each
// mapper one EID matching task; EdpMatcher does the same on its engine:
// footprint selection fans out over the engine's pool, and the V stage runs
// the shared per-EID filter tasks (RunFilterStageScheduled). The feature
// gallery is shared, so reused scenarios are extracted once and "reused
// scenario is only counted once" holds for both algorithms.

#include <vector>

#include "core/matcher.hpp"
#include "core/set_splitting.hpp"
#include "core/types.hpp"
#include "core/vid_filter.hpp"
#include "esense/e_scenario.hpp"
#include "mapreduce/engine.hpp"
#include "vsense/gallery.hpp"
#include "vsense/v_scenario.hpp"
#include "vsense/visual_oracle.hpp"

namespace evm {

struct EdpConfig {
  /// Seed of the (shared) random window visiting order.
  std::uint64_t seed{11};
  /// Safety cap on scenarios selected per EID.
  std::size_t max_scenarios_per_eid{64};
  /// Same semantics as MatcherConfig::engine.
  mapreduce::EngineOptions engine{};
  /// Same semantics as MatcherConfig::metrics / ::trace.
  obs::MetricsRegistry* metrics{nullptr};
  obs::TraceRecorder* trace{nullptr};
};

class EdpMatcher {
 public:
  EdpMatcher(const EScenarioSet& e_scenarios, const VScenarioSet& v_scenarios,
             const VisualOracle& oracle, EdpConfig config);

  /// Matches each target EID independently (EDP's per-EID pipeline).
  [[nodiscard]] MatchReport Match(const std::vector<Eid>& targets);

  [[nodiscard]] MatchReport MatchOne(Eid eid) { return Match({eid}); }

  [[nodiscard]] const std::vector<Eid>& Universe() const noexcept {
    return universe_;
  }
  [[nodiscard]] const FeatureGallery& gallery() const noexcept {
    return gallery_;
  }

  /// E stage only, exposed for tests and scenario-count benches: the
  /// footprint scenario list selected for one EID.
  [[nodiscard]] EidScenarioList SelectScenariosFor(Eid eid) const;

  /// Registry the baseline's counters accumulate into (the configured one,
  /// or the matcher-owned fallback).
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept {
    return config_.metrics != nullptr ? *config_.metrics : own_metrics_;
  }

 private:
  const EScenarioSet& e_scenarios_;
  const VScenarioSet& v_scenarios_;
  EdpConfig config_;
  std::vector<Eid> universe_;
  obs::MetricsRegistry own_metrics_;  // used when config_.metrics is null
  FeatureGallery gallery_;
  mapreduce::MapReduceEngine engine_;
  // presence_[uidx][window] = scenario the EID appears in (inclusively)
  // during that window, or invalid.
  std::vector<std::vector<ScenarioId>> presence_;
};

}  // namespace evm
