#pragma once
// EvMatcher — the public facade of the EV-Matching system.
//
// Supports the paper's elastic matching sizes: MatchOne (a single suspect's
// EID), Match (any subset) and MatchUniversal (label every EID in the
// dataset). Execution is either sequential or parallel; the parallel mode
// runs EID set splitting as the MapReduce workflow of Sec. V-B and fans the
// V stage out across the engine's workers (feature extraction per scenario,
// then per-EID comparison), per Sec. V-C.
//
// The feature gallery persists across calls, so after a universal matching
// run subsequent queries are answered almost entirely from cached features —
// the "after universal labeling, future queries are more efficient"
// behaviour the paper describes.

#include <memory>
#include <vector>

#include "core/match_stages.hpp"
#include "core/parallel_split.hpp"
#include "core/set_splitting.hpp"
#include "core/types.hpp"
#include "core/vid_filter.hpp"
#include "mapreduce/engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "vsense/gallery.hpp"
#include "vsense/v_scenario.hpp"
#include "vsense/visual_oracle.hpp"

namespace evm {

enum class ExecutionMode {
  kSequential,
  kMapReduce,
};

struct MatcherConfig {
  SplitConfig split{};
  VidFilterOptions filter{};
  RefineConfig refine{};
  ExecutionMode execution{ExecutionMode::kSequential};
  /// Engine options for ExecutionMode::kMapReduce.
  mapreduce::EngineOptions engine{};
  /// Registry the pipeline counters accumulate into; null = a matcher-owned
  /// registry (MatchStats works either way). One run at a time per registry:
  /// concurrent Match calls sharing a registry would interleave their deltas.
  obs::MetricsRegistry* metrics{nullptr};
  /// Span recorder for nested stage timing; null = no tracing.
  obs::TraceRecorder* trace{nullptr};
};

class EvMatcher {
 public:
  /// The scenario sets and oracle must outlive the matcher.
  EvMatcher(const EScenarioSet& e_scenarios, const VScenarioSet& v_scenarios,
            const VisualOracle& oracle, MatcherConfig config);

  /// Matches every EID of `targets` (must appear in the E data).
  [[nodiscard]] MatchReport Match(const std::vector<Eid>& targets);

  /// Single-EID matching.
  [[nodiscard]] MatchReport MatchOne(Eid eid);

  /// Universal matching: every EID in the dataset gets labeled.
  [[nodiscard]] MatchReport MatchUniversal();

  /// The EID universe extracted from the E-Scenario set (sorted).
  [[nodiscard]] const std::vector<Eid>& Universe() const noexcept {
    return universe_;
  }

  /// The persistent feature cache (shared across Match calls).
  [[nodiscard]] const FeatureGallery& gallery() const noexcept {
    return gallery_;
  }

  /// Registry every pipeline counter accumulates into (the configured one,
  /// or the matcher-owned fallback).
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept {
    return config_.metrics != nullptr ? *config_.metrics : own_metrics_;
  }

 private:
  [[nodiscard]] SplitOutcome RunSplit(const std::vector<Eid>& targets,
                                      std::uint64_t seed);
  void RunFilter(const std::vector<EidScenarioList>& lists,
                 std::vector<MatchResult>& results);

  const EScenarioSet& e_scenarios_;
  const VScenarioSet& v_scenarios_;
  MatcherConfig config_;
  std::vector<Eid> universe_;
  obs::MetricsRegistry own_metrics_;  // used when config_.metrics is null
  FeatureGallery gallery_;
  std::unique_ptr<mapreduce::MapReduceEngine> engine_;  // kMapReduce only
};

}  // namespace evm
