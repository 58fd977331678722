#pragma once
// EvMatcher — the public facade of the EV-Matching system.
//
// Supports the paper's elastic matching sizes: MatchOne (a single suspect's
// EID), Match (any subset) and MatchUniversal (label every EID in the
// dataset). EID set splitting runs sequentially (RunSplitStage): in one
// process it is 2-12x faster than the paper's MapReduce formulation of
// Sec. V-B (ParallelSetSplitter, DESIGN.md §17). The V stage fans out
// across the matcher's MapReduceEngine as one fault-tolerant task per EID
// (Sec. V-C); each task extracts the features it needs through the shared
// gallery.
//
// The feature gallery persists across calls, so after a universal matching
// run subsequent queries are answered almost entirely from cached features —
// the "after universal labeling, future queries are more efficient"
// behaviour the paper describes.

#include <vector>

#include "core/match_stages.hpp"
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

struct MatcherConfig {
  SplitConfig split{};
  VidFilterOptions filter{};
  RefineConfig refine{};
  /// Options of the engine that runs the V stage's per-EID tasks
  /// (workers = 0: hardware concurrency).
  mapreduce::EngineOptions engine{};
  /// Registry the pipeline counters accumulate into; null = a matcher-owned
  /// registry (MatchStats works either way). One run at a time per registry:
  /// concurrent Match calls sharing a registry would interleave their deltas.
  obs::MetricsRegistry* metrics{nullptr};
  /// Span recorder for nested stage timing; null = no tracing.
  obs::TraceRecorder* trace{nullptr};
};

/// `engine`, with its metrics registry and trace recorder defaulted to the
/// matcher's, so mr.* counters land next to the match.* ones.
[[nodiscard]] mapreduce::EngineOptions MatcherEngineOptions(
    mapreduce::EngineOptions engine, obs::MetricsRegistry& metrics,
    obs::TraceRecorder* trace);

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
  const EScenarioSet& e_scenarios_;
  const VScenarioSet& v_scenarios_;
  MatcherConfig config_;
  std::vector<Eid> universe_;
  obs::MetricsRegistry own_metrics_;  // used when config_.metrics is null
  FeatureGallery gallery_;
  mapreduce::MapReduceEngine engine_;
};

}  // namespace evm
