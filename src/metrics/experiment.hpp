#pragma once
// Experiment helpers shared by the bench harnesses: target sampling, and
// one-call runs of the SS (EV-Matching) and EDP pipelines over a generated
// dataset, returning the paper's reported quantities.

#include <cstdint>
#include <vector>

#include "baseline/edp.hpp"
#include "core/matcher.hpp"
#include "dataset/generator.hpp"

namespace evm {

/// Outcome of one pipeline run, in the units the paper reports.
struct RunSummary {
  MatchStats stats;
  double accuracy{0.0};
  std::size_t matched_eids{0};
};

/// Samples `count` target EIDs uniformly without replacement from the
/// dataset's device holders. Deterministic in `seed`.
[[nodiscard]] std::vector<Eid> SampleTargets(const Dataset& dataset,
                                             std::size_t count,
                                             std::uint64_t seed);

/// Runs EV-Matching (SS) for `targets` and scores it.
[[nodiscard]] RunSummary RunSs(const Dataset& dataset,
                               const std::vector<Eid>& targets,
                               const MatcherConfig& config);

/// Runs the EDP baseline for `targets` and scores it.
[[nodiscard]] RunSummary RunEdp(const Dataset& dataset,
                                const std::vector<Eid>& targets,
                                const EdpConfig& config);

/// Default matcher/EDP configurations used across the paper-reproduction
/// benches (engine with all hardware workers).
[[nodiscard]] MatcherConfig DefaultSsConfig(bool practical = false);
[[nodiscard]] EdpConfig DefaultEdpConfig();

/// E-stage-only summaries — Figs. 5-7 report scenario-selection counts,
/// which do not require running the (expensive) V stage.
struct EStageSummary {
  std::size_t distinct_scenarios{0};
  double avg_scenarios_per_eid{0.0};
  double e_stage_seconds{0.0};
  std::size_t undistinguished{0};
};

[[nodiscard]] EStageSummary RunSsEStage(const Dataset& dataset,
                                        const std::vector<Eid>& targets,
                                        const SplitConfig& config);
[[nodiscard]] EStageSummary RunEdpEStage(const Dataset& dataset,
                                         const std::vector<Eid>& targets,
                                         const EdpConfig& config);

}  // namespace evm
