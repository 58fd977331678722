#pragma once
// Shared helpers for hand-crafting scenario fixtures and comparing match
// reports in tests.

#include <cstdint>
#include <initializer_list>
#include <vector>

#include <gtest/gtest.h>

#include "common/ids.hpp"
#include "core/types.hpp"
#include "esense/e_scenario.hpp"

namespace evm::test {

/// Builds one E-Scenario at (window, cell) containing `eids`, all inclusive
/// unless listed in `vague`.
inline EScenario MakeScenario(const EScenarioSet& set, std::size_t window,
                              std::uint64_t cell,
                              std::initializer_list<std::uint64_t> eids,
                              std::initializer_list<std::uint64_t> vague = {}) {
  EScenario scenario;
  scenario.id = set.IdFor(window, CellId{cell});
  scenario.cell = CellId{cell};
  scenario.window =
      TimeWindow{Tick{static_cast<std::int64_t>(window) * set.window_ticks()},
                 Tick{(static_cast<std::int64_t>(window) + 1) *
                      set.window_ticks()}};
  for (const std::uint64_t eid : eids) {
    EidAttr attr = EidAttr::kInclusive;
    for (const std::uint64_t v : vague) {
      if (v == eid) attr = EidAttr::kVague;
    }
    scenario.entries.push_back({Eid{eid}, attr});
  }
  std::sort(scenario.entries.begin(), scenario.entries.end(),
            [](const EidEntry& a, const EidEntry& b) { return a.eid < b.eid; });
  return scenario;
}

/// Convenience: a scenario set over `cells` cells with the given scenarios,
/// described as (window, cell, member-eids, vague-eids) tuples.
struct ScenarioSpec {
  std::size_t window;
  std::uint64_t cell;
  std::vector<std::uint64_t> eids;
  std::vector<std::uint64_t> vague{};
};

inline EScenarioSet MakeScenarioSet(std::size_t cells,
                                    const std::vector<ScenarioSpec>& specs) {
  EScenarioSet set(cells, /*window_ticks=*/1);
  for (const ScenarioSpec& spec : specs) {
    EScenario scenario;
    scenario.id = set.IdFor(spec.window, CellId{spec.cell});
    scenario.cell = CellId{spec.cell};
    scenario.window = TimeWindow{Tick{static_cast<std::int64_t>(spec.window)},
                                 Tick{static_cast<std::int64_t>(spec.window) + 1}};
    for (const std::uint64_t eid : spec.eids) {
      EidAttr attr = EidAttr::kInclusive;
      for (const std::uint64_t v : spec.vague) {
        if (v == eid) attr = EidAttr::kVague;
      }
      scenario.entries.push_back({Eid{eid}, attr});
    }
    std::sort(
        scenario.entries.begin(), scenario.entries.end(),
        [](const EidEntry& a, const EidEntry& b) { return a.eid < b.eid; });
    set.Add(std::move(scenario));
  }
  return set;
}

/// {Eid{0}..Eid{n-1}} sorted.
inline std::vector<Eid> EidRange(std::uint64_t n) {
  std::vector<Eid> eids;
  eids.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) eids.emplace_back(i);
  return eids;
}

/// Every field of two reports is equal, except the wall-clock timings.
inline void ExpectSameReport(const MatchReport& a, const MatchReport& b) {
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    const MatchResult& x = a.results[i];
    const MatchResult& y = b.results[i];
    EXPECT_EQ(x.eid, y.eid) << i;
    EXPECT_EQ(x.chosen_per_scenario, y.chosen_per_scenario) << i;
    EXPECT_EQ(x.reported_vid, y.reported_vid) << i;
    EXPECT_EQ(x.confidence, y.confidence) << i;
    EXPECT_EQ(x.majority_fraction, y.majority_fraction) << i;
    EXPECT_EQ(x.resolved, y.resolved) << i;
    EXPECT_EQ(x.e_only, y.e_only) << i;
  }
  ASSERT_EQ(a.scenario_lists.size(), b.scenario_lists.size());
  for (std::size_t i = 0; i < a.scenario_lists.size(); ++i) {
    EXPECT_EQ(a.scenario_lists[i].eid, b.scenario_lists[i].eid) << i;
    EXPECT_EQ(a.scenario_lists[i].scenarios, b.scenario_lists[i].scenarios)
        << i;
    EXPECT_EQ(a.scenario_lists[i].distinguished,
              b.scenario_lists[i].distinguished)
        << i;
  }
  EXPECT_EQ(a.stats.distinct_scenarios, b.stats.distinct_scenarios);
  EXPECT_EQ(a.stats.avg_scenarios_per_eid, b.stats.avg_scenarios_per_eid);
  EXPECT_EQ(a.stats.splitting_iterations, b.stats.splitting_iterations);
  EXPECT_EQ(a.stats.undistinguished_eids, b.stats.undistinguished_eids);
  EXPECT_EQ(a.stats.features_extracted, b.stats.features_extracted);
  EXPECT_EQ(a.stats.feature_comparisons, b.stats.feature_comparisons);
  EXPECT_EQ(a.stats.scenarios_processed, b.stats.scenarios_processed);
  EXPECT_EQ(a.stats.refine_rounds, b.stats.refine_rounds);
}

}  // namespace evm::test
