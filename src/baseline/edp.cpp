#include "baseline/edp.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/match_counters.hpp"
#include "core/match_stages.hpp"

namespace evm {

EdpMatcher::EdpMatcher(const EScenarioSet& e_scenarios,
                       const VScenarioSet& v_scenarios,
                       const VisualOracle& oracle, EdpConfig config)
    : e_scenarios_(e_scenarios),
      v_scenarios_(v_scenarios),
      config_(config),
      universe_(CollectUniverse(e_scenarios)),
      gallery_(oracle, &metrics(), config_.trace),
      engine_(MatcherEngineOptions(config_.engine, metrics(), config_.trace)) {
  std::unordered_map<std::uint64_t, std::uint32_t> uidx_of;
  for (std::uint32_t i = 0; i < universe_.size(); ++i) {
    uidx_of.emplace(universe_[i].value(), i);
  }
  presence_.assign(universe_.size(),
                   std::vector<ScenarioId>(e_scenarios_.window_count(),
                                           ScenarioId{}));
  for (const EScenario& scenario : e_scenarios_.scenarios()) {
    const std::size_t window = e_scenarios_.WindowOf(scenario.id);
    for (const EidEntry& entry : scenario.entries) {
      if (entry.attr != EidAttr::kInclusive) continue;
      const auto it = uidx_of.find(entry.eid.value());
      if (it == uidx_of.end()) continue;
      presence_[it->second][window] = scenario.id;
    }
  }
}

EidScenarioList EdpMatcher::SelectScenariosFor(Eid eid) const {
  EidScenarioList list;
  list.eid = eid;
  const auto it =
      std::lower_bound(universe_.begin(), universe_.end(), eid);
  EVM_CHECK_MSG(it != universe_.end() && *it == eid,
                "EID not present in the E data");
  const auto uidx = static_cast<std::size_t>(it - universe_.begin());

  // EDP's E-filtering walks the EID's own electronic footprint and greedily
  // keeps the most discriminative scenarios: at every step it selects the
  // footprint scenario that shrinks the candidate set (EIDs co-appearing in
  // every selected scenario so far) the most, until only the target remains.
  // Each EID matching task is independent — one mapper per EID — so whether
  // another EID happens to pick the same scenario is purely coincidental
  // (the paper's Fig. 5/6 discussion).
  const std::vector<ScenarioId>& footprint = presence_[uidx];
  std::vector<char> used(footprint.size(), 0);

  // Step 1: a random scenario of the footprint — each EID's mapper starts
  // from its own random position in the recording.
  std::vector<std::size_t> valid_windows;
  for (std::size_t w = 0; w < footprint.size(); ++w) {
    if (footprint[w].valid() && e_scenarios_.Find(footprint[w]) != nullptr) {
      valid_windows.push_back(w);
    }
  }
  if (valid_windows.empty()) return list;  // never captured
  Rng start_rng = MakeStream(config_.seed ^ eid.value(), "edp-start");
  const std::size_t best_window =
      valid_windows[start_rng.NextBelow(valid_windows.size())];

  const EScenario* first = e_scenarios_.Find(footprint[best_window]);
  std::vector<Eid> candidates;
  candidates.reserve(first->entries.size());
  for (const EidEntry& entry : first->entries) candidates.push_back(entry.eid);
  used[best_window] = 1;
  list.scenarios.push_back(footprint[best_window]);

  while (candidates.size() > 1 &&
         list.scenarios.size() < config_.max_scenarios_per_eid) {
    std::size_t pick = footprint.size();
    std::size_t pick_count = candidates.size();  // must strictly shrink
    for (std::size_t w = 0; w < footprint.size(); ++w) {
      if (used[w] || !footprint[w].valid()) continue;
      const EScenario* scenario = e_scenarios_.Find(footprint[w]);
      if (scenario == nullptr) continue;
      std::size_t count = 0;
      for (const Eid candidate : candidates) {
        if (scenario->Contains(candidate)) ++count;
      }
      if (count < pick_count) {
        pick_count = count;
        pick = w;
        if (pick_count == 1) break;  // cannot do better: target alone
      }
    }
    if (pick == footprint.size()) break;  // no scenario makes progress
    const EScenario* scenario = e_scenarios_.Find(footprint[pick]);
    std::vector<Eid> narrowed;
    narrowed.reserve(pick_count);
    for (const Eid candidate : candidates) {
      if (scenario->Contains(candidate)) narrowed.push_back(candidate);
    }
    candidates = std::move(narrowed);
    used[pick] = 1;
    list.scenarios.push_back(footprint[pick]);
  }
  list.distinguished = candidates.size() == 1;
  return list;
}

MatchReport EdpMatcher::Match(const std::vector<Eid>& targets) {
  EVM_CHECK_MSG(!targets.empty(), "no target EIDs");
  obs::MetricsRegistry& reg = metrics();
  obs::TraceRecorder* const trace = config_.trace;
  MatchReport report;
  report.scenario_lists.resize(targets.size());
  const MatchCounterSnapshot before = SnapshotMatchCounters(reg);
  obs::StageSpan match_span(trace, "edp-match");
  obs::AmbientParentScope match_ambient(trace, match_span.id());

  // E stage: independent footprint selection per EID.
  {
    obs::StageSpan span(trace, "e-select", reg.latency(kLatEStage));
    obs::AmbientParentScope ambient(trace, span.id());
    engine_.pool().ParallelFor(targets.size(), [&](std::size_t i) {
      report.scenario_lists[i] = SelectScenariosFor(targets[i]);
    });
  }

  // V stage: the same VID filtering as EV-Matching, one engine task per EID
  // matching task (the paper's one-mapper-per-EID adaptation).
  RunFilterStageScheduled(
      report.scenario_lists, v_scenarios_, gallery_, {}, report.results, reg,
      trace, [this](const std::vector<mapreduce::TaskFn>& tasks) {
        engine_.RunTasks("edp-filter", "filter", tasks);
      });

  std::unordered_set<std::uint64_t> distinct;
  std::size_t total_length = 0;
  for (const EidScenarioList& list : report.scenario_lists) {
    total_length += list.scenarios.size();
    if (!list.distinguished) ++report.stats.undistinguished_eids;
    for (const ScenarioId id : list.scenarios) distinct.insert(id.value());
  }
  report.stats.distinct_scenarios = distinct.size();
  report.stats.avg_scenarios_per_eid =
      static_cast<double>(total_length) / static_cast<double>(targets.size());
  ApplyMatchCounterDelta(before, SnapshotMatchCounters(reg), report.stats);
  PublishDerivedStats(&reg, report.stats);
  return report;
}

}  // namespace evm
