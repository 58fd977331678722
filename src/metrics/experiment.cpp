#include "metrics/experiment.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "metrics/accuracy.hpp"

namespace evm {

std::vector<Eid> SampleTargets(const Dataset& dataset, std::size_t count,
                               std::uint64_t seed) {
  std::vector<Eid> pool = dataset.AllEids();
  EVM_CHECK_MSG(count <= pool.size(),
                "more targets requested than device holders");
  Rng rng = MakeStream(seed, "target-sample");
  for (std::size_t i = pool.size(); i > 1; --i) {
    std::swap(pool[i - 1], pool[rng.NextBelow(i)]);
  }
  pool.resize(count);
  std::sort(pool.begin(), pool.end());
  return pool;
}

RunSummary RunSs(const Dataset& dataset, const std::vector<Eid>& targets,
                 const MatcherConfig& config) {
  EvMatcher matcher(dataset.e_scenarios, dataset.v_scenarios, dataset.oracle,
                    config);
  const MatchReport report = matcher.Match(targets);
  return RunSummary{report.stats, MatchAccuracy(report.results, dataset.truth),
                    targets.size()};
}

RunSummary RunEdp(const Dataset& dataset, const std::vector<Eid>& targets,
                  const EdpConfig& config) {
  EdpMatcher matcher(dataset.e_scenarios, dataset.v_scenarios, dataset.oracle,
                     config);
  const MatchReport report = matcher.Match(targets);
  return RunSummary{report.stats, MatchAccuracy(report.results, dataset.truth),
                    targets.size()};
}

MatcherConfig DefaultSsConfig(bool practical) {
  MatcherConfig config;
  config.split.mode = SplitMode::kWindowSignature;
  config.split.practical = practical;
  config.refine.enabled = practical;
  return config;
}

EdpConfig DefaultEdpConfig() { return EdpConfig{}; }

namespace {

EStageSummary SummarizeLists(const std::vector<EidScenarioList>& lists,
                             double seconds) {
  EStageSummary summary;
  summary.e_stage_seconds = seconds;
  std::unordered_set<std::uint64_t> distinct;
  std::size_t total = 0;
  for (const EidScenarioList& list : lists) {
    total += list.scenarios.size();
    if (!list.distinguished) ++summary.undistinguished;
    for (const ScenarioId id : list.scenarios) distinct.insert(id.value());
  }
  summary.distinct_scenarios = distinct.size();
  summary.avg_scenarios_per_eid =
      lists.empty() ? 0.0
                    : static_cast<double>(total) /
                          static_cast<double>(lists.size());
  return summary;
}

}  // namespace

EStageSummary RunSsEStage(const Dataset& dataset,
                          const std::vector<Eid>& targets,
                          const SplitConfig& config) {
  const std::vector<Eid> universe = CollectUniverse(dataset.e_scenarios);
  Stopwatch watch;
  const SplitOutcome outcome =
      SetSplitter(dataset.e_scenarios, config).Run(universe, targets);
  return SummarizeLists(outcome.lists, watch.ElapsedSeconds());
}

EStageSummary RunEdpEStage(const Dataset& dataset,
                           const std::vector<Eid>& targets,
                           const EdpConfig& config) {
  EdpMatcher matcher(dataset.e_scenarios, dataset.v_scenarios, dataset.oracle,
                     config);
  Stopwatch watch;
  std::vector<EidScenarioList> lists;
  lists.reserve(targets.size());
  for (const Eid target : targets) {
    lists.push_back(matcher.SelectScenariosFor(target));
  }
  return SummarizeLists(lists, watch.ElapsedSeconds());
}

}  // namespace evm
