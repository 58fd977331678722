#include "core/matcher.hpp"

namespace evm {

mapreduce::EngineOptions MatcherEngineOptions(mapreduce::EngineOptions engine,
                                              obs::MetricsRegistry& metrics,
                                              obs::TraceRecorder* trace) {
  if (engine.metrics == nullptr) engine.metrics = &metrics;
  if (engine.trace == nullptr) engine.trace = trace;
  return engine;
}

EvMatcher::EvMatcher(const EScenarioSet& e_scenarios,
                     const VScenarioSet& v_scenarios,
                     const VisualOracle& oracle, MatcherConfig config)
    : e_scenarios_(e_scenarios),
      v_scenarios_(v_scenarios),
      config_(config),
      universe_(CollectUniverse(e_scenarios)),
      gallery_(oracle, &metrics(), config_.trace),
      engine_(MatcherEngineOptions(config_.engine, metrics(), config_.trace)) {}

MatchReport EvMatcher::Match(const std::vector<Eid>& targets) {
  return RunMatchPass(
      targets, config_.refine, config_.split.seed,
      [this](const std::vector<Eid>& subset, std::uint64_t seed) {
        SplitConfig split = config_.split;
        split.seed = seed;
        return RunSplitStage(e_scenarios_, split, universe_, subset, metrics(),
                             config_.trace);
      },
      [this](const std::vector<EidScenarioList>& lists,
             std::vector<MatchResult>& results) {
        RunFilterStageScheduled(
            lists, v_scenarios_, gallery_, config_.filter, results, metrics(),
            config_.trace, [this](const std::vector<mapreduce::TaskFn>& tasks) {
              engine_.RunTasks("ev-filter", "filter", tasks);
            });
      },
      metrics(), config_.trace);
}

MatchReport EvMatcher::MatchOne(Eid eid) { return Match({eid}); }

MatchReport EvMatcher::MatchUniversal() { return Match(universe_); }

}  // namespace evm
