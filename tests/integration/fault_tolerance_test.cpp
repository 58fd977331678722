// Fault-tolerance integration tests: the full matching pipeline running on
// an engine that injects task crashes must produce byte-identical results
// to a clean run — re-execution is the engine's job, not the algorithm's.

#include <gtest/gtest.h>

#include "baseline/edp.hpp"
#include "core/matcher.hpp"
#include "dataset/generator.hpp"
#include "metrics/experiment.hpp"

namespace evm {
namespace {

DatasetConfig SmallWorld(std::uint64_t seed) {
  DatasetConfig config;
  config.population = 150;
  config.ticks = 400;
  config.cell_size_m = 250.0;
  config.seed = seed;
  return config;
}

TEST(FaultToleranceTest, MatcherSurvivesInjectedEngineFailures) {
  const Dataset dataset = GenerateDataset(SmallWorld(71));
  const auto targets = SampleTargets(dataset, 40, 2);

  MatcherConfig clean;
  clean.engine.workers = 2;
  EvMatcher clean_matcher(dataset.e_scenarios, dataset.v_scenarios,
                          dataset.oracle, clean);
  const MatchReport a = clean_matcher.Match(targets);

  MatcherConfig flaky = clean;
  flaky.engine.seed = 13;
  flaky.engine.map_failure_prob = 0.25;
  flaky.engine.reduce_failure_prob = 0.25;
  flaky.engine.max_attempts = 40;
  EvMatcher flaky_matcher(dataset.e_scenarios, dataset.v_scenarios,
                          dataset.oracle, flaky);
  const MatchReport b = flaky_matcher.Match(targets);
  // The injection must actually reach the matching tasks.
  EXPECT_GT(flaky_matcher.metrics().CounterValue(
                mapreduce::kMrInjectedMapFailures),
            0u);

  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].reported_vid, b.results[i].reported_vid);
    EXPECT_EQ(a.results[i].chosen_per_scenario,
              b.results[i].chosen_per_scenario);
  }
  ASSERT_EQ(a.scenario_lists.size(), b.scenario_lists.size());
  for (std::size_t i = 0; i < a.scenario_lists.size(); ++i) {
    EXPECT_EQ(a.scenario_lists[i].scenarios, b.scenario_lists[i].scenarios);
  }
}

TEST(FaultToleranceTest, MatcherUnaffectedByStragglersAndSpeculation) {
  // Injected stragglers slow first attempts; speculative backups race them.
  // Whoever wins the commit, the match must be identical to a clean run.
  const Dataset dataset = GenerateDataset(SmallWorld(73));
  const auto targets = SampleTargets(dataset, 30, 2);

  MatcherConfig clean;
  clean.engine.workers = 2;
  EvMatcher clean_matcher(dataset.e_scenarios, dataset.v_scenarios,
                          dataset.oracle, clean);
  const MatchReport a = clean_matcher.Match(targets);

  MatcherConfig slow = clean;
  slow.engine.seed = 29;
  slow.engine.map_straggler_prob = 0.1;
  slow.engine.reduce_straggler_prob = 0.1;
  slow.engine.straggler_delay = std::chrono::milliseconds(20);
  slow.engine.scheduler.speculation = true;
  slow.engine.scheduler.speculation_min_completed = 0.3;
  EvMatcher slow_matcher(dataset.e_scenarios, dataset.v_scenarios,
                         dataset.oracle, slow);
  const MatchReport b = slow_matcher.Match(targets);

  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].reported_vid, b.results[i].reported_vid);
    EXPECT_EQ(a.results[i].chosen_per_scenario,
              b.results[i].chosen_per_scenario);
  }
}

TEST(FaultToleranceTest, PipelineFailsCleanlyWhenRetriesExhaust) {
  const Dataset dataset = GenerateDataset(SmallWorld(72));
  const auto targets = SampleTargets(dataset, 10, 1);
  MatcherConfig doomed;
  doomed.engine.workers = 2;
  doomed.engine.map_failure_prob = 0.97;
  doomed.engine.max_attempts = 2;
  EvMatcher matcher(dataset.e_scenarios, dataset.v_scenarios, dataset.oracle,
                    doomed);
  EXPECT_THROW((void)matcher.Match(targets), Error);
}

}  // namespace
}  // namespace evm
