#include "baseline/edp.hpp"

#include <gtest/gtest.h>

#include "core/match_counters.hpp"
#include "dataset/generator.hpp"
#include "metrics/accuracy.hpp"
#include "metrics/experiment.hpp"
#include "tests/testutil.hpp"

namespace evm {
namespace {

using test::MakeScenarioSet;

DatasetConfig EasyConfig(std::uint64_t seed = 21) {
  DatasetConfig config;
  config.population = 120;
  config.ticks = 400;
  config.cell_size_m = 250.0;
  config.seed = seed;
  config.render.occlusion_prob = 0.0;
  config.render.crop_jitter = 0.05;
  config.render.sensor_noise = 3.0;
  return config;
}

TEST(EdpTest, SelectedScenariosAllContainTheTarget) {
  const Dataset dataset = GenerateDataset(EasyConfig());
  EdpMatcher matcher(dataset.e_scenarios, dataset.v_scenarios, dataset.oracle,
                     EdpConfig{});
  const Eid target = dataset.AllEids()[7];
  const EidScenarioList list = matcher.SelectScenariosFor(target);
  EXPECT_TRUE(list.distinguished);
  EXPECT_FALSE(list.scenarios.empty());
  for (const ScenarioId id : list.scenarios) {
    const EScenario* scenario = dataset.e_scenarios.Find(id);
    ASSERT_NE(scenario, nullptr);
    EXPECT_TRUE(scenario->ContainsInclusive(target));
  }
}

TEST(EdpTest, FootprintIntersectionIsSingleton) {
  // EDP's defining property: the EIDs appearing in *every* selected
  // scenario reduce to the target alone.
  const Dataset dataset = GenerateDataset(EasyConfig(22));
  EdpMatcher matcher(dataset.e_scenarios, dataset.v_scenarios, dataset.oracle,
                     EdpConfig{});
  for (const Eid target : SampleTargets(dataset, 15, 4)) {
    const EidScenarioList list = matcher.SelectScenariosFor(target);
    if (!list.distinguished) continue;
    std::vector<Eid> intersection;
    const EScenario* first = dataset.e_scenarios.Find(list.scenarios[0]);
    ASSERT_NE(first, nullptr);
    for (const EidEntry& entry : first->entries) {
      intersection.push_back(entry.eid);
    }
    for (std::size_t i = 1; i < list.scenarios.size(); ++i) {
      const EScenario* s = dataset.e_scenarios.Find(list.scenarios[i]);
      std::vector<Eid> next;
      for (const Eid e : intersection) {
        if (s->Contains(e)) next.push_back(e);
      }
      intersection = std::move(next);
    }
    EXPECT_EQ(intersection, std::vector<Eid>{target});
  }
}

TEST(EdpTest, UnknownEidThrows) {
  const Dataset dataset = GenerateDataset(EasyConfig(23));
  EdpMatcher matcher(dataset.e_scenarios, dataset.v_scenarios, dataset.oracle,
                     EdpConfig{});
  EXPECT_THROW((void)matcher.SelectScenariosFor(Eid{999999}), Error);
}

TEST(EdpTest, EndToEndAccuracyIsHighInEasyWorld) {
  const Dataset dataset = GenerateDataset(EasyConfig(24));
  EdpMatcher matcher(dataset.e_scenarios, dataset.v_scenarios, dataset.oracle,
                     EdpConfig{});
  const auto targets = SampleTargets(dataset, 40, 6);
  const MatchReport report = matcher.Match(targets);
  EXPECT_GT(MatchAccuracy(report.results, dataset.truth), 0.95);
  EXPECT_GT(report.stats.distinct_scenarios, 0u);
}

TEST(EdpTest, ReportIdenticalAcrossWorkerCounts) {
  const Dataset dataset = GenerateDataset(EasyConfig(25));
  const auto targets = SampleTargets(dataset, 25, 8);
  std::vector<MatchReport> reports;
  for (const std::size_t workers : {1, 2, 4}) {
    EdpConfig config;
    config.engine.workers = workers;
    EdpMatcher matcher(dataset.e_scenarios, dataset.v_scenarios,
                       dataset.oracle, config);
    reports.push_back(matcher.Match(targets));
  }
  for (std::size_t k = 1; k < reports.size(); ++k) {
    test::ExpectSameReport(reports[0], reports[k]);
  }
}

TEST(EdpTest, FilterCountersMatchDirectFilterVidLoop) {
  // EDP's V stage publishes all four filter counters, exactly what a plain
  // FilterVid loop over its own scenario lists counts.
  const Dataset dataset = GenerateDataset(EasyConfig(28));
  const auto targets = SampleTargets(dataset, 25, 3);
  EdpConfig config;
  config.engine.workers = 2;
  EdpMatcher matcher(dataset.e_scenarios, dataset.v_scenarios, dataset.oracle,
                     config);
  const MatchReport report = matcher.Match(targets);

  FeatureGallery gallery(dataset.oracle);
  VidFilterCounters direct;
  for (const EidScenarioList& list : report.scenario_lists) {
    (void)FilterVid(list, dataset.v_scenarios, gallery, direct);
  }
  const obs::MetricsRegistry& reg = matcher.metrics();
  EXPECT_EQ(reg.CounterValue(kCtrFeatureComparisons),
            direct.feature_comparisons);
  EXPECT_EQ(reg.CounterValue(kCtrScenariosProcessed),
            direct.scenarios_processed);
  EXPECT_EQ(reg.CounterValue(kCtrExactFeatureRows), direct.exact_feature_rows);
  EXPECT_EQ(reg.CounterValue(kCtrQuantizedFullScans),
            direct.quantized_full_scans);
  EXPECT_GT(direct.exact_feature_rows, 0u);
}

TEST(EdpTest, ScenarioCapIsRespected) {
  const Dataset dataset = GenerateDataset(EasyConfig(26));
  EdpConfig config;
  config.max_scenarios_per_eid = 2;
  EdpMatcher matcher(dataset.e_scenarios, dataset.v_scenarios, dataset.oracle,
                     config);
  for (const Eid target : SampleTargets(dataset, 10, 1)) {
    EXPECT_LE(matcher.SelectScenariosFor(target).scenarios.size(), 2u);
  }
}

TEST(EdpTest, SsSelectsFewerDistinctScenariosThanEdp) {
  // The paper's headline comparison (Fig. 5), as an invariant at small
  // scale: SS reuses scenarios across EIDs, EDP mostly does not.
  DatasetConfig config = EasyConfig(27);
  config.population = 300;
  config.cell_size_m = 200.0;
  const Dataset dataset = GenerateDataset(config);
  const auto targets = SampleTargets(dataset, 150, 2);
  const auto ss = RunSsEStage(dataset, targets, SplitConfig{});
  const auto edp = RunEdpEStage(dataset, targets, EdpConfig{});
  EXPECT_LT(ss.distinct_scenarios, edp.distinct_scenarios);
}

}  // namespace
}  // namespace evm
