#include "core/matcher.hpp"

#include "core/match_counters.hpp"

#include <gtest/gtest.h>

#include "common/thread_pool.hpp"
#include "dataset/generator.hpp"
#include "mapreduce/scheduler.hpp"
#include "metrics/accuracy.hpp"
#include "metrics/experiment.hpp"
#include "tests/testutil.hpp"

namespace evm {
namespace {

DatasetConfig EasyConfig(std::uint64_t seed = 11) {
  DatasetConfig config;
  config.population = 120;
  config.ticks = 400;
  config.cell_size_m = 250.0;  // 16 cells, density ~7.5
  config.seed = seed;
  // No visual nuisance: re-identification is essentially perfect.
  config.render.occlusion_prob = 0.0;
  config.render.crop_jitter = 0.05;
  config.render.sensor_noise = 3.0;
  config.render.illumination_sigma = 0.02;
  return config;
}

TEST(MatcherTest, NearPerfectAccuracyInEasyIdealWorld) {
  const Dataset dataset = GenerateDataset(EasyConfig());
  EvMatcher matcher(dataset.e_scenarios, dataset.v_scenarios, dataset.oracle,
                    MatcherConfig{});
  const auto targets = SampleTargets(dataset, 40, 3);
  const MatchReport report = matcher.Match(targets);
  // Not exactly 1.0: random appearance palettes occasionally produce
  // near-twins that no appearance-based matcher can separate (the paper's
  // assumption 1 holds only "with a high probability").
  EXPECT_GE(MatchAccuracy(report.results, dataset.truth), 0.95);
  EXPECT_EQ(report.stats.undistinguished_eids, 0u);
  EXPECT_GT(report.stats.distinct_scenarios, 0u);
  EXPECT_GT(report.stats.features_extracted, 0u);
}

TEST(MatcherTest, MatchOneResolvesSingleEid) {
  const Dataset dataset = GenerateDataset(EasyConfig(12));
  EvMatcher matcher(dataset.e_scenarios, dataset.v_scenarios, dataset.oracle,
                    MatcherConfig{});
  const Eid target = dataset.AllEids()[5];
  const MatchReport report = matcher.MatchOne(target);
  ASSERT_EQ(report.results.size(), 1u);
  EXPECT_TRUE(report.results[0].resolved);
  EXPECT_EQ(report.results[0].reported_vid,
            dataset.truth.TrueVidOf(target));
}

TEST(MatcherTest, UniversalMatchingLabelsEveryEid) {
  const Dataset dataset = GenerateDataset(EasyConfig(13));
  EvMatcher matcher(dataset.e_scenarios, dataset.v_scenarios, dataset.oracle,
                    MatcherConfig{});
  const MatchReport report = matcher.MatchUniversal();
  EXPECT_EQ(report.results.size(), matcher.Universe().size());
  EXPECT_GE(MatchAccuracy(report.results, dataset.truth), 0.93);
}

TEST(MatcherTest, GalleryReuseMakesFollowUpQueriesCheap) {
  const Dataset dataset = GenerateDataset(EasyConfig(14));
  EvMatcher matcher(dataset.e_scenarios, dataset.v_scenarios, dataset.oracle,
                    MatcherConfig{});
  const MatchReport first = matcher.MatchUniversal();
  // A follow-up query touches only scenarios that were already processed
  // with high probability; extraction work should collapse.
  const auto targets = SampleTargets(dataset, 10, 9);
  const MatchReport second = matcher.Match(targets);
  EXPECT_LT(second.stats.features_extracted,
            first.stats.features_extracted / 4);
}

TEST(MatcherTest, BinarySplitModeMatchesThroughEngine) {
  // The matcher splits with RunSplitStage whatever the mode, so the binary
  // splitter of Algorithm 1 runs under the engine's V stage too.
  const Dataset dataset = GenerateDataset(EasyConfig(16));
  const auto targets = SampleTargets(dataset, 30, 5);
  MatcherConfig config;
  config.split.mode = SplitMode::kBinary;
  config.engine.workers = 2;
  EvMatcher matcher(dataset.e_scenarios, dataset.v_scenarios, dataset.oracle,
                    config);
  const MatchReport report = matcher.Match(targets);

  obs::MetricsRegistry split_metrics;
  const SplitOutcome expected =
      RunSplitStage(dataset.e_scenarios, config.split, matcher.Universe(),
                    targets, split_metrics, nullptr);
  ASSERT_EQ(report.scenario_lists.size(), expected.lists.size());
  for (std::size_t i = 0; i < expected.lists.size(); ++i) {
    EXPECT_EQ(report.scenario_lists[i].scenarios, expected.lists[i].scenarios);
  }
  EXPECT_EQ(report.stats.splitting_iterations, expected.windows_consumed);
  EXPECT_GE(MatchAccuracy(report.results, dataset.truth), 0.9);
}

TEST(MatcherTest, RefiningRecoversFromMissingVids) {
  DatasetConfig config = EasyConfig(17);
  config.v_missing_rate = 0.15;  // aggressive detector misses
  const Dataset dataset = GenerateDataset(config);
  const auto targets = SampleTargets(dataset, 50, 2);

  MatcherConfig plain;
  EvMatcher no_refine(dataset.e_scenarios, dataset.v_scenarios,
                      dataset.oracle, plain);
  const double base = MatchAccuracy(no_refine.Match(targets).results,
                                    dataset.truth);

  MatcherConfig refining = plain;
  refining.refine.enabled = true;
  refining.refine.max_rounds = 3;
  refining.refine.min_majority = 0.75;
  EvMatcher with_refine(dataset.e_scenarios, dataset.v_scenarios,
                        dataset.oracle, refining);
  const MatchReport refined = with_refine.Match(targets);
  EXPECT_GE(MatchAccuracy(refined.results, dataset.truth), base);
}

TEST(MatcherTest, RefineRoundsAccumulateSplittingIterations) {
  // Regression: splitting_iterations used to be overwritten by the last
  // refine round's window count instead of accumulating across rounds.
  DatasetConfig config = EasyConfig(19);
  config.v_missing_rate = 0.15;  // force vote disagreement so refining fires
  const Dataset dataset = GenerateDataset(config);
  const auto targets = SampleTargets(dataset, 40, 2);

  MatcherConfig plain;
  EvMatcher no_refine(dataset.e_scenarios, dataset.v_scenarios,
                      dataset.oracle, plain);
  const MatchReport base = no_refine.Match(targets);

  MatcherConfig refining = plain;
  refining.refine.enabled = true;
  refining.refine.max_rounds = 2;
  refining.refine.min_majority = 1.0;  // retry every non-unanimous EID
  EvMatcher with_refine(dataset.e_scenarios, dataset.v_scenarios,
                        dataset.oracle, refining);
  const MatchReport refined = with_refine.Match(targets);

  ASSERT_GE(refined.stats.refine_rounds, 1u);
  // The refine rounds each consume at least one window on top of the
  // initial split, so the accumulated count must strictly exceed the
  // no-refine run's.
  EXPECT_GT(refined.stats.splitting_iterations,
            base.stats.splitting_iterations);
}

TEST(MatcherTest, ReportIdenticalAcrossWorkerCounts) {
  // MatchStats is a view over registry deltas and every V-stage task
  // publishes only on commit, so the worker count can change no field of
  // the report, nor the registry-only kernel scan counters (same process,
  // same ISA: the scan decomposition is identical).
  const Dataset dataset = GenerateDataset(EasyConfig(20));
  const auto targets = SampleTargets(dataset, 30, 5);
  std::vector<MatchReport> reports;
  std::vector<std::uint64_t> exact_rows;
  std::vector<std::uint64_t> full_scans;
  for (const std::size_t workers : {1, 2, 4}) {
    MatcherConfig config;
    config.engine.workers = workers;
    EvMatcher matcher(dataset.e_scenarios, dataset.v_scenarios,
                      dataset.oracle, config);
    reports.push_back(matcher.Match(targets));
    exact_rows.push_back(matcher.metrics().CounterValue(kCtrExactFeatureRows));
    full_scans.push_back(
        matcher.metrics().CounterValue(kCtrQuantizedFullScans));
  }
  EXPECT_GT(reports[0].stats.scenarios_processed, 0u);
  EXPECT_GT(exact_rows[0], 0u);
  for (std::size_t k = 1; k < reports.size(); ++k) {
    test::ExpectSameReport(reports[0], reports[k]);
    EXPECT_EQ(exact_rows[k], exact_rows[0]);
    EXPECT_EQ(full_scans[k], full_scans[0]);
  }
}

TEST(MatcherTest, ScheduledFilterStageMatchesSequentialFilterStage) {
  // The batch matchers and the stream driver's live V stage run it as
  // scheduler tasks; the stream drain runs it in a plain loop. Over the same lists both
  // must produce the same results and publish the same counters.
  const Dataset dataset = GenerateDataset(EasyConfig(21));
  const auto targets = SampleTargets(dataset, 30, 5);
  obs::MetricsRegistry split_metrics;
  const SplitOutcome outcome =
      RunSplitStage(dataset.e_scenarios, SplitConfig{},
                    CollectUniverse(dataset.e_scenarios), targets,
                    split_metrics, nullptr);

  obs::MetricsRegistry sequential_metrics;
  FeatureGallery sequential_gallery(dataset.oracle);
  std::vector<MatchResult> sequential;
  RunFilterStage(outcome.lists, dataset.v_scenarios, sequential_gallery, {},
                 sequential, sequential_metrics, nullptr);

  obs::MetricsRegistry scheduled_metrics;
  FeatureGallery scheduled_gallery(dataset.oracle);
  std::vector<MatchResult> scheduled;
  ThreadPool pool(4);
  mapreduce::TaskScheduler scheduler(pool, {});
  RunFilterStageScheduled(
      outcome.lists, dataset.v_scenarios, scheduled_gallery, {}, scheduled,
      scheduled_metrics, nullptr,
      [&scheduler](const std::vector<mapreduce::TaskFn>& tasks) {
        scheduler.Run("filter-job", "filter", tasks);
      });

  ASSERT_EQ(scheduled.size(), sequential.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(scheduled[i].eid, sequential[i].eid);
    EXPECT_EQ(scheduled[i].chosen_per_scenario,
              sequential[i].chosen_per_scenario);
    EXPECT_EQ(scheduled[i].reported_vid, sequential[i].reported_vid);
    EXPECT_EQ(scheduled[i].confidence, sequential[i].confidence);
    EXPECT_EQ(scheduled[i].majority_fraction,
              sequential[i].majority_fraction);
    EXPECT_EQ(scheduled[i].resolved, sequential[i].resolved);
  }
  for (const char* name :
       {kCtrFeatureComparisons, kCtrScenariosProcessed, kCtrExactFeatureRows,
        kCtrQuantizedFullScans}) {
    EXPECT_EQ(scheduled_metrics.CounterValue(name),
              sequential_metrics.CounterValue(name))
        << name;
  }
  EXPECT_GT(sequential_metrics.CounterValue(kCtrExactFeatureRows), 0u);
}

TEST(MatcherTest, StatsTimersArePopulated) {
  const Dataset dataset = GenerateDataset(EasyConfig(18));
  EvMatcher matcher(dataset.e_scenarios, dataset.v_scenarios, dataset.oracle,
                    MatcherConfig{});
  const auto targets = SampleTargets(dataset, 20, 1);
  const MatchReport report = matcher.Match(targets);
  EXPECT_GT(report.stats.e_stage_seconds, 0.0);
  EXPECT_GT(report.stats.v_stage_seconds, 0.0);
  EXPECT_GT(report.stats.avg_scenarios_per_eid, 0.0);
  EXPECT_GT(report.stats.feature_comparisons, 0u);
  EXPECT_EQ(report.scenario_lists.size(), targets.size());
}

}  // namespace
}  // namespace evm
