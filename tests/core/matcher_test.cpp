#include "core/matcher.hpp"

#include "core/match_counters.hpp"

#include <gtest/gtest.h>

#include "common/thread_pool.hpp"
#include "dataset/generator.hpp"
#include "mapreduce/scheduler.hpp"
#include "metrics/accuracy.hpp"
#include "metrics/experiment.hpp"

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

TEST(MatcherTest, ParallelExecutionMatchesSequentialResults) {
  const Dataset dataset = GenerateDataset(EasyConfig(15));
  const auto targets = SampleTargets(dataset, 30, 5);

  MatcherConfig sequential_config;
  EvMatcher sequential(dataset.e_scenarios, dataset.v_scenarios,
                       dataset.oracle, sequential_config);
  const MatchReport a = sequential.Match(targets);

  MatcherConfig parallel_config;
  parallel_config.execution = ExecutionMode::kMapReduce;
  parallel_config.engine.workers = 4;
  EvMatcher parallel(dataset.e_scenarios, dataset.v_scenarios, dataset.oracle,
                     parallel_config);
  const MatchReport b = parallel.Match(targets);

  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].eid, b.results[i].eid);
    EXPECT_EQ(a.results[i].reported_vid, b.results[i].reported_vid);
    EXPECT_EQ(a.results[i].chosen_per_scenario,
              b.results[i].chosen_per_scenario);
  }
  EXPECT_EQ(a.stats.distinct_scenarios, b.stats.distinct_scenarios);
}

TEST(MatcherTest, MapReduceRequiresSignatureMode) {
  const Dataset dataset = GenerateDataset(EasyConfig(16));
  MatcherConfig config;
  config.execution = ExecutionMode::kMapReduce;
  config.split.mode = SplitMode::kBinary;
  EXPECT_THROW(EvMatcher(dataset.e_scenarios, dataset.v_scenarios,
                         dataset.oracle, config),
               Error);
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

TEST(MatcherTest, SerialAndMapReduceReportIdenticalStats) {
  // MatchStats is a view over registry deltas, so both execution modes must
  // report the exact same counts (timing fields excluded, of course).
  const Dataset dataset = GenerateDataset(EasyConfig(20));
  const auto targets = SampleTargets(dataset, 30, 5);

  MatcherConfig serial_config;
  EvMatcher serial(dataset.e_scenarios, dataset.v_scenarios, dataset.oracle,
                   serial_config);
  const MatchStats a = serial.Match(targets).stats;

  MatcherConfig mr_config;
  mr_config.execution = ExecutionMode::kMapReduce;
  mr_config.engine.workers = 4;
  EvMatcher mapreduce(dataset.e_scenarios, dataset.v_scenarios,
                      dataset.oracle, mr_config);
  const MatchStats b = mapreduce.Match(targets).stats;

  EXPECT_EQ(a.distinct_scenarios, b.distinct_scenarios);
  EXPECT_DOUBLE_EQ(a.avg_scenarios_per_eid, b.avg_scenarios_per_eid);
  EXPECT_EQ(a.splitting_iterations, b.splitting_iterations);
  EXPECT_EQ(a.undistinguished_eids, b.undistinguished_eids);
  EXPECT_EQ(a.features_extracted, b.features_extracted);
  EXPECT_EQ(a.feature_comparisons, b.feature_comparisons);
  EXPECT_EQ(a.scenarios_processed, b.scenarios_processed);
  EXPECT_EQ(a.refine_rounds, b.refine_rounds);
  // Regression: the serial path used to drop scenarios_processed entirely.
  EXPECT_GT(a.scenarios_processed, 0u);
}

TEST(MatcherTest, KernelScanCountersRegisterInBothExecutionModes) {
  // match.exact_feature_rows / match.quantized_full_scans are registry-only
  // (shortlist composition is ISA-dependent, so they stay out of MatchStats),
  // but both execution paths must still accumulate them; the MapReduce
  // filter used to drop them on the floor.
  const Dataset dataset = GenerateDataset(EasyConfig(20));
  const auto targets = SampleTargets(dataset, 30, 5);

  MatcherConfig serial_config;
  EvMatcher serial(dataset.e_scenarios, dataset.v_scenarios, dataset.oracle,
                   serial_config);
  (void)serial.Match(targets);
  const std::uint64_t serial_rows =
      serial.metrics().CounterValue(kCtrExactFeatureRows);
  EXPECT_GT(serial_rows, 0u);

  MatcherConfig mr_config;
  mr_config.execution = ExecutionMode::kMapReduce;
  mr_config.engine.workers = 4;
  EvMatcher mapreduce(dataset.e_scenarios, dataset.v_scenarios,
                      dataset.oracle, mr_config);
  (void)mapreduce.Match(targets);
  // Same process, same ISA: the scan decomposition is identical, so the two
  // modes must agree exactly.
  EXPECT_EQ(mapreduce.metrics().CounterValue(kCtrExactFeatureRows),
            serial_rows);
  EXPECT_EQ(mapreduce.metrics().CounterValue(kCtrQuantizedFullScans),
            serial.metrics().CounterValue(kCtrQuantizedFullScans));
}

TEST(MatcherTest, ScheduledFilterStageMatchesSequentialFilterStage) {
  // The stream driver's live V stage runs as scheduler tasks; the drain and
  // the sequential batch run it in a plain loop. Over the same lists both
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
  RunFilterStageScheduled(outcome.lists, dataset.v_scenarios,
                          scheduled_gallery, {}, scheduled, scheduled_metrics,
                          nullptr, scheduler);

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
