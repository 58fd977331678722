#include "stream/stream_driver.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <thread>
#include <vector>

#include "core/matcher.hpp"
#include "stream/counters.hpp"
#include "stream/replay.hpp"

namespace evm::stream {
namespace {

DatasetConfig SmallConfig(std::uint64_t seed) {
  DatasetConfig config;
  config.population = 50;
  config.ticks = 200;
  config.cell_size_m = 250.0;
  config.seed = seed;
  return config;
}

std::vector<Eid> SampleTargets(const Dataset& dataset, std::size_t stride) {
  const std::vector<Eid> all = dataset.AllEids();
  std::vector<Eid> targets;
  for (std::size_t i = 0; i < all.size(); i += stride) {
    targets.push_back(all[i]);
  }
  return targets;
}

StreamDriverConfig DriverConfigFor(const Dataset& dataset,
                                   const MatcherConfig& matcher,
                                   std::vector<Eid> targets,
                                   BackpressurePolicy policy,
                                   std::size_t shards = 1) {
  StreamDriverConfig config;
  config.shards = shards;
  // Unconstrained queues: lossy policies must not actually lose anything
  // for drain equivalence to be claimable.
  config.e_queue = {1u << 20, policy};
  config.v_queue = {1u << 20, policy};
  config.store.scenario =
      EScenarioConfig{dataset.config.window_ticks,
                      dataset.config.vague_width_m,
                      dataset.config.inclusive_threshold,
                      dataset.config.vague_threshold};
  config.match.split = matcher.split;
  config.match.filter = matcher.filter;
  config.match.refine = matcher.refine;
  config.match.targets = std::move(targets);
  config.v_workers = 2;
  return config;
}

/// Byte-for-byte equality of everything a MatchReport derives
/// deterministically (excludes wall-clock seconds and cache-dependent
/// extraction counts).
void ExpectIdenticalReports(const MatchReport& streamed,
                            const MatchReport& batch) {
  ASSERT_EQ(streamed.results.size(), batch.results.size());
  for (std::size_t i = 0; i < batch.results.size(); ++i) {
    const MatchResult& a = streamed.results[i];
    const MatchResult& b = batch.results[i];
    EXPECT_EQ(a.eid, b.eid);
    EXPECT_EQ(a.chosen_per_scenario, b.chosen_per_scenario);
    EXPECT_EQ(a.reported_vid, b.reported_vid);
    EXPECT_EQ(a.confidence, b.confidence);  // exact, not NEAR
    EXPECT_EQ(a.majority_fraction, b.majority_fraction);
    EXPECT_EQ(a.resolved, b.resolved);
  }
  ASSERT_EQ(streamed.scenario_lists.size(), batch.scenario_lists.size());
  for (std::size_t i = 0; i < batch.scenario_lists.size(); ++i) {
    EXPECT_EQ(streamed.scenario_lists[i].eid, batch.scenario_lists[i].eid);
    EXPECT_EQ(streamed.scenario_lists[i].scenarios,
              batch.scenario_lists[i].scenarios);
    EXPECT_EQ(streamed.scenario_lists[i].distinguished,
              batch.scenario_lists[i].distinguished);
  }
  EXPECT_EQ(streamed.stats.distinct_scenarios, batch.stats.distinct_scenarios);
  EXPECT_EQ(streamed.stats.avg_scenarios_per_eid,
            batch.stats.avg_scenarios_per_eid);
  EXPECT_EQ(streamed.stats.splitting_iterations,
            batch.stats.splitting_iterations);
  EXPECT_EQ(streamed.stats.undistinguished_eids,
            batch.stats.undistinguished_eids);
  EXPECT_EQ(streamed.stats.feature_comparisons,
            batch.stats.feature_comparisons);
  EXPECT_EQ(streamed.stats.scenarios_processed,
            batch.stats.scenarios_processed);
  EXPECT_EQ(streamed.stats.refine_rounds, batch.stats.refine_rounds);
}

TEST(StreamDriverTest, DrainMatchesBatchAcrossSeedsAndPolicies) {
  for (const std::uint64_t seed : {31u, 32u, 33u}) {
    const Dataset dataset = GenerateDataset(SmallConfig(seed));
    const std::vector<Eid> targets = SampleTargets(dataset, 5);

    MatcherConfig batch_config;
    EvMatcher batch(dataset.e_scenarios, dataset.v_scenarios, dataset.oracle,
                    batch_config);
    const MatchReport expected = batch.Match(targets);

    for (const BackpressurePolicy policy :
         {BackpressurePolicy::kBlock, BackpressurePolicy::kDropOldest}) {
      // Sharding must be invisible in the drained report: the per-shard
      // seal outputs merge back into the exact batch emission order.
      for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
        StreamDriver driver(
            dataset.grid, dataset.oracle,
            DriverConfigFor(dataset, batch_config, targets, policy, shards));
        driver.Start();
        const ReplayOutcome replay = ReplayDataset(dataset, driver);
        const MatchReport streamed = driver.Drain();

        // The lossy policy must not have actually lost anything, or the
        // equivalence claim would be vacuous.
        EXPECT_EQ(replay.dropped, 0u);
        EXPECT_EQ(replay.rejected, 0u);
        EXPECT_EQ(driver.e_dropped() + driver.v_dropped(), 0u);
        ExpectIdenticalReports(streamed, expected);
      }
    }
  }
}

TEST(StreamDriverTest, UniversalDrainMatchesBatch) {
  const Dataset dataset = GenerateDataset(SmallConfig(34));
  MatcherConfig batch_config;
  EvMatcher batch(dataset.e_scenarios, dataset.v_scenarios, dataset.oracle,
                  batch_config);
  const MatchReport expected = batch.MatchUniversal();

  StreamDriver driver(dataset.grid, dataset.oracle,
                      DriverConfigFor(dataset, batch_config, /*targets=*/{},
                                      BackpressurePolicy::kBlock));
  driver.Start();
  ReplayDataset(dataset, driver);
  ExpectIdenticalReports(driver.Drain(), expected);
}

TEST(StreamDriverTest, RetentionExpiryEvictsGalleryFeatures) {
  // Store + matcher directly (no driver threads) so the seal sequence is
  // deterministic: the live passes fill the gallery, and retention expiry
  // must drop the cached features of every expired scenario.
  const Dataset dataset = GenerateDataset(SmallConfig(38));
  const std::vector<Eid> targets = SampleTargets(dataset, 5);

  WindowedStoreConfig store_config;
  store_config.scenario =
      EScenarioConfig{dataset.config.window_ticks,
                      dataset.config.vague_width_m,
                      dataset.config.inclusive_threshold,
                      dataset.config.vague_threshold};
  WindowedScenarioStore store(dataset.grid, store_config);
  for (const ERecord& record : dataset.e_log.records()) {
    store.AppendE(record);
  }
  for (const VScenario& scenario : dataset.v_scenarios.scenarios()) {
    for (const VObservation& observation : scenario.observations) {
      store.AppendV(
          VDetection{scenario.window.begin, scenario.cell, observation});
    }
  }

  obs::MetricsRegistry metrics;
  IncrementalMatcherConfig match_config;
  match_config.targets = targets;
  IncrementalMatcher matcher(store, dataset.oracle, match_config, metrics);
  matcher.OnSealed(store.AdvanceWatermark(Tick{60}));
  matcher.OnSealed(store.SealAll());
  EXPECT_GT(matcher.gallery().CachedScenarioCount(), 0u);

  // Expiring every window must evict every cached block: scenario ids are
  // exactly the (window, cell) slots.
  SealResult expire_all;
  for (std::size_t w = 0; w < store.e_scenarios().window_count(); ++w) {
    expire_all.expired_windows.push_back(w);
  }
  matcher.OnSealed(expire_all);
  EXPECT_EQ(matcher.gallery().CachedScenarioCount(), 0u);
}

TEST(StreamDriverTest, PracticalSettingWithRefineMatchesBatch) {
  DatasetConfig dataset_config = SmallConfig(35);
  dataset_config.vague_width_m = 20.0;
  dataset_config.e_noise_sigma_m = 5.0;
  const Dataset dataset = GenerateDataset(dataset_config);
  const std::vector<Eid> targets = SampleTargets(dataset, 4);

  MatcherConfig batch_config;
  batch_config.split.practical = true;
  batch_config.refine.enabled = true;
  EvMatcher batch(dataset.e_scenarios, dataset.v_scenarios, dataset.oracle,
                  batch_config);
  const MatchReport expected = batch.Match(targets);

  StreamDriver driver(dataset.grid, dataset.oracle,
                      DriverConfigFor(dataset, batch_config, targets,
                                      BackpressurePolicy::kBlock));
  driver.Start();
  ReplayDataset(dataset, driver);
  ExpectIdenticalReports(driver.Drain(), expected);
}

TEST(StreamDriverTest, LivePathProducesProvisionalResultsBeforeDrain) {
  const Dataset dataset = GenerateDataset(SmallConfig(36));
  const std::vector<Eid> targets = SampleTargets(dataset, 5);
  MatcherConfig batch_config;
  StreamDriver driver(dataset.grid, dataset.oracle,
                      DriverConfigFor(dataset, batch_config, targets,
                                      BackpressurePolicy::kBlock));
  driver.Start();
  ReplayDataset(dataset, driver);

  // The consumers process asynchronously; poll briefly for the first
  // incremental pass instead of relying on Drain's final one.
  for (int i = 0; i < 200 && driver.matcher().provisional_count() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(driver.matcher().provisional_count(), 0u);
  (void)driver.Drain();
  EXPECT_GT(driver.matcher().provisional_count(), 0u);
  // Regression (TSan): the live reads above overlap the consumer thread's
  // result refresh; ProvisionalResult must copy under the matcher's
  // provisional lock, never hand out a pointer into the live map.
  const std::optional<MatchResult> provisional =
      driver.matcher().ProvisionalResult(targets.front());
  ASSERT_TRUE(provisional.has_value());
  EXPECT_EQ(provisional->eid, targets.front());
}

TEST(StreamDriverTest, PublishesStreamMetrics) {
  const Dataset dataset = GenerateDataset(SmallConfig(37));
  MatcherConfig batch_config;
  StreamDriver driver(dataset.grid, dataset.oracle,
                      DriverConfigFor(dataset, batch_config,
                                      SampleTargets(dataset, 5),
                                      BackpressurePolicy::kBlock));
  driver.Start();
  const ReplayOutcome replay = ReplayDataset(dataset, driver);
  (void)driver.Drain();

  obs::MetricsRegistry& reg = driver.metrics();
  EXPECT_EQ(reg.CounterValue(kCtrERecords), replay.e_pushed);
  EXPECT_EQ(reg.CounterValue(kCtrVDetections), replay.v_pushed);
  EXPECT_GT(reg.CounterValue(kCtrWindowsSealed), 0u);
  EXPECT_GT(reg.CounterValue(kCtrIncrementalPasses), 0u);
  // Every consumed record's ingest-to-match latency was accounted.
  const obs::LatencySummary latency = reg.Latency(kLatRecordToMatch);
  EXPECT_EQ(latency.count, replay.e_pushed + replay.v_pushed);
  EXPECT_GT(latency.p95_seconds, 0.0);
  EXPECT_GT(reg.Latency(kLatSeal).count, 0u);
}

TEST(StreamDriverTest, DrainIsIdempotentAndRejectsLatePushes) {
  const Dataset dataset = GenerateDataset(SmallConfig(38));
  MatcherConfig batch_config;
  StreamDriver driver(dataset.grid, dataset.oracle,
                      DriverConfigFor(dataset, batch_config,
                                      SampleTargets(dataset, 5),
                                      BackpressurePolicy::kBlock));
  driver.Start();
  ReplayDataset(dataset, driver);
  const MatchReport first = driver.Drain();
  // Regression: pushes into a drained driver used to surface as kRejected,
  // making a clean shutdown indistinguishable from overload. They must be
  // kClosed and leave the reject accounting untouched.
  EXPECT_EQ(driver.PushE(dataset.e_log.records().front()),
            PushResult::kClosed);
  EXPECT_EQ(driver.e_rejected() + driver.v_rejected(), 0u);
  EXPECT_EQ(driver.metrics().CounterValue(kCtrERejected), 0u);
  const MatchReport second = driver.Drain();
  ExpectIdenticalReports(second, first);
}

TEST(StreamDriverTest, OneSidedStreamSealsIncrementally) {
  // Regression: an idle lane must not pin the joint watermark. With only E
  // data flowing, AdvanceWatermark fans heartbeat marks to every lane's V
  // queue too, so the V-side watermarks advance and windows seal while the
  // stream is still live — not only at Drain.
  const Dataset dataset = GenerateDataset(SmallConfig(40));
  const std::vector<Eid> targets = SampleTargets(dataset, 5);
  MatcherConfig batch_config;
  StreamDriver driver(dataset.grid, dataset.oracle,
                      DriverConfigFor(dataset, batch_config, targets,
                                      BackpressurePolicy::kBlock,
                                      /*shards=*/2));
  driver.Start();

  const std::int64_t wt = dataset.config.window_ticks;
  std::int64_t watermark = 0;
  for (const ERecord& record : dataset.e_log.records()) {
    const std::int64_t boundary = (record.tick.value / wt) * wt;
    while (watermark < boundary) {
      watermark += wt;
      driver.AdvanceWatermark(Tick{watermark});
    }
    ASSERT_EQ(driver.PushE(record), PushResult::kAccepted);
  }
  driver.AdvanceWatermark(Tick{(watermark / wt + 2) * wt});

  // Sealing happens asynchronously on the sealer thread; poll for it
  // *before* Drain so the assertion can only be satisfied by live sealing.
  obs::MetricsRegistry& reg = driver.metrics();
  for (int i = 0; i < 400 && reg.CounterValue(kCtrWindowsSealed) == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(reg.CounterValue(kCtrWindowsSealed), 0u);

  const MatchReport report = driver.Drain();
  EXPECT_EQ(report.results.size(), targets.size());
}

TEST(StreamDriverTest, SheddingBoundsBacklogAndRecovers) {
  const Dataset dataset = GenerateDataset(SmallConfig(41));
  std::vector<VDetection> detections;
  for (const VScenario& scenario : dataset.v_scenarios.scenarios()) {
    for (const VObservation& observation : scenario.observations) {
      detections.push_back(
          VDetection{scenario.window.begin, scenario.cell, observation});
    }
  }
  ASSERT_GT(detections.size(), 32u);

  MatcherConfig batch_config;
  StreamDriverConfig config = DriverConfigFor(
      dataset, batch_config, SampleTargets(dataset, 5),
      BackpressurePolicy::kBlock, /*shards=*/2);
  config.shed = LoadShedConfig{/*enabled=*/true, /*high_water=*/16,
                               /*low_water=*/2};
  StreamDriver driver(dataset.grid, dataset.oracle, std::move(config));

  // No consumers yet: the V backlog grows deterministically with each push,
  // so the high-water transition lands on an exact record.
  std::size_t accepted = 0;
  std::size_t shed = 0;
  for (std::size_t i = 0; i < 32; ++i) {
    const PushResult result = driver.PushV(detections[i]);
    if (result == PushResult::kAccepted) {
      ++accepted;
      EXPECT_FALSE(driver.shedding());
    } else {
      EXPECT_EQ(result, PushResult::kShed);
      ++shed;
    }
  }
  // The backlog is bounded at the high-water mark; everything above it shed.
  EXPECT_EQ(accepted, 16u);
  EXPECT_EQ(shed, 16u);
  EXPECT_TRUE(driver.shedding());
  EXPECT_EQ(driver.shed_records(), 16u);
  EXPECT_EQ(driver.metrics().CounterValue(kCtrShedRecords), 16u);

  // Starting the consumers drains the backlog below low-water: shedding
  // must disengage on its own and the next push be admitted again.
  driver.Start();
  for (int i = 0; i < 400 && driver.shedding(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_FALSE(driver.shedding());
  EXPECT_EQ(driver.PushV(detections.back()), PushResult::kAccepted);

  // Feed the E side too so the final joint pass has a non-empty universe.
  for (const ERecord& record : dataset.e_log.records()) {
    ASSERT_EQ(driver.PushE(record), PushResult::kAccepted);
  }
  driver.AdvanceWatermark(
      Tick{static_cast<std::int64_t>(dataset.config.ticks) + 20});
  (void)driver.Drain();
}

TEST(StreamDriverTest, EOnlyDegradationPublishesFlaggedResultsAndRecovers) {
  // Drives the matcher's degradation path directly (store + matcher, no
  // driver threads) so the e_only pass lands on a deterministic seal.
  const Dataset dataset = GenerateDataset(SmallConfig(42));
  const std::vector<Eid> targets = SampleTargets(dataset, 5);

  WindowedStoreConfig store_config;
  store_config.scenario =
      EScenarioConfig{dataset.config.window_ticks,
                      dataset.config.vague_width_m,
                      dataset.config.inclusive_threshold,
                      dataset.config.vague_threshold};
  store_config.shards = 2;
  WindowedScenarioStore store(dataset.grid, store_config);
  for (const ERecord& record : dataset.e_log.records()) {
    store.AppendE(record);
  }
  for (const VScenario& scenario : dataset.v_scenarios.scenarios()) {
    for (const VObservation& observation : scenario.observations) {
      store.AppendV(
          VDetection{scenario.window.begin, scenario.cell, observation});
    }
  }

  obs::MetricsRegistry metrics;
  IncrementalMatcherConfig match_config;
  match_config.targets = targets;
  IncrementalMatcher matcher(store, dataset.oracle, match_config, metrics);

  // First half of the stream seals while shedding: the V stage is skipped
  // and every affected target is re-published flagged low-confidence.
  const SealResult degraded = store.AdvanceWatermark(Tick{100});
  ASSERT_FALSE(degraded.sealed_windows.empty());
  const std::size_t published = matcher.OnSealed(degraded, /*e_only=*/true);
  EXPECT_GT(published, 0u);
  EXPECT_GT(matcher.e_only_pending_count(), 0u);
  EXPECT_EQ(metrics.CounterValue(kCtrEOnlyMatches), published);

  std::optional<Eid> flagged;
  for (const Eid target : targets) {
    const std::optional<MatchResult> result =
        matcher.ProvisionalResult(target);
    if (result.has_value() && result->e_only) {
      flagged = target;
      break;
    }
  }
  ASSERT_TRUE(flagged.has_value());

  // Recovery: the first full pass re-filters every E-only target — even if
  // the new windows did not re-dirty it — and clears the flag.
  const SealResult rest = store.SealAll();
  matcher.OnSealed(rest, /*e_only=*/false);
  EXPECT_EQ(matcher.e_only_pending_count(), 0u);
  const std::optional<MatchResult> refreshed =
      matcher.ProvisionalResult(*flagged);
  ASSERT_TRUE(refreshed.has_value());
  EXPECT_FALSE(refreshed->e_only);
}

TEST(StreamDriverTest, AdmissionControlThrottlesPerTenant) {
  const Dataset dataset = GenerateDataset(SmallConfig(43));
  MatcherConfig batch_config;
  StreamDriverConfig config =
      DriverConfigFor(dataset, batch_config, SampleTargets(dataset, 5),
                      BackpressurePolicy::kBlock);
  config.admission.enabled = true;
  // Effectively no refill within the test's lifetime: a burst of 3, then
  // throttled. Tenant 7 is exempt (rate <= 0 = unlimited).
  config.admission.default_quota = TenantQuota{1e-9, 3.0};
  config.admission.overrides.push_back({TenantId{7}, TenantQuota{0.0, 1.0}});
  StreamDriver driver(dataset.grid, dataset.oracle, std::move(config));
  driver.Start();

  const std::vector<ERecord>& records = dataset.e_log.records();
  ASSERT_GE(records.size(), 20u);
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < 10; ++i) {
    const PushResult result = driver.PushE(records[i]);
    if (result == PushResult::kAccepted) {
      ++accepted;
    } else {
      EXPECT_EQ(result, PushResult::kThrottled);
    }
  }
  EXPECT_EQ(accepted, 3u);
  EXPECT_EQ(driver.throttled(), 7u);
  EXPECT_EQ(driver.metrics().CounterValue(kCtrThrottled), 7u);
  // Throttled records never reach the accepted-record accounting.
  EXPECT_EQ(driver.metrics().CounterValue(kCtrERecords), 3u);

  // The exempt tenant is untouched by the default tenant's empty bucket.
  for (std::size_t i = 10; i < 20; ++i) {
    EXPECT_EQ(driver.PushE(records[i], TenantId{7}), PushResult::kAccepted);
  }
  EXPECT_EQ(driver.throttled(), 7u);
  driver.Shutdown();
}

TEST(StreamDriverTest, ShutdownWithoutDrainStopsCleanly) {
  const Dataset dataset = GenerateDataset(SmallConfig(39));
  MatcherConfig batch_config;
  StreamDriver driver(dataset.grid, dataset.oracle,
                      DriverConfigFor(dataset, batch_config,
                                      SampleTargets(dataset, 5),
                                      BackpressurePolicy::kBlock));
  driver.Start();
  for (std::size_t i = 0; i < 100 && i < dataset.e_log.size(); ++i) {
    driver.PushE(dataset.e_log.records()[i]);
  }
  driver.Shutdown();  // no final pass, no crash; destructor is a no-op then
  // A clean shutdown is not overload: closing the lanes mid-stream must not
  // surface as rejects (kClosed is accounted separately).
  EXPECT_EQ(driver.e_rejected() + driver.v_rejected(), 0u);
}

}  // namespace
}  // namespace evm::stream
