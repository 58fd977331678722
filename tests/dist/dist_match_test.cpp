// Worker-count determinism: the distributed matcher must produce
// byte-identical output to the sequential in-process matcher — for any
// worker count, and under any schedule of injected worker kills. Results
// are compared by their *encoded* bytes (dist/codecs.hpp), the same witness
// the nightly soak pins.

#include "dist/dist_match.hpp"

#include <gtest/gtest.h>

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/matcher.hpp"
#include "dist/codecs.hpp"
#include "dist/dist_engine.hpp"

namespace evm::dist {
namespace {

std::string WorkerBin() {
  if (const char* env = std::getenv("EVM_WORKER_BIN")) return env;
#ifdef EVM_WORKER_BIN_DEFAULT
  return EVM_WORKER_BIN_DEFAULT;
#else
  return "./evm_worker";
#endif
}

/// Small world, no visual nuisance: fast to regenerate per worker while
/// still producing non-trivial scenario lists.
DatasetConfig SmallConfig(std::uint64_t seed) {
  DatasetConfig config;
  config.population = 64;
  config.ticks = 240;
  config.cell_size_m = 250.0;
  config.seed = seed;
  config.render.occlusion_prob = 0.0;
  config.render.crop_jitter = 0.05;
  config.render.sensor_noise = 3.0;
  config.render.illumination_sigma = 0.02;
  return config;
}

/// One byte string covering everything a MatchReport asserts about the
/// world: every result and every scenario list, in order.
Bytes EncodeReport(const MatchReport& report) {
  BinaryWriter w;
  for (const MatchResult& result : report.results) {
    mapreduce::Codec<MatchResult>::Encode(w, result);
  }
  for (const EidScenarioList& list : report.scenario_lists) {
    mapreduce::Codec<EidScenarioList>::Encode(w, list);
  }
  return w.Take();
}

/// The ground truth: the sequential single-process matcher on the same
/// dataset and configuration.
Bytes SequentialReport(const DatasetConfig& config,
                       const std::vector<Eid>& targets) {
  const Dataset dataset = GenerateDataset(config);
  EvMatcher matcher(dataset.e_scenarios, dataset.v_scenarios, dataset.oracle,
                    MatcherConfig{});
  return EncodeReport(matcher.Match(targets));
}

DistEngineOptions Options(std::size_t workers) {
  DistEngineOptions options;
  options.worker_binary = WorkerBin();
  options.workers = workers;
  return options;
}

Bytes DistributedReport(DistEngineOptions options,
                        const DatasetConfig& config,
                        const std::vector<Eid>& targets) {
  DistEngine engine(std::move(options));
  DistMatchConfig match;
  match.dataset = config;
  DistMatcher matcher(engine, match);
  return EncodeReport(matcher.Match(targets));
}

std::vector<Eid> FirstTargets(const DatasetConfig& config, std::size_t n) {
  const Dataset dataset = GenerateDataset(config);
  std::vector<Eid> universe = CollectUniverse(dataset.e_scenarios);
  if (universe.size() > n) universe.resize(n);
  return universe;
}

TEST(DistMatchTest, ByteIdenticalToSequentialAcrossWorkerCounts) {
  for (const std::uint64_t seed : {11ull, 23ull}) {
    const DatasetConfig config = SmallConfig(seed);
    const std::vector<Eid> targets = FirstTargets(config, 10);
    ASSERT_FALSE(targets.empty());
    const Bytes expected = SequentialReport(config, targets);
    for (const std::size_t workers : {1u, 2u, 4u}) {
      EXPECT_EQ(DistributedReport(Options(workers), config, targets),
                expected)
          << "seed " << seed << ", " << workers << " workers";
    }
  }
}

TEST(DistMatchTest, ByteIdenticalUnderInjectedWorkerKills) {
  const DatasetConfig config = SmallConfig(31);
  const std::vector<Eid> targets = FirstTargets(config, 8);
  ASSERT_FALSE(targets.empty());
  const Bytes expected = SequentialReport(config, targets);

  DistEngineOptions options = Options(2);
  // Each executed attempt rolls a 20% process kill; the scheduler's retry
  // budget absorbs the resulting transport failures.
  options.worker_env = {{"EVM_MR_INJECT_WORKER_KILLS", "0.2"},
                        {"EVM_MR_INJECT_SEED", "9"}};
  options.scheduler.max_attempts = 12;
  EXPECT_EQ(DistributedReport(std::move(options), config, targets), expected);
}

TEST(DistMatchTest, MatchUniversalCoversTheUniverse) {
  const DatasetConfig config = SmallConfig(17);
  DistEngine engine(Options(2));
  DistMatchConfig match;
  match.dataset = config;
  DistMatcher matcher(engine, match);
  const MatchReport report = matcher.MatchUniversal();
  EXPECT_EQ(report.results.size(), matcher.Universe().size());
  EXPECT_FALSE(matcher.Universe().empty());
}

// --- nightly fault soak ------------------------------------------------------
// One soak iteration per invocation, parameterized by EVM_DIST_SOAK_SEED so
// the nightly workflow can sweep 50 seeds without rebuilding. Skipped when
// the variable is unset (regular ctest runs).

TEST(DistSoakTest, ByteIdenticalUnderSeededKillSchedule) {
  const char* soak = std::getenv("EVM_DIST_SOAK_SEED");
  if (soak == nullptr) {
    GTEST_SKIP() << "EVM_DIST_SOAK_SEED not set (nightly-only soak)";
  }
  std::uint64_t soak_seed = 0;
  const std::string value = soak;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), soak_seed);
  ASSERT_TRUE(ec == std::errc{} && ptr == value.data() + value.size())
      << "EVM_DIST_SOAK_SEED must be an integer, got '" << value << "'";

  const DatasetConfig config = SmallConfig(40 + soak_seed % 8);
  const std::vector<Eid> targets = FirstTargets(config, 10);
  ASSERT_FALSE(targets.empty());
  const Bytes expected = SequentialReport(config, targets);

  DistEngineOptions options = Options(2);
  options.worker_env = {{"EVM_MR_INJECT_WORKER_KILLS", "0.3"},
                        {"EVM_MR_INJECT_SEED", std::to_string(soak_seed)}};
  options.scheduler.max_attempts = 16;

  DistEngine engine(std::move(options));
  DistMatchConfig match;
  match.dataset = config;
  DistMatcher matcher(engine, match);
  EXPECT_EQ(EncodeReport(matcher.Match(targets)), expected);
}

}  // namespace
}  // namespace evm::dist
