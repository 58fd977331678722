// Golden digests: the full MatchReport of two small fixed worlds, hashed and
// compared against values recorded from an earlier, independently structured
// implementation of the batch matcher (MapReduce set splitting plus a
// separate feature-extraction job). Equivalence tests that run the matcher
// against itself would still pass if the shared pass were wrong; these pin
// the output to recorded truth instead. A change that moves a digest changes
// what the matcher reports, and must say why.

#include <bit>
#include <cstdint>

#include <gtest/gtest.h>

#include "core/matcher.hpp"
#include "dataset/generator.hpp"
#include "metrics/experiment.hpp"

namespace evm {
namespace {

/// FNV-1a over a stream of 64-bit words.
class Digest {
 public:
  void Add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void Add(double value) { Add(std::bit_cast<std::uint64_t>(value)); }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_{0xcbf29ce484222325ULL};
};

/// Every field of the report except the wall-clock timings.
std::uint64_t ReportDigest(const MatchReport& report) {
  Digest d;
  d.Add(std::uint64_t{report.results.size()});
  for (const MatchResult& r : report.results) {
    d.Add(r.eid.value());
    d.Add(std::uint64_t{r.chosen_per_scenario.size()});
    for (const Vid vid : r.chosen_per_scenario) d.Add(vid.value());
    d.Add(r.reported_vid.value());
    d.Add(r.confidence);
    d.Add(r.majority_fraction);
    d.Add(std::uint64_t{r.resolved});
    d.Add(std::uint64_t{r.e_only});
  }
  d.Add(std::uint64_t{report.scenario_lists.size()});
  for (const EidScenarioList& list : report.scenario_lists) {
    d.Add(list.eid.value());
    d.Add(std::uint64_t{list.scenarios.size()});
    for (const ScenarioId id : list.scenarios) d.Add(id.value());
    d.Add(std::uint64_t{list.distinguished});
  }
  const MatchStats& s = report.stats;
  d.Add(std::uint64_t{s.distinct_scenarios});
  d.Add(s.avg_scenarios_per_eid);
  d.Add(std::uint64_t{s.splitting_iterations});
  d.Add(std::uint64_t{s.undistinguished_eids});
  d.Add(s.features_extracted);
  d.Add(s.feature_comparisons);
  d.Add(s.scenarios_processed);
  d.Add(std::uint64_t{s.refine_rounds});
  return d.value();
}

DatasetConfig SmallWorld(bool practical) {
  DatasetConfig config;
  config.population = 150;
  config.ticks = 400;
  config.cell_size_m = 250.0;
  config.seed = 2017;
  if (practical) {
    config.e_noise_sigma_m = 8.0;
    config.vague_width_m = 12.0;
    config.e_missing_rate = 0.15;
    config.v_missing_rate = 0.03;
  }
  return config;
}

MatchReport MatchSmallWorld(bool practical) {
  const Dataset dataset = GenerateDataset(SmallWorld(practical));
  MatcherConfig config = DefaultSsConfig(practical);
  config.refine.min_majority = 0.75;
  config.engine.workers = 2;
  EvMatcher matcher(dataset.e_scenarios, dataset.v_scenarios, dataset.oracle,
                    config);
  return matcher.Match(SampleTargets(dataset, 60, 9));
}

TEST(GoldenReportTest, IdealWorldDigest) {
  const MatchReport report = MatchSmallWorld(/*practical=*/false);
  EXPECT_EQ(report.stats.refine_rounds, 0u);
  EXPECT_EQ(ReportDigest(report), 0x9566f5edb8758e26ULL);
}

TEST(GoldenReportTest, PracticalRefineWorldDigest) {
  const MatchReport report = MatchSmallWorld(/*practical=*/true);
  EXPECT_GT(report.stats.refine_rounds, 0u);
  EXPECT_EQ(ReportDigest(report), 0x8eb7c989a3c9a636ULL);
}

}  // namespace
}  // namespace evm
