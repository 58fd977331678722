#include <algorithm>
#include <string>
#include <thread>

#include "checks.hpp"
#include "workloads.hpp"

namespace evbench {

std::size_t ProgramWorkers() {
  const std::size_t cores =
      std::max<std::size_t>(2, std::thread::hardware_concurrency());
  return cores - 1;
}

evm::DatasetConfig PaperWorld(bool practical) {
  evm::DatasetConfig config;
  config.population = 1000;
  config.SetDensity(40.0);
  config.seed = kWorldSeed;
  if (practical) {
    // The practical world of the examples and CLI: 8 m localisation error,
    // a 12 m vague band, 15% device-less people, 3% missed detections.
    config.e_noise_sigma_m = 8.0;
    config.vague_width_m = 12.0;
    config.e_missing_rate = 0.15;
    config.v_missing_rate = 0.03;
  }
  return config;
}

evm::MatcherConfig ShippedConfig(bool practical) {
  evm::MatcherConfig config = evm::DefaultSsConfig(practical);
  config.refine.min_majority = 0.75;
  config.engine.workers = ProgramWorkers();
  return config;
}

std::vector<std::vector<evm::Eid>> SuspectBatches(const evm::Dataset& dataset,
                                                  std::uint64_t seed,
                                                  std::size_t count,
                                                  std::size_t size) {
  std::vector<std::vector<evm::Eid>> batches;
  batches.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    batches.push_back(evm::SampleTargets(dataset, size, SubSeed(seed, k)));
  }
  return batches;
}

std::size_t CheckBatchReport(const evm::MatchReport& report,
                             const std::vector<evm::Eid>& targets,
                             const evm::Dataset& dataset, Result& result,
                             const char* where) {
  const std::string at = std::string(" (") + where + ")";
  result.Check(ShapeViolations(report, targets) == 0,
               "results line up with the targets" + at);
  result.Check(RangeViolations(report.results) == 0,
               "confidence and majority_fraction in range" + at);
  result.Check(
      PresenceViolations(report.scenario_lists, dataset.e_scenarios) == 0,
      "every listed scenario holds its EID inclusively" + at);
  return CorrectResults(report.results, dataset.truth);
}

void ReportEndToEnd(const EndToEnd& e2e, Result& result) {
  result.Metric("setup_s", e2e.setup_s, "s");
  result.Metric("peak_rss_mb", e2e.peak_rss_mb, "MB");
  result.Metric("op_p50_ms", e2e.op_p50_ms, "ms");
  result.Metric("op_tail_ms", e2e.op_tail_ms, "ms");
  result.Metric("items_per_s", e2e.items_per_s, "1/s");
  result.Metric("bulk_s", e2e.bulk_s, "s");
}

double TailQuantile(std::size_t n) {
  if (n == 0) return 0.5;
  return std::clamp(1.0 - 10.0 / static_cast<double>(n), 0.5, 0.99);
}

}  // namespace evbench
