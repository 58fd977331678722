#pragma once
// The four workloads. Each fills `result` with the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run) and with the outcome
// of its output checks. README.md describes what each one exercises.

#include <cstddef>
#include <vector>

#include "bench.hpp"
#include "core/types.hpp"
#include "dataset/generator.hpp"
#include "metrics/experiment.hpp"

namespace evbench {

void RunSuspectBatches(const Args& args, Result& result);
void RunLabeledCity(const Args& args, Result& result);
void RunLiveFeed(const Args& args, Result& result);
void RunDistSuspects(const Args& args, Result& result);

/// Threads the benchmark lets the program use: the machine's cores, less
/// the benchmark thread, which takes part in every scheduler job it starts.
[[nodiscard]] std::size_t ProgramWorkers();

/// Every workload runs on one fixed world; --seed draws the queries
/// (suspect batches, watchlists, point-query order) made against it. World
/// to world, the same query mix costs up to ~20% more or less, which would
/// drown the run-to-run spread the benchmark is meant to resolve.
inline constexpr std::uint64_t kWorldSeed = 2017;

/// The paper world (1000 people, density 40, seed kWorldSeed), ideal or
/// practical setting (localisation noise, vague zones, missing EIDs and
/// VIDs).
[[nodiscard]] evm::DatasetConfig PaperWorld(bool practical);

/// The matcher configuration the CLI and examples ship (DefaultSsConfig),
/// with refining as the practical examples run it and the MapReduce pool
/// sized to ProgramWorkers().
[[nodiscard]] evm::MatcherConfig ShippedConfig(bool practical);

/// `count` suspect batches of `size` EIDs each, drawn from the seed.
[[nodiscard]] std::vector<std::vector<evm::Eid>> SuspectBatches(
    const evm::Dataset& dataset, std::uint64_t seed, std::size_t count,
    std::size_t size);

/// Accuracy floor, output ranges, presence and shape checks shared by the
/// batch workloads. Returns the number of correct results.
std::size_t CheckBatchReport(const evm::MatchReport& report,
                             const std::vector<evm::Eid>& targets,
                             const evm::Dataset& dataset, Result& result,
                             const char* where);

/// The end-to-end metric set every workload reports (untraced runs).
struct EndToEnd {
  double setup_s{0};
  /// PeakRssMb() taken right after the timed phase (plus the workers' peak
  /// for dist_suspects), so memory the output checks use does not count.
  double peak_rss_mb{0};
  double op_p50_ms{0};
  double op_tail_ms{0};
  double items_per_s{0};
  double bulk_s{0};
};
void ReportEndToEnd(const EndToEnd& e2e, Result& result);

/// The quantile whose tail still holds ten samples of `n` (at most p99).
[[nodiscard]] double TailQuantile(std::size_t n);

}  // namespace evbench
