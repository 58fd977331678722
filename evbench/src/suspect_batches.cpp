// suspect_batches: a seeded sequence of crime-scene batches of suspect
// EIDs, each matched on a fresh EvMatcher (practical setting, refining on),
// so every batch meets a cold gallery and the time goes to V-stage
// rendering and extraction fanned out over MapReduce.

#include <cstdio>

#include "checks.hpp"
#include "core/matcher.hpp"
#include "rebuilt.hpp"
#include "workloads.hpp"

namespace evbench {
namespace {

constexpr std::size_t kBatchSize = 100;
constexpr double kBatchesPerSecond = 2.2;
constexpr std::size_t kMinBatches = 4;
/// Accuracy floor against the generator's ground truth, over all batches
/// of a run (the practical world measures 0.8-0.9).
constexpr double kAccuracyFloor = 0.70;

}  // namespace

void RunSuspectBatches(const Args& args, Result& result) {
  const evm::DatasetConfig world = PaperWorld(true);
  const auto g0 = Clock::now();
  const evm::Dataset dataset = evm::GenerateDataset(world);
  const double generate_s = Seconds(g0, Clock::now());
  const auto batches =
      SuspectBatches(dataset, SubSeed(args.seed, 2),
                     OpsFor(args, kBatchesPerSecond, kMinBatches), kBatchSize);
  const evm::MatcherConfig config = ShippedConfig(/*practical=*/true);
  const double setup_s = Seconds(ProcessStart(), Clock::now());

  std::vector<double> batch_s;
  std::vector<evm::MatchReport> reports;
  std::size_t correct = 0;
  std::size_t matched = 0;
  for (const auto& targets : batches) {
    evm::EvMatcher matcher(dataset.e_scenarios, dataset.v_scenarios,
                           dataset.oracle, config);
    const auto t0 = Clock::now();
    evm::MatchReport report = matcher.Match(targets);
    batch_s.push_back(Seconds(t0, Clock::now()));
    ++result.attempted;
    correct += CheckBatchReport(report, targets, dataset, result,
                                "suspect batch");
    matched += targets.size();
    if (args.trace) reports.push_back(std::move(report));
  }
  const double peak_rss_mb = PeakRssMb();
  result.Check(static_cast<double>(correct) >=
                   kAccuracyFloor * static_cast<double>(matched),
               "suspect-batch accuracy at or above the floor");

  if (!args.trace) {
    EndToEnd e2e;
    e2e.setup_s = setup_s;
    e2e.peak_rss_mb = peak_rss_mb;
    e2e.op_p50_ms = Median(batch_s) * 1e3;
    e2e.op_tail_ms = Quantile(batch_s, TailQuantile(batch_s.size())) * 1e3;
    e2e.items_per_s = static_cast<double>(matched) / Sum(batch_s);
    e2e.bulk_s = Sum(batch_s);
    ReportEndToEnd(e2e, result);
    return;
  }

  // Traced run: the same batches through the rebuilt stages.
  SpanLog log;
  std::vector<double> traced_s;
  double extract_s = 0;
  double filter_cpu_s = 0;
  double overhead_s = 0;
  double attempts = 0;
  std::size_t jobs = 0;
  std::size_t split_calls = 0;
  std::size_t split_windows = 0;
  std::uint64_t extractions = 0;
  std::uint64_t hits = 0;
  std::uint64_t cached = 0;
  std::uint64_t comparisons = 0;
  for (std::size_t k = 0; k < batches.size(); ++k) {
    RebuiltMatcher rebuilt(dataset, config, log);
    const auto t0 = Clock::now();
    const evm::MatchReport report = rebuilt.Match(batches[k]);
    traced_s.push_back(Seconds(t0, Clock::now()));
    result.Check(ReportDifferences(report, reports[k]) == 0,
                 "rebuilt stages reproduce the facade's batch report");
    result.Check(ObservationsIn(rebuilt.layers.touched, dataset.v_scenarios) ==
                     rebuilt.gallery().ExtractionCount(),
                 "observations in touched scenarios equal gallery.extractions");
    result.Check(rebuilt.ProbeSplits() == 0,
                 "parallel and sequential splits select the same scenarios");
    const RebuiltLayers& l = rebuilt.layers;
    extract_s += l.extract.Seconds();
    filter_cpu_s += l.filter.Seconds();
    overhead_s += l.overhead_s;
    jobs += l.jobs;
    split_calls += l.split_calls;
    split_windows += l.split_windows;
    comparisons += l.comparisons;
    extractions += rebuilt.gallery().ExtractionCount();
    hits += rebuilt.gallery().HitCount();
    cached += rebuilt.gallery().CachedScenarioCount();
    attempts += AttemptsPerTask(rebuilt.registry());
  }
  const double n = static_cast<double>(batches.size());
  auto& layers = result.layers;
  layers["dataset.generate_s"] = generate_s;
  layers["core.split_ms_per_query"] = log.TotalSeconds("core.split") / n * 1e3;
  layers["core.split_windows"] =
      static_cast<double>(split_windows) / static_cast<double>(split_calls);
  layers["mapreduce.overhead_ms_per_job"] =
      overhead_s / static_cast<double>(jobs) * 1e3;
  layers["mapreduce.attempts_per_task"] = attempts / n;
  layers["vsense.extract_s"] = extract_s / n;
  layers["vsense.extractions"] = static_cast<double>(extractions) / n;
  layers["vsense.extract_us_per_obs"] =
      extract_s / static_cast<double>(extractions) * 1e6;
  layers["vsense.gallery_hit_ratio"] =
      static_cast<double>(hits) / static_cast<double>(hits + cached);
  layers["core.filter_ms_per_query"] =
      log.TotalSeconds("core.filter_job") / n * 1e3;
  layers["core.feature_comparisons"] = static_cast<double>(comparisons) / n;
  layers["core.comparisons_per_s"] =
      static_cast<double>(comparisons) / filter_cpu_s;
  const double traced_total = Sum(traced_s);
  layers["trace.uncovered_share"] =
      (traced_total - log.RootSeconds()) / traced_total;
  layers["trace.overhead_ratio"] = Median(traced_s) / Median(batch_s);
  PrintLayerTable("suspect_batches", log, traced_total,
                  Median(traced_s) * 1e3, Median(batch_s) * 1e3);
  std::printf("  on program threads: vsense.extract %.4f cpu-s, "
              "FilterVid %.4f cpu-s\n",
              extract_s, filter_cpu_s);
}

}  // namespace evbench
