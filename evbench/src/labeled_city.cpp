// labeled_city: universal labeling on fresh matchers, then closed-loop
// single-EID MatchOne point queries over every EID on the warm gallery.
// Extraction is near zero in the point queries; their time goes to set
// splitting, MapReduce job overhead and block scans.

#include <algorithm>
#include <cstdio>

#include "checks.hpp"
#include "common/rng.hpp"
#include "core/matcher.hpp"
#include "rebuilt.hpp"
#include "workloads.hpp"

namespace evbench {
namespace {

constexpr double kRoundsPerSecond = 0.6;
constexpr std::size_t kMinRounds = 2;
/// Rounds per pass over every EID: a round answers this share of a pass.
constexpr std::size_t kRoundsPerPass = 2;
/// Ground-truth accuracy floors (the ideal paper world measures ~0.86 for
/// universal labeling and about the same for point queries).
constexpr double kAccuracyFloor = 0.75;

/// Every EID once per pass, in a seeded order.
std::vector<evm::Eid> PointQueryOrder(const std::vector<evm::Eid>& universe,
                                      std::uint64_t seed,
                                      std::size_t passes) {
  std::vector<evm::Eid> order;
  for (std::size_t p = 0; p < passes; ++p) {
    std::vector<evm::Eid> pass = universe;
    evm::Rng rng = evm::MakeStream(SubSeed(seed, p), "point-query-order");
    for (std::size_t i = pass.size(); i > 1; --i) {
      std::swap(pass[i - 1], pass[rng.NextBelow(i)]);
    }
    order.insert(order.end(), pass.begin(), pass.end());
  }
  return order;
}

std::vector<evm::ScenarioId> ListedScenarios(const evm::MatchReport& report) {
  std::vector<evm::ScenarioId> ids;
  for (const auto& list : report.scenario_lists) {
    ids.insert(ids.end(), list.scenarios.begin(), list.scenarios.end());
  }
  return ids;
}

}  // namespace

void RunLabeledCity(const Args& args, Result& result) {
  const evm::DatasetConfig world = PaperWorld(false);
  const auto g0 = Clock::now();
  const evm::Dataset dataset = evm::GenerateDataset(world);
  const double generate_s = Seconds(g0, Clock::now());
  const evm::MatcherConfig config = ShippedConfig(/*practical=*/false);
  const std::vector<evm::Eid> universe =
      evm::CollectUniverse(dataset.e_scenarios);
  const std::size_t rounds = OpsFor(args, kRoundsPerSecond, kMinRounds);
  const std::size_t per_round = universe.size() / kRoundsPerPass;
  std::vector<evm::Eid> queries = PointQueryOrder(
      universe, SubSeed(args.seed, 3),
      (rounds + kRoundsPerPass - 1) / kRoundsPerPass);
  queries.resize(rounds * per_round);
  const double setup_s = Seconds(ProcessStart(), Clock::now());

  // Each round labels the city on a fresh matcher (cold gallery), then
  // answers half a pass of point queries (closed loop; every EID once per
  // pass) on that matcher's warm gallery. Interleaving the two spreads both
  // over the whole run.
  std::vector<double> label_s;
  std::vector<double> query_ms;
  std::vector<evm::MatchReport> answers;
  evm::MatchReport labeling;
  std::size_t query_correct = 0;
  query_ms.reserve(queries.size());
  for (std::size_t round = 0; round < rounds; ++round) {
    evm::EvMatcher matcher(dataset.e_scenarios, dataset.v_scenarios,
                           dataset.oracle, config);
    const auto t0 = Clock::now();
    labeling = matcher.MatchUniversal();
    label_s.push_back(Seconds(t0, Clock::now()));
    ++result.attempted;
    const std::size_t correct = CheckBatchReport(
        labeling, universe, dataset, result, "universal labeling");
    result.Check(static_cast<double>(correct) >=
                     kAccuracyFloor * static_cast<double>(universe.size()),
                 "labeling accuracy at or above the floor");
    // No refining in the ideal setting: a cold labeling extracts exactly
    // the observations of the scenarios its lists name.
    result.Check(ObservationsIn(ListedScenarios(labeling),
                                dataset.v_scenarios) ==
                     matcher.gallery().ExtractionCount(),
                 "observations in listed scenarios equal gallery.extractions");

    for (std::size_t i = round * per_round; i < (round + 1) * per_round;
         ++i) {
      const auto q0 = Clock::now();
      evm::MatchReport report = matcher.MatchOne(queries[i]);
      query_ms.push_back(Seconds(q0, Clock::now()) * 1e3);
      ++result.attempted;
      query_correct += CheckBatchReport(report, {queries[i]}, dataset, result,
                                        "point query");
      if (args.trace) answers.push_back(std::move(report));
    }
  }
  const double peak_rss_mb = PeakRssMb();
  result.Check(static_cast<double>(query_correct) >=
                   kAccuracyFloor * static_cast<double>(queries.size()),
               "point-query accuracy at or above the floor");

  if (!args.trace) {
    EndToEnd e2e;
    e2e.setup_s = setup_s;
    e2e.peak_rss_mb = peak_rss_mb;
    e2e.op_p50_ms = Median(query_ms);
    // The tail is taken per round and the median of the rounds' tails
    // reported: one scheduling hiccup moves a single round's p98, not the
    // run's figure.
    std::vector<double> round_tails;
    for (std::size_t r = 0; r < rounds; ++r) {
      const std::vector<double> round(query_ms.begin() + r * per_round,
                                      query_ms.begin() + (r + 1) * per_round);
      round_tails.push_back(Quantile(round, TailQuantile(per_round)));
    }
    e2e.op_tail_ms = Median(round_tails);
    e2e.items_per_s =
        static_cast<double>(queries.size()) / (Sum(query_ms) * 1e-3);
    e2e.bulk_s = Median(label_s);
    ReportEndToEnd(e2e, result);
    return;
  }

  // Traced run: one labeling and then every round's point queries through
  // the rebuilt stages, on one warm rebuilt gallery (a warm gallery answers
  // the same, whichever labeling warmed it).
  SpanLog log;
  RebuiltMatcher rebuilt(dataset, config, log);
  const auto t_label = Clock::now();
  evm::MatchReport traced_labeling;
  {
    SpanLog::Scope span(log, "labeling");
    traced_labeling = rebuilt.Match(universe);
  }
  const double traced_label_s = Seconds(t_label, Clock::now());
  result.Check(ReportDifferences(traced_labeling, labeling) == 0,
               "rebuilt stages reproduce the facade's labeling");
  result.Check(ObservationsIn(rebuilt.layers.touched, dataset.v_scenarios) ==
                   rebuilt.gallery().ExtractionCount(),
               "rebuilt labeling extraction count");
  result.Check(rebuilt.ProbeSplits() == 0,
               "parallel and sequential labeling splits agree");
  const double label_extract_s = rebuilt.layers.extract.Seconds();
  const std::uint64_t label_extractions = rebuilt.gallery().ExtractionCount();

  // Point-query phase deltas.
  RebuiltLayers& l = rebuilt.layers;
  const double split_before = log.TotalSeconds("core.split");
  const double filter_before = log.TotalSeconds("core.filter_job");
  const double filter_cpu_before = l.filter.Seconds();
  const std::size_t split_calls_before = l.split_calls;
  const std::size_t windows_before = l.split_windows;
  const std::size_t jobs_before = l.jobs;
  const double overhead_before = l.overhead_s;
  const std::uint64_t comparisons_before = l.comparisons;
  const std::uint64_t hits_before = rebuilt.gallery().HitCount();
  const std::size_t cached_before = rebuilt.gallery().CachedScenarioCount();

  std::vector<double> traced_ms;
  traced_ms.reserve(queries.size());
  const auto t_queries = Clock::now();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto t0 = Clock::now();
    evm::MatchReport report;
    {
      SpanLog::Scope span(log, "point_query");
      report = rebuilt.Match({queries[i]});
    }
    traced_ms.push_back(Seconds(t0, Clock::now()) * 1e3);
    result.Check(ReportDifferences(report, answers[i]) == 0,
                 "rebuilt stages reproduce the facade's point query");
  }
  const double traced_total =
      traced_label_s + Seconds(t_queries, Clock::now());
  const double n = static_cast<double>(queries.size());
  const double split_s = log.TotalSeconds("core.split") - split_before;
  const double filter_s = log.TotalSeconds("core.filter_job") - filter_before;
  const double filter_cpu_s = l.filter.Seconds() - filter_cpu_before;
  const std::size_t split_calls = l.split_calls - split_calls_before;
  const std::size_t windows = l.split_windows - windows_before;
  const std::uint64_t comparisons = l.comparisons - comparisons_before;
  const std::uint64_t hits = rebuilt.gallery().HitCount() - hits_before;
  const std::size_t misses =
      rebuilt.gallery().CachedScenarioCount() - cached_before;
  const double sequential_before = l.sequential_split_s;
  result.Check(rebuilt.ProbeSplits() == 0,
               "parallel and sequential point-query splits agree");
  const double sequential_split_s = l.sequential_split_s - sequential_before;
  const double overhead_s = l.overhead_s - overhead_before;
  const std::size_t jobs = l.jobs - jobs_before;

  auto& layers = result.layers;
  layers["dataset.generate_s"] = generate_s;
  layers["core.split_ms_per_query"] = split_s / n * 1e3;
  layers["core.split_windows"] =
      static_cast<double>(windows) / static_cast<double>(split_calls);
  layers["mapreduce.overhead_ms_per_job"] =
      overhead_s / static_cast<double>(jobs) * 1e3;
  layers["mapreduce.attempts_per_task"] = AttemptsPerTask(rebuilt.registry());
  layers["vsense.extract_s"] = label_extract_s;
  layers["vsense.extractions"] = static_cast<double>(label_extractions);
  layers["vsense.extract_us_per_obs"] =
      label_extract_s / static_cast<double>(label_extractions) * 1e6;
  layers["vsense.gallery_hit_ratio"] =
      static_cast<double>(hits) / static_cast<double>(hits + misses);
  layers["core.filter_ms_per_query"] = filter_s / n * 1e3;
  layers["core.feature_comparisons"] = static_cast<double>(comparisons) / n;
  layers["core.comparisons_per_s"] =
      static_cast<double>(comparisons) / filter_cpu_s;
  layers["trace.uncovered_share"] =
      (traced_total - log.RootSeconds()) / traced_total;
  layers["trace.overhead_ratio"] = Median(traced_ms) / Median(query_ms);
  PrintLayerTable("labeled_city", log, traced_total, Median(traced_ms),
                  Median(query_ms));
  std::printf("  point-query split: %.4f ms through MapReduce, %.4f ms "
              "sequential (same lists)\n",
              split_s / n * 1e3, sequential_split_s / n * 1e3);
  std::printf("  labeling: %.4f s traced (%.4f s untraced median); "
              "vsense.extract %.4f cpu-s for %llu observations\n",
              traced_label_s, Median(label_s), label_extract_s,
              static_cast<unsigned long long>(label_extractions));
}

}  // namespace evbench
