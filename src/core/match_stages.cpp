#include "core/match_stages.hpp"

#include <unordered_set>

#include "common/mutex.hpp"
#include "core/match_counters.hpp"

namespace evm {

SplitOutcome RunSplitStage(const EScenarioSet& scenarios,
                           const SplitConfig& config,
                           const std::vector<Eid>& universe,
                           const std::vector<Eid>& targets,
                           obs::MetricsRegistry& metrics,
                           obs::TraceRecorder* trace) {
  obs::StageSpan span(trace, "e-split", metrics.latency(kLatEStage));
  obs::AmbientParentScope ambient(trace, span.id());
  SplitOutcome outcome = SetSplitter(scenarios, config, trace)
                             .Run(universe, targets);
  // Accumulated per split pass, so refine rounds' windows count too.
  metrics.counter(kCtrSplittingIterations).Add(outcome.windows_consumed);
  return outcome;
}

void MergeFilterCounters(const VidFilterCounters& from,
                         VidFilterCounters& into) {
  into.feature_comparisons += from.feature_comparisons;
  into.scenarios_processed += from.scenarios_processed;
  into.exact_feature_rows += from.exact_feature_rows;
  into.quantized_full_scans += from.quantized_full_scans;
}

void PublishFilterCounters(const VidFilterCounters& counters,
                           obs::MetricsRegistry& metrics) {
  metrics.counter(kCtrFeatureComparisons).Add(counters.feature_comparisons);
  metrics.counter(kCtrScenariosProcessed).Add(counters.scenarios_processed);
  metrics.counter(kCtrExactFeatureRows).Add(counters.exact_feature_rows);
  metrics.counter(kCtrQuantizedFullScans).Add(counters.quantized_full_scans);
}

void RunFilterStage(const std::vector<EidScenarioList>& lists,
                    const VScenarioSet& v_scenarios, FeatureGallery& gallery,
                    const VidFilterOptions& options,
                    std::vector<MatchResult>& results,
                    obs::MetricsRegistry& metrics, obs::TraceRecorder* trace,
                    ThreadPool* pool) {
  obs::StageSpan span(trace, "v-filter", metrics.latency(kLatVStage));
  obs::AmbientParentScope ambient(trace, span.id());
  results.resize(lists.size());
  VidFilterCounters total;
  if (pool == nullptr) {
    for (std::size_t i = 0; i < lists.size(); ++i) {
      results[i] =
          FilterVid(lists[i], v_scenarios, gallery, total, options, trace);
    }
  } else {
    common::Mutex counters_mutex;
    pool->ParallelFor(lists.size(), [&](std::size_t i) {
      VidFilterCounters counters;
      results[i] =
          FilterVid(lists[i], v_scenarios, gallery, counters, options, trace);
      common::MutexLock lock(counters_mutex);
      MergeFilterCounters(counters, total);
    });
  }
  PublishFilterCounters(total, metrics);
}

void RunFilterStageScheduled(const std::vector<EidScenarioList>& lists,
                             const VScenarioSet& v_scenarios,
                             FeatureGallery& gallery,
                             const VidFilterOptions& options,
                             std::vector<MatchResult>& results,
                             obs::MetricsRegistry& metrics,
                             obs::TraceRecorder* trace,
                             const TaskRunnerFn& run_tasks) {
  obs::StageSpan span(trace, "v-filter", metrics.latency(kLatVStage));
  obs::AmbientParentScope ambient(trace, span.id());
  results.resize(lists.size());
  common::Mutex counters_mutex;
  VidFilterCounters total;
  std::vector<mapreduce::TaskFn> tasks;
  tasks.reserve(lists.size());
  for (std::size_t i = 0; i < lists.size(); ++i) {
    tasks.push_back([&, i](const mapreduce::AttemptContext& ctx) {
      // Pure up to the commit point: the result slot and the shared totals
      // are published only by the attempt that wins the claim, keeping
      // counters retry- and speculation-invariant.
      VidFilterCounters counters;
      MatchResult result =
          FilterVid(lists[i], v_scenarios, gallery, counters, options, trace);
      if (!ctx.ClaimCommit()) return mapreduce::AttemptStatus::kCommitLost;
      results[i] = std::move(result);
      common::MutexLock lock(counters_mutex);
      MergeFilterCounters(counters, total);
      return mapreduce::AttemptStatus::kSuccess;
    });
  }
  run_tasks(tasks);
  PublishFilterCounters(total, metrics);
}

MatchReport RunMatchPass(const std::vector<Eid>& targets,
                         const RefineConfig& refine, std::uint64_t base_seed,
                         const SplitStageFn& split, const FilterStageFn& filter,
                         obs::MetricsRegistry& metrics,
                         obs::TraceRecorder* trace) {
  MatchReport report;
  const MatchCounterSnapshot before = SnapshotMatchCounters(metrics);
  obs::StageSpan match_span(trace, "match");
  obs::AmbientParentScope match_ambient(trace, match_span.id());

  SplitOutcome outcome = split(targets, base_seed);
  filter(outcome.lists, report.results);

  // Matching refining (Algorithm 2): re-split and re-filter the EIDs whose
  // result is not acceptable, over a fresh window order.
  if (refine.enabled) {
    const obs::Counter refine_rounds = metrics.counter(kCtrRefineRounds);
    for (std::size_t round = 1; round <= refine.max_rounds; ++round) {
      std::vector<std::size_t> pending;
      for (std::size_t i = 0; i < report.results.size(); ++i) {
        const MatchResult& r = report.results[i];
        if (!r.resolved || r.majority_fraction <= refine.min_majority) {
          pending.push_back(i);
        }
      }
      if (pending.empty()) break;
      std::vector<Eid> retry;
      retry.reserve(pending.size());
      for (const std::size_t i : pending) retry.push_back(targets[i]);

      SplitOutcome retry_outcome =
          split(retry, base_seed + 0x9e3779b9ULL * round);
      std::vector<MatchResult> retry_results;
      filter(retry_outcome.lists, retry_results);
      refine_rounds.Add();
      for (std::size_t k = 0; k < pending.size(); ++k) {
        MatchResult& old_result = report.results[pending[k]];
        const MatchResult& new_result = retry_results[k];
        const bool better =
            new_result.resolved &&
            (!old_result.resolved ||
             new_result.majority_fraction > old_result.majority_fraction ||
             (new_result.majority_fraction == old_result.majority_fraction &&
              new_result.confidence > old_result.confidence));
        if (better) {
          old_result = new_result;
          outcome.lists[pending[k]] = retry_outcome.lists[k];
        }
      }
    }
  }

  // Final statistics over the lists that produced the reported results;
  // everything the stages counted comes out of the registry delta.
  std::unordered_set<std::uint64_t> distinct;
  std::size_t total_length = 0;
  std::size_t undistinguished = 0;
  for (const EidScenarioList& list : outcome.lists) {
    total_length += list.scenarios.size();
    if (!list.distinguished) ++undistinguished;
    for (const ScenarioId id : list.scenarios) distinct.insert(id.value());
  }
  report.stats.distinct_scenarios = distinct.size();
  report.stats.avg_scenarios_per_eid =
      outcome.lists.empty() ? 0.0
                            : static_cast<double>(total_length) /
                                  static_cast<double>(outcome.lists.size());
  report.stats.undistinguished_eids = undistinguished;
  ApplyMatchCounterDelta(before, SnapshotMatchCounters(metrics), report.stats);
  PublishDerivedStats(&metrics, report.stats);
  report.scenario_lists = std::move(outcome.lists);
  return report;
}

}  // namespace evm
