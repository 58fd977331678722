#include "rebuilt.hpp"

#include <algorithm>
#include <set>

#include "common/mutex.hpp"
#include "core/match_stages.hpp"
#include "core/parallel_split.hpp"
#include "core/vid_filter.hpp"

namespace evbench {
namespace {

evm::mapreduce::EngineOptions EngineFor(evm::MatcherConfig config,
                                        evm::obs::MetricsRegistry* registry) {
  config.engine.metrics = registry;
  config.engine.trace = nullptr;
  return config.engine;
}

/// Wall time minus the critical path of the bodies: what the framework
/// added to a job whose bodies ran on `threads` threads.
double JobOverhead(double wall, const ThreadTotal& bodies,
                   std::size_t threads) {
  const double critical = std::max(
      bodies.Seconds() / static_cast<double>(threads), bodies.MaxSeconds());
  return std::max(0.0, wall - critical);
}

}  // namespace

RebuiltMatcher::RebuiltMatcher(const evm::Dataset& dataset,
                               const evm::MatcherConfig& config, SpanLog& log)
    : dataset_(dataset),
      config_(config),
      log_(log),
      universe_(evm::CollectUniverse(dataset.e_scenarios)),
      gallery_(dataset.oracle, &registry_),
      engine_(EngineFor(config, &registry_)) {}

evm::MatchReport RebuiltMatcher::Match(const std::vector<evm::Eid>& targets) {
  const std::size_t threads = engine_.workers() + 1;  // caller participates
  const evm::SplitStageFn split = [&](const std::vector<evm::Eid>& subset,
                                      std::uint64_t seed) {
    evm::SplitConfig cfg = config_.split;
    cfg.seed = seed;
    evm::SplitOutcome outcome;
    double parallel_s = 0;
    {
      SpanLog::Scope span(log_, "core.split");
      outcome = evm::ParallelSetSplitter(dataset_.e_scenarios, cfg, engine_)
                    .Run(universe_, subset);
      parallel_s = span.Elapsed();
    }
    ++layers.split_calls;
    layers.split_windows += outcome.windows_consumed;
    layers.jobs += 2 * outcome.windows_consumed;  // map job + group-by job
    layers.pending_splits.push_back({subset, seed, parallel_s, outcome});
    return outcome;
  };
  const evm::FilterStageFn filter =
      [&](const std::vector<evm::EidScenarioList>& lists,
          std::vector<evm::MatchResult>& results) {
        std::set<std::uint64_t> distinct;
        for (const auto& list : lists) {
          for (const auto id : list.scenarios) distinct.insert(id.value());
        }
        const std::vector<std::uint64_t> ids(distinct.begin(), distinct.end());
        for (const auto id : ids) layers.touched.emplace_back(id);
        const std::size_t reducers =
            std::max<std::size_t>(1, engine_.workers());
        {
          SpanLog::Scope span(log_, "mapreduce.extract_job");
          ThreadTotal bodies;
          engine_.Run<std::uint64_t, std::uint64_t, std::uint64_t>(
              "ev-extract-features", ids, reducers,
              [&](const std::uint64_t& id,
                  evm::mapreduce::Emitter<std::uint64_t, std::uint64_t>& emit) {
                const evm::VScenario* scenario =
                    dataset_.v_scenarios.Find(evm::ScenarioId{id});
                if (scenario == nullptr || scenario->observations.empty()) {
                  return;
                }
                const auto t0 = Clock::now();
                const std::uint64_t rows = gallery_.Block(*scenario).rows();
                const auto t1 = Clock::now();
                bodies.AddMax(t0, t1);
                layers.extract.Add(t0, t1);
                emit(id, rows);
              },
              [](const std::uint64_t&, std::vector<std::uint64_t>&&,
                 std::vector<std::uint64_t>&) {});
          ++layers.jobs;
          layers.overhead_s += JobOverhead(span.Elapsed(), bodies, threads);
        }
        {
          SpanLog::Scope span(log_, "core.filter_job");
          results.resize(lists.size());
          evm::common::Mutex mutex;
          std::uint64_t comparisons = 0;
          ThreadTotal bodies;
          std::vector<evm::mapreduce::TaskFn> tasks;
          tasks.reserve(lists.size());
          for (std::size_t i = 0; i < lists.size(); ++i) {
            tasks.push_back([&, i](const evm::mapreduce::AttemptContext& ctx) {
              const auto t0 = Clock::now();
              evm::VidFilterCounters counters;
              evm::MatchResult result =
                  evm::FilterVid(lists[i], dataset_.v_scenarios, gallery_,
                                 counters, config_.filter);
              const auto t1 = Clock::now();
              bodies.AddMax(t0, t1);
              layers.filter.Add(t0, t1);
              if (!ctx.ClaimCommit()) {
                return evm::mapreduce::AttemptStatus::kCommitLost;
              }
              results[i] = std::move(result);
              evm::common::MutexLock lock(mutex);
              comparisons += counters.feature_comparisons;
              return evm::mapreduce::AttemptStatus::kSuccess;
            });
          }
          engine_.RunTasks("ev-filter", "filter", tasks);
          layers.comparisons += comparisons;
          ++layers.jobs;
          layers.overhead_s += JobOverhead(span.Elapsed(), bodies, threads);
        }
      };
  return evm::RunMatchPass(targets, config_.refine, config_.split.seed, split,
                           filter, registry_, nullptr);
}

std::size_t RebuiltMatcher::ProbeSplits() {
  std::size_t mismatches = 0;
  evm::obs::MetricsRegistry probe_registry;
  for (const RebuiltLayers::Split& split : layers.pending_splits) {
    evm::SplitConfig cfg = config_.split;
    cfg.seed = split.seed;
    const auto t0 = Clock::now();
    const evm::SplitOutcome sequential =
        evm::RunSplitStage(dataset_.e_scenarios, cfg, universe_, split.targets,
                           probe_registry, nullptr);
    const double sequential_s = Seconds(t0, Clock::now());
    layers.sequential_split_s += sequential_s;
    layers.overhead_s += std::max(0.0, split.parallel_s - sequential_s);
    bool same = sequential.lists.size() == split.outcome.lists.size();
    for (std::size_t k = 0; same && k < sequential.lists.size(); ++k) {
      same = sequential.lists[k].scenarios == split.outcome.lists[k].scenarios;
    }
    if (!same) ++mismatches;
  }
  layers.pending_splits.clear();
  return mismatches;
}

double AttemptsPerTask(const evm::obs::MetricsRegistry& registry) {
  double tasks = 0;
  double attempts = 0;
  for (const char* stage : {"map", "reduce", "filter"}) {
    tasks += static_cast<double>(
        registry.CounterValue(std::string("mr.") + stage + "_tasks"));
    attempts += static_cast<double>(
        registry.CounterValue(std::string("mr.") + stage + "_attempts"));
  }
  return tasks > 0 ? attempts / tasks : 0.0;
}

}  // namespace evbench
