#include "core/matcher.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/error.hpp"
#include "common/mutex.hpp"
#include "core/match_counters.hpp"

namespace evm {

EvMatcher::EvMatcher(const EScenarioSet& e_scenarios,
                     const VScenarioSet& v_scenarios,
                     const VisualOracle& oracle, MatcherConfig config)
    : e_scenarios_(e_scenarios),
      v_scenarios_(v_scenarios),
      config_(config),
      universe_(CollectUniverse(e_scenarios)),
      gallery_(oracle, &metrics(), config_.trace) {
  if (config_.execution == ExecutionMode::kMapReduce) {
    EVM_CHECK_MSG(config_.split.mode == SplitMode::kWindowSignature,
                  "MapReduce execution requires the window-signature mode");
    // The engine shares the matcher's registry/recorder unless the caller
    // wired its own, so mr.* counters land next to the match.* ones.
    if (config_.engine.metrics == nullptr) config_.engine.metrics = &metrics();
    if (config_.engine.trace == nullptr) config_.engine.trace = config_.trace;
    engine_ = std::make_unique<mapreduce::MapReduceEngine>(config_.engine);
  }
}

SplitOutcome EvMatcher::RunSplit(const std::vector<Eid>& targets,
                                 std::uint64_t seed) {
  SplitConfig split = config_.split;
  split.seed = seed;
  if (engine_ == nullptr) {
    return RunSplitStage(e_scenarios_, split, universe_, targets, metrics(),
                         config_.trace);
  }
  obs::StageSpan span(config_.trace, "e-split", metrics().latency(kLatEStage));
  obs::AmbientParentScope ambient(config_.trace, span.id());
  SplitOutcome outcome =
      ParallelSetSplitter(e_scenarios_, split, *engine_, config_.trace)
          .Run(universe_, targets);
  // Accumulated per split pass, so refine rounds' windows count too.
  metrics()
      .counter(kCtrSplittingIterations)
      .Add(outcome.windows_consumed);
  return outcome;
}

void EvMatcher::RunFilter(const std::vector<EidScenarioList>& lists,
                          std::vector<MatchResult>& results) {
  const VidFilterOptions& options = config_.filter;
  if (engine_ == nullptr) {
    RunFilterStage(lists, v_scenarios_, gallery_, options, results,
                   metrics(), config_.trace);
    return;
  }
  obs::MetricsRegistry& reg = metrics();
  obs::TraceRecorder* const trace = config_.trace;
  obs::StageSpan span(trace, "v-filter", reg.latency(kLatVStage));
  obs::AmbientParentScope ambient(trace, span.id());
  results.resize(lists.size());

  // Parallel V stage (paper Sec. V-C).
  // Stage 1: fan feature extraction out across mappers, one task per
  // distinct selected scenario; results land in the shared gallery (the
  // "distributed storage" of the paper).
  std::unordered_set<std::uint64_t> distinct;
  for (const EidScenarioList& list : lists) {
    for (const ScenarioId id : list.scenarios) distinct.insert(id.value());
  }
  std::vector<std::uint64_t> scenario_ids(distinct.begin(), distinct.end());
  std::sort(scenario_ids.begin(), scenario_ids.end());
  const std::size_t reducers = std::max<std::size_t>(1, engine_->workers());
  engine_->Run<std::uint64_t, std::uint64_t, std::uint64_t>(
      "ev-extract-features", scenario_ids, reducers,
      [this](const std::uint64_t& id,
             mapreduce::Emitter<std::uint64_t, std::uint64_t>& emit) {
        const VScenario* scenario = v_scenarios_.Find(ScenarioId{id});
        if (scenario == nullptr || scenario->observations.empty()) return;
        emit(id, gallery_.Block(*scenario).rows());
      },
      [](const std::uint64_t&, std::vector<std::uint64_t>&&,
         std::vector<std::uint64_t>&) {});

  // Stage 2: per-EID feature comparison, one scheduler task per EID — each
  // EID's selected V-Scenarios are conveyed to the same worker, and the
  // engine's fault-tolerance (retries, deadlines, speculative backups)
  // covers the comparison work. The result slot and the shared totals are
  // published only by the attempt that wins the commit, so counters stay
  // retry- and speculation-invariant.
  common::Mutex counters_mutex;
  VidFilterCounters total;
  std::vector<mapreduce::TaskFn> tasks;
  tasks.reserve(lists.size());
  for (std::size_t i = 0; i < lists.size(); ++i) {
    tasks.push_back([&, i](const mapreduce::AttemptContext& ctx) {
      VidFilterCounters counters;
      MatchResult result = FilterVid(lists[i], v_scenarios_, gallery_,
                                     counters, options, trace);
      if (!ctx.ClaimCommit()) return mapreduce::AttemptStatus::kCommitLost;
      results[i] = std::move(result);
      common::MutexLock lock(counters_mutex);
      MergeFilterCounters(counters, total);
      return mapreduce::AttemptStatus::kSuccess;
    });
  }
  engine_->RunTasks("ev-filter", "filter", tasks);
  PublishFilterCounters(total, reg);
}

MatchReport EvMatcher::Match(const std::vector<Eid>& targets) {
  return RunMatchPass(
      targets, config_.refine, config_.split.seed,
      [this](const std::vector<Eid>& subset, std::uint64_t seed) {
        return RunSplit(subset, seed);
      },
      [this](const std::vector<EidScenarioList>& lists,
             std::vector<MatchResult>& results) { RunFilter(lists, results); },
      metrics(), config_.trace);
}

MatchReport EvMatcher::MatchOne(Eid eid) { return Match({eid}); }

MatchReport EvMatcher::MatchUniversal() { return Match(universe_); }

}  // namespace evm
