#include "stream/incremental_matcher.hpp"

#include <algorithm>

#include "stream/counters.hpp"

namespace evm::stream {

IncrementalMatcher::IncrementalMatcher(const WindowedScenarioStore& store,
                                       const VisualOracle& oracle,
                                       IncrementalMatcherConfig config,
                                       obs::MetricsRegistry& metrics,
                                       obs::TraceRecorder* trace,
                                       ThreadPool* pool,
                                       mapreduce::TaskScheduler* scheduler)
    : store_(store),
      config_(std::move(config)),
      metrics_(metrics),
      trace_(trace),
      pool_(pool),
      scheduler_(scheduler),
      gallery_(oracle, &metrics, trace) {
  std::sort(config_.targets.begin(), config_.targets.end());
  config_.targets.erase(
      std::unique(config_.targets.begin(), config_.targets.end()),
      config_.targets.end());
}

const std::vector<Eid>& IncrementalMatcher::CurrentTargets() const {
  return config_.targets.empty() ? store_.universe() : config_.targets;
}

std::size_t IncrementalMatcher::OnSealed(const SealResult& sealed,
                                         bool e_only) {
  // Retention expiry drops the cached features of every scenario slot of
  // the expired windows, on every seal step — even ones that dirty no
  // tracked target — so expired features never outlive their scenarios.
  // Same id enumeration the store uses when it removes the V side; window
  // indices never recur, so a later rebuild of the same id is impossible.
  const std::size_t cells = store_.grid().CellCount();
  for (const std::size_t window : sealed.expired_windows) {
    for (std::size_t c = 0; c < cells; ++c) {
      gallery_.Evict(store_.e_scenarios().IdFor(window, CellId{c}).value());
    }
  }
  if (sealed.changed_eids.empty() && (e_only || e_only_pending_.empty())) {
    return 0;
  }
  obs::StageSpan span(trace_, "stream.incremental",
                      metrics_.latency(kLatIncremental));
  obs::AmbientParentScope ambient(trace_, span.id());

  // Dirty set: tracked targets whose scenario membership just changed.
  // (Both sides are sorted.) A full pass additionally re-queues targets
  // stuck on an E-only result from the shedding phase.
  const std::vector<Eid>& targets = CurrentTargets();
  std::vector<Eid> dirty;
  std::set_intersection(targets.begin(), targets.end(),
                        sealed.changed_eids.begin(),
                        sealed.changed_eids.end(), std::back_inserter(dirty));
  if (!e_only && !e_only_pending_.empty()) {
    std::vector<Eid> merged;
    merged.reserve(dirty.size() + e_only_pending_.size());
    std::set_union(dirty.begin(), dirty.end(), e_only_pending_.begin(),
                   e_only_pending_.end(), std::back_inserter(merged));
    dirty = std::move(merged);
    e_only_pending_.clear();
  }
  if (dirty.empty()) return 0;
  metrics_.counter(kCtrDirtyTargets).Add(dirty.size());
  metrics_.counter(kCtrIncrementalPasses).Add();

  SplitOutcome outcome =
      RunSplitStage(store_.e_scenarios(), config_.split, store_.universe(),
                    dirty, metrics_, trace_);

  if (e_only) {
    // Degraded tier: scenario membership is fresh, but the V stage is
    // skipped. Re-publish the last full result (or an unresolved
    // placeholder) flagged e_only for every target whose list changed, and
    // remember it for a forced refresh after recovery. last_lists_ is
    // deliberately left untouched — the next full pass must see the list
    // as changed.
    std::vector<Eid> affected;
    std::size_t published = 0;
    {
      common::MutexLock lock(provisional_mutex_);
      for (const EidScenarioList& list : outcome.lists) {
        const auto it = last_lists_.find(list.eid.value());
        if (it != last_lists_.end() && it->second == list.scenarios) continue;
        affected.push_back(list.eid);
        MatchResult& slot = provisional_[list.eid.value()];
        if (slot.chosen_per_scenario.empty() && !slot.resolved) {
          slot.eid = list.eid;  // fresh placeholder
        }
        slot.e_only = true;
        ++published;
      }
    }
    if (published != 0) {
      metrics_.counter(kCtrEOnlyMatches).Add(published);
      std::sort(affected.begin(), affected.end());
      std::vector<Eid> merged;
      merged.reserve(e_only_pending_.size() + affected.size());
      std::set_union(e_only_pending_.begin(), e_only_pending_.end(),
                     affected.begin(), affected.end(),
                     std::back_inserter(merged));
      e_only_pending_ = std::move(merged);
    }
    return published;
  }

  // The V stage is the expensive one: run it only for targets whose
  // *selected* scenario list actually changed.
  std::vector<EidScenarioList> changed;
  for (EidScenarioList& list : outcome.lists) {
    auto it = last_lists_.find(list.eid.value());
    if (it != last_lists_.end() && it->second == list.scenarios) continue;
    last_lists_[list.eid.value()] = list.scenarios;
    changed.push_back(std::move(list));
  }
  if (changed.empty()) return 0;

  std::vector<MatchResult> results;
  if (scheduler_ != nullptr) {
    RunFilterStageScheduled(
        changed, store_.v_scenarios(), gallery_, config_.filter, results,
        metrics_, trace_, [this](const std::vector<mapreduce::TaskFn>& tasks) {
          scheduler_->Run("stream-filter", "filter", tasks);
        });
  } else {
    RunFilterStage(changed, store_.v_scenarios(), gallery_, config_.filter,
                   results, metrics_, trace_, pool_);
  }
  {
    common::MutexLock lock(provisional_mutex_);
    for (MatchResult& result : results) {
      provisional_[result.eid.value()] = std::move(result);
    }
  }
  return results.size();
}

MatchReport IncrementalMatcher::Drain() {
  const std::vector<Eid>& targets = CurrentTargets();
  return RunMatchPass(
      targets, config_.refine, config_.split.seed,
      [this](const std::vector<Eid>& subset, std::uint64_t seed) {
        SplitConfig split = config_.split;
        split.seed = seed;
        return RunSplitStage(store_.e_scenarios(), split, store_.universe(),
                             subset, metrics_, trace_);
      },
      [this](const std::vector<EidScenarioList>& lists,
             std::vector<MatchResult>& results) {
        RunFilterStage(lists, store_.v_scenarios(), gallery_, config_.filter,
                       results, metrics_, trace_, pool_);
      },
      metrics_, trace_);
}

std::optional<MatchResult> IncrementalMatcher::ProvisionalResult(
    Eid eid) const {
  common::MutexLock lock(provisional_mutex_);
  const auto it = provisional_.find(eid.value());
  if (it == provisional_.end()) return std::nullopt;
  return it->second;
}

}  // namespace evm::stream
