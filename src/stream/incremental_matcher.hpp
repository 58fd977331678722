#pragma once
// IncrementalMatcher — keeps match results current as the windowed store
// grows, re-doing only the work new data can have invalidated.
//
// Live path (OnSealed): when windows seal, only targets whose E-Scenario
// membership changed ("dirty" targets) are re-queued. The dirty subset is
// re-split over the current store; V-stage filtering — the expensive stage —
// then runs only for targets whose *selected scenario list* actually
// changed, fanned out across the thread pool and served by the shared
// single-flight FeatureGallery. Results are provisional: a per-target split
// is not the same computation as a joint split over the full target set
// (the window permutation, the ContainsTargetEid preprocess filter and the
// early-out all depend on which targets are in flight together).
//
// E-only degradation (OnSealed with e_only=true): under load shedding the
// driver skips the V stage entirely (SLIM-style). The split stage still
// runs, so scenario membership stays fresh, but affected targets get their
// previous full result re-published flagged `e_only` (or an unresolved
// placeholder if they never had one) instead of fresh VID evidence. The
// matcher remembers those targets and forces them through the V stage on
// the first full pass after recovery, even if no new window dirtied them —
// otherwise a target last touched during shedding would keep stale VID
// evidence forever.
//
// Drain path (Drain): seals nothing itself; runs the authoritative joint
// pass — the exact RunMatchPass skeleton the batch EvMatcher executes — over
// the store's scenario sets. Because a fully sealed store is structurally
// identical to the batch-built sets and the stages are the same code, the
// drained report is byte-identical to EvMatcher::Match on the same records;
// the gallery is already warm from the live path, so this pass is cheap.

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"

#include "common/thread_pool.hpp"
#include "core/match_stages.hpp"
#include "core/set_splitting.hpp"
#include "core/types.hpp"
#include "core/vid_filter.hpp"
#include "mapreduce/scheduler.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stream/windowed_store.hpp"
#include "vsense/gallery.hpp"
#include "vsense/visual_oracle.hpp"

namespace evm::stream {

struct IncrementalMatcherConfig {
  SplitConfig split{};
  VidFilterOptions filter{};
  RefineConfig refine{};
  /// EIDs to keep matched; empty = universal (every EID the store has seen).
  std::vector<Eid> targets{};
};

class IncrementalMatcher {
 public:
  /// `store`, `oracle`, `metrics` (and `pool`/`trace`/`scheduler` when
  /// given) must outlive the matcher. A null pool runs the V stage
  /// sequentially; a non-null scheduler runs the *live-path* V stage as
  /// fault-tolerant TaskScheduler tasks instead (results are identical —
  /// scheduler attempts publish only on commit).
  IncrementalMatcher(const WindowedScenarioStore& store,
                     const VisualOracle& oracle,
                     IncrementalMatcherConfig config,
                     obs::MetricsRegistry& metrics,
                     obs::TraceRecorder* trace = nullptr,
                     ThreadPool* pool = nullptr,
                     mapreduce::TaskScheduler* scheduler = nullptr);

  /// Reacts to a seal step: re-splits the dirty targets and re-filters the
  /// ones whose scenario list changed. With e_only=true the V stage is
  /// skipped (load-shedding degradation, see file header) and affected
  /// targets are re-published flagged low-confidence. Returns the number of
  /// targets whose provisional result was refreshed.
  std::size_t OnSealed(const SealResult& sealed, bool e_only = false);

  /// The authoritative joint pass over the current store (see file header).
  [[nodiscard]] MatchReport Drain();

  /// Latest provisional result for `eid`; empty before its first pass.
  /// Returns a copy: the live path may refresh the entry at any moment, so
  /// a pointer into the map would race with the consumer thread (found by
  /// TSan when this returned `const MatchResult*`).
  [[nodiscard]] std::optional<MatchResult> ProvisionalResult(Eid eid) const
      EVM_EXCLUDES(provisional_mutex_);
  [[nodiscard]] std::size_t provisional_count() const
      EVM_EXCLUDES(provisional_mutex_) {
    common::MutexLock lock(provisional_mutex_);
    return provisional_.size();
  }

  [[nodiscard]] FeatureGallery& gallery() noexcept { return gallery_; }

  /// Targets currently carrying an E-only result that still awaits its
  /// post-recovery V-stage refresh.
  [[nodiscard]] std::size_t e_only_pending_count() const noexcept {
    return e_only_pending_.size();
  }

 private:
  /// The targets this matcher tracks right now (configured list, or the
  /// store universe under universal matching).
  [[nodiscard]] const std::vector<Eid>& CurrentTargets() const;

  const WindowedScenarioStore& store_;
  IncrementalMatcherConfig config_;
  obs::MetricsRegistry& metrics_;
  obs::TraceRecorder* trace_;
  ThreadPool* pool_;
  mapreduce::TaskScheduler* scheduler_;
  FeatureGallery gallery_;

  // eid -> last selected scenario list *that went through the V stage*.
  // E-only passes deliberately do not update it, so recovery re-filters.
  // Only touched by OnSealed/Drain, which the driver serializes on its
  // sealer thread.
  std::unordered_map<std::uint64_t, std::vector<ScenarioId>> last_lists_;
  /// Targets whose last refresh was E-only; sorted. Folded into the dirty
  /// set of the next full (non-e_only) pass, then cleared.
  std::vector<Eid> e_only_pending_;
  /// Leaf lock for the provisional-result surface: the consumer thread
  /// publishes refreshed results (under the driver's pipeline mutex) while
  /// any caller thread polls ProvisionalResult()/provisional_count() live.
  mutable common::Mutex provisional_mutex_;
  std::unordered_map<std::uint64_t, MatchResult> provisional_
      EVM_GUARDED_BY(provisional_mutex_);
};

}  // namespace evm::stream
