#pragma once
// The reusable stages of one matching pass, shared by the batch matchers
// (EvMatcher, EdpMatcher) and the streaming IncrementalMatcher (src/stream)
// so every caller runs the exact same instrumented pipeline. Three layers:
//
//  * RunSplitStage / RunFilterStage — one E-split / one V-filter over an
//    explicit scenario store, with the span + counter instrumentation. The
//    filter stage optionally fans out across a ThreadPool (per-EID FilterVid
//    calls are independent; the shared gallery is single-flight, so parallel
//    scheduling cannot change any result).
//
//  * RunFilterStageScheduled — the V stage as one retryable task per EID,
//    handed to whatever runs tasks (a MapReduceEngine's RunTasks for the
//    batch matchers, a TaskScheduler for the stream driver).
//
//  * RunMatchPass — the full skeleton of EvMatcher::Match: split, filter,
//    the matching-refining loop (Algorithm 2) and the registry-delta
//    statistics, parameterized over how the two stages execute. Because the
//    skeleton is shared, every caller counts and refines identically — which
//    is what makes the stream driver's drain output byte-identical to a
//    batch match over the same records.

#include <cstdint>
#include <functional>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/set_splitting.hpp"
#include "core/types.hpp"
#include "core/vid_filter.hpp"
#include "mapreduce/task.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "vsense/gallery.hpp"
#include "vsense/v_scenario.hpp"

namespace evm {

/// Matching-refining policy (paper Algorithm 2). A result is acceptable
/// when it is resolved and a strict majority of its scenarios agree on one
/// VID; otherwise the EID is re-queued for another splitting pass over
/// fresh scenarios, up to max_rounds.
struct RefineConfig {
  bool enabled{false};
  std::size_t max_rounds{2};
  double min_majority{0.5};
};

/// Runs sequential set splitting for `targets` over `scenarios`, recording
/// the e-split span / stage.e latency and accumulating
/// match.splitting_iterations. Every matcher splits through this.
/// `config.seed` is used as given (callers perturb it per refine round).
[[nodiscard]] SplitOutcome RunSplitStage(const EScenarioSet& scenarios,
                                         const SplitConfig& config,
                                         const std::vector<Eid>& universe,
                                         const std::vector<Eid>& targets,
                                         obs::MetricsRegistry& metrics,
                                         obs::TraceRecorder* trace);

/// Adds every field of `from` into `into`. Every V-stage path merges its
/// per-task counters through this, so no path can drop a field.
void MergeFilterCounters(const VidFilterCounters& from,
                         VidFilterCounters& into);

/// Adds a V stage's merged counters to their match.* registry counters.
void PublishFilterCounters(const VidFilterCounters& counters,
                           obs::MetricsRegistry& metrics);

/// Runs VID filtering for every list, recording the v-filter span / stage.v
/// latency and publishing the merged VidFilterCounters. A non-null `pool`
/// fans the per-EID FilterVid calls out with ParallelFor; results and
/// counter totals are identical either way.
void RunFilterStage(const std::vector<EidScenarioList>& lists,
                    const VScenarioSet& v_scenarios, FeatureGallery& gallery,
                    const VidFilterOptions& options,
                    std::vector<MatchResult>& results,
                    obs::MetricsRegistry& metrics, obs::TraceRecorder* trace,
                    ThreadPool* pool = nullptr);

/// Runs a V stage's per-EID tasks to completion, e.g. a TaskScheduler::Run
/// or MapReduceEngine::RunTasks call bound to a job name.
using TaskRunnerFn =
    std::function<void(const std::vector<mapreduce::TaskFn>& tasks)>;

/// RunFilterStage, but executed as one task per EID handed to `run_tasks`
/// instead of a plain ParallelFor — each FilterVid call becomes a
/// retryable, speculation-eligible attempt whose result slot and counter
/// contribution publish only on ClaimCommit(), so the runner's fault
/// tolerance cannot change any result or count. Span/latency
/// instrumentation matches RunFilterStage.
void RunFilterStageScheduled(const std::vector<EidScenarioList>& lists,
                             const VScenarioSet& v_scenarios,
                             FeatureGallery& gallery,
                             const VidFilterOptions& options,
                             std::vector<MatchResult>& results,
                             obs::MetricsRegistry& metrics,
                             obs::TraceRecorder* trace,
                             const TaskRunnerFn& run_tasks);

/// Stage execution hooks for RunMatchPass. The split hook receives the
/// (sub)set of targets to split and the seed for this pass; the filter hook
/// fills one result per list.
using SplitStageFn = std::function<SplitOutcome(const std::vector<Eid>& targets,
                                                std::uint64_t seed)>;
using FilterStageFn =
    std::function<void(const std::vector<EidScenarioList>& lists,
                       std::vector<MatchResult>& results)>;

/// The full match pass: split + filter + matching refining + stats derived
/// from the registry delta. This is EvMatcher::Match with the two stages
/// abstracted; the stream drain calls it with pooled stages over the
/// windowed store and obtains batch-identical reports.
[[nodiscard]] MatchReport RunMatchPass(const std::vector<Eid>& targets,
                                       const RefineConfig& refine,
                                       std::uint64_t base_seed,
                                       const SplitStageFn& split,
                                       const FilterStageFn& filter,
                                       obs::MetricsRegistry& metrics,
                                       obs::TraceRecorder* trace);

}  // namespace evm
