#pragma once
// The traced mode's copy of EvMatcher's MapReduce path, assembled from the
// program's public stages (ParallelSetSplitter::Run, MapReduceEngine::Run /
// RunTasks, FeatureGallery::Block, FilterVid) inside the public
// RunMatchPass skeleton, with a span around every stage call. Its reports
// are checked equal to the facade's, so the per-layer times describe the
// same computation the untraced run timed.

#include <cstdint>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "core/matcher.hpp"
#include "dataset/generator.hpp"
#include "mapreduce/engine.hpp"
#include "obs/metrics.hpp"
#include "vsense/gallery.hpp"

namespace evbench {

/// Layer accumulators of a rebuilt matcher; reset by the caller between
/// phases.
struct RebuiltLayers {
  std::size_t split_calls{0};
  std::size_t split_windows{0};
  /// MapReduce jobs observed and their estimated framework overhead: job
  /// wall time minus the critical path of its task bodies (extract and
  /// filter jobs), or parallel minus sequential split time (split jobs).
  std::size_t jobs{0};
  double overhead_s{0};
  /// Time the sequential re-runs of ProbeSplits took.
  double sequential_split_s{0};
  ThreadTotal extract;  // Block() calls in extract jobs, summed over threads
  ThreadTotal filter;   // FilterVid bodies, summed over threads
  std::uint64_t comparisons{0};
  /// Distinct scenario ids handed to the V stage (cold-run extraction check).
  std::vector<evm::ScenarioId> touched;
  /// Splits not yet re-run by ProbeSplits: their inputs, parallel wall
  /// time and outcome.
  struct Split {
    std::vector<evm::Eid> targets;
    std::uint64_t seed{0};
    double parallel_s{0};
    evm::SplitOutcome outcome;
  };
  std::vector<Split> pending_splits;
};

class RebuiltMatcher {
 public:
  RebuiltMatcher(const evm::Dataset& dataset, const evm::MatcherConfig& config,
                 SpanLog& log);

  [[nodiscard]] evm::MatchReport Match(const std::vector<evm::Eid>& targets);

  /// Re-runs every pending split sequentially (RunSplitStage), outside any
  /// span, checks its lists equal to the parallel splitter's, and charges
  /// the time difference to MapReduce overhead. Returns the number of
  /// mismatching splits.
  std::size_t ProbeSplits();

  [[nodiscard]] evm::FeatureGallery& gallery() { return gallery_; }
  [[nodiscard]] evm::obs::MetricsRegistry& registry() { return registry_; }
  RebuiltLayers layers;

 private:
  const evm::Dataset& dataset_;
  evm::MatcherConfig config_;
  SpanLog& log_;
  std::vector<evm::Eid> universe_;
  evm::obs::MetricsRegistry registry_;
  evm::FeatureGallery gallery_;
  evm::mapreduce::MapReduceEngine engine_;
};

/// attempts / tasks over every mr.* stage of `registry`.
[[nodiscard]] double AttemptsPerTask(const evm::obs::MetricsRegistry& registry);

}  // namespace evbench
