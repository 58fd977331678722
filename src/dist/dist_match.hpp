#pragma once
// Distributed matching: the V stage fanned out across worker processes.
//
// DistMatcher runs the exact RunMatchPass skeleton the batch matcher and
// the stream drain use — split, filter, matching-refining — with the filter
// stage's per-EID FilterVid calls dispatched to workers as "evm.match_filter"
// tasks. A worker does not receive the dataset: it regenerates it locally
// from the serialized DatasetConfig (GenerateDataset is a pure function of
// the config) and caches dataset + feature gallery per config, so each
// worker effectively hosts the gallery shard its assigned EIDs touch.
//
// Because the skeleton, the splitter and FilterVid are all deterministic,
// the encoded MatchResult bytes are identical across worker counts and
// across any schedule of worker deaths — the property the equivalence tests
// and the nightly kill soak pin.

#include <cstdint>
#include <string>
#include <vector>

#include "core/match_stages.hpp"
#include "core/set_splitting.hpp"
#include "core/types.hpp"
#include "core/vid_filter.hpp"
#include "dataset/generator.hpp"
#include "dist/dist_engine.hpp"
#include "obs/metrics.hpp"

namespace evm::dist {

struct DistMatchConfig {
  /// The dataset every worker regenerates. Must match the driver's.
  DatasetConfig dataset{};
  SplitConfig split{};
  /// Candidate pool policy, shipped to workers.
  CandidatePool candidate_pool{CandidatePool::kAllScenarios};
  RefineConfig refine{};
};

/// Task-kind name the filter stage dispatches (registered in
/// builtin_kinds.cpp).
inline constexpr char kMatchFilterKind[] = "evm.match_filter";

/// Payload layout of one kMatchFilterKind task.
[[nodiscard]] Bytes EncodeMatchFilterTask(const DatasetConfig& config,
                                          CandidatePool pool,
                                          const EidScenarioList& list);

class DistMatcher {
 public:
  /// Generates the driver-side dataset copy (used by the E stage, which
  /// stays local — set splitting is cheap and sequential by design).
  DistMatcher(DistEngine& engine, DistMatchConfig config);

  [[nodiscard]] MatchReport Match(const std::vector<Eid>& targets);
  [[nodiscard]] MatchReport MatchUniversal();

  [[nodiscard]] const std::vector<Eid>& Universe() const noexcept {
    return universe_;
  }
  [[nodiscard]] const Dataset& dataset() const noexcept { return dataset_; }

 private:
  DistEngine& engine_;
  DistMatchConfig config_;
  Dataset dataset_;
  std::vector<Eid> universe_;
  obs::MetricsRegistry metrics_;
  std::uint64_t job_counter_{0};
};

}  // namespace evm::dist
