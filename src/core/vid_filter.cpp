#include "core/vid_filter.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "common/flat_map.hpp"
#include "vsense/feature_block.hpp"

namespace evm {

MatchResult FilterVid(const EidScenarioList& list,
                      const VScenarioSet& v_scenarios, FeatureGallery& gallery,
                      VidFilterCounters& counters,
                      const VidFilterOptions& options,
                      obs::TraceRecorder* trace) {
  obs::StageSpan span(trace, "v-filter.eid");
  MatchResult result;
  result.eid = list.eid;

  // Resolve the V side of each selected scenario; drop empty ones (every
  // detection there was missed). Entries keep the list's original order —
  // all outputs (nominations, votes, the fused probe) are produced in that
  // order so results are independent of the scoring order below.
  struct Entry {
    const VScenario* scenario;
    const FeatureBlock* block;
  };
  std::vector<Entry> entries;
  entries.reserve(list.scenarios.size());
  for (const ScenarioId id : list.scenarios) {
    const VScenario* scenario = v_scenarios.Find(id);
    if (scenario == nullptr || scenario->observations.empty()) continue;
    entries.push_back(Entry{scenario, &gallery.Block(*scenario)});
  }
  counters.scenarios_processed += entries.size();
  if (entries.empty()) return result;  // unresolved

  const std::size_t stride = entries.front().block->stride();
  for (const Entry& entry : entries) {
    EVM_CHECK_MSG(entry.block->stride() == stride,
                  "feature dimension mismatch across scenarios");
  }

  // Scoring order: ascending observation count. The probability product
  // only ever shrinks, so visiting the cheapest (and most selective,
  // fewest-observation) scenarios first drives the product below the
  // incumbent sooner and the early-abandon prunes more comparisons.
  std::vector<std::size_t> score_order(entries.size());
  std::iota(score_order.begin(), score_order.end(), std::size_t{0});
  std::stable_sort(score_order.begin(), score_order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return entries[a].block->rows() < entries[b].block->rows();
                   });

  // Candidate pool (see VidFilterOptions): block rows, already padded and
  // with precomputed mass, gathered in the list's original order.
  struct Candidate {
    const FeatureBlock* block;
    std::size_t row;
  };
  std::vector<Candidate> candidates;
  if (options.candidate_pool == CandidatePool::kSmallestScenario) {
    const FeatureBlock* anchor =
        std::min_element(entries.begin(), entries.end(),
                         [](const Entry& a, const Entry& b) {
                           return a.block->rows() < b.block->rows();
                         })
            ->block;
    for (std::size_t r = 0; r < anchor->rows(); ++r) {
      candidates.push_back(Candidate{anchor, r});
    }
  } else {
    for (const Entry& entry : entries) {
      for (std::size_t r = 0; r < entry.block->rows(); ++r) {
        candidates.push_back(Candidate{entry.block, r});
      }
    }
  }

  // How the block scans below ran (quantized shortlist vs exact rows),
  // folded into the counters once all scans are done.
  BlockScanStats scan_stats;

  // Candidate score: the plain probability product of Sec. IV-B2. Every
  // factor matters — set splitting deliberately includes scenarios whose
  // single purpose is to separate the target from one sibling, so no factor
  // may be discounted.
  double best_prob = -1.0;
  std::size_t best_candidate = 0;
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    const PaddedProbe probe(candidates[c].block->RowData(candidates[c].row),
                            candidates[c].block->RowMass(candidates[c].row));
    double prob = 1.0;
    for (const std::size_t e : score_order) {
      prob *= BestInBlock(probe, *entries[e].block, &scan_stats).similarity;
      counters.feature_comparisons += entries[e].block->rows();
      // The product only ever shrinks, so a candidate already below the
      // incumbent can be abandoned — same argmax, far fewer comparisons.
      if (prob <= best_prob) break;
    }
    if (prob > best_prob) {
      best_prob = prob;
      best_candidate = c;
    }
  }

  // The winning candidate nominates the most-similar observation in every
  // scenario. A second pass then fuses those nominations into a multi-shot
  // appearance estimate (their feature mean) and re-nominates with it —
  // standard multi-shot re-identification, which suppresses single-crop
  // nuisance (occlusion, crop jitter) and benefits longer scenario lists.
  FeatureVector probe_vec =
      candidates[best_candidate].block->Row(candidates[best_candidate].row);
  std::vector<int> nominated(entries.size(), -1);
  for (int pass = 0; pass < 2; ++pass) {
    const PaddedProbe probe(probe_vec, stride);
    for (std::size_t i = 0; i < entries.size(); ++i) {
      nominated[i] = BestInBlock(probe, *entries[i].block, &scan_stats).index;
      counters.feature_comparisons += entries[i].block->rows();
    }
    if (pass == 1) break;
    FeatureVector fused(probe_vec.size(), 0.0f);
    std::size_t fused_count = 0;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (nominated[i] < 0) continue;
      const FeatureBlock& block = *entries[i].block;
      const float* f = block.RowData(static_cast<std::size_t>(nominated[i]));
      for (std::size_t d = 0; d < fused.size(); ++d) fused[d] += f[d];
      ++fused_count;
    }
    if (fused_count == 0) break;
    const float inv = 1.0f / static_cast<float>(fused_count);
    for (float& v : fused) v *= inv;
    probe_vec = std::move(fused);
  }
  // All feature scans are done; fold the execution-path stats once.
  counters.exact_feature_rows += scan_stats.exact_rows;
  counters.quantized_full_scans += scan_stats.full_scan_fallbacks;

  common::FlatMap<std::uint64_t, std::size_t> votes;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (nominated[i] < 0) continue;
    const Vid chosen =
        entries[i]
            .scenario->observations[static_cast<std::size_t>(nominated[i])]
            .vid;
    result.chosen_per_scenario.push_back(chosen);
    ++votes[chosen.value()];
  }
  if (result.chosen_per_scenario.empty()) return result;  // unresolved

  std::uint64_t majority_vid = 0;
  std::size_t majority_count = 0;
  // Sorted visit + strict > keeps the smallest-vid tie-break: the smallest
  // vid holding the max count is seen first.
  votes.ForEachSorted([&](std::uint64_t vid, const std::size_t& count) {
    if (count > majority_count) {
      majority_vid = vid;
      majority_count = count;
    }
  });
  result.reported_vid = Vid{majority_vid};
  result.majority_fraction =
      static_cast<double>(majority_count) /
      static_cast<double>(result.chosen_per_scenario.size());
  result.confidence =
      best_prob > 0.0
          ? std::pow(best_prob, 1.0 / static_cast<double>(entries.size()))
          : 0.0;
  result.resolved = true;
  return result;
}

}  // namespace evm
