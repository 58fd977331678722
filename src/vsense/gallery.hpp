#pragma once
// FeatureGallery: compute-once cache of extracted features, keyed by
// scenario. This is the in-process analogue of the paper's "VID features are
// computed and stored in [the] distributed storage system" (Sec. V-C), and
// it is what turns scenario *reuse* into real V-stage savings: a scenario
// selected for many EIDs is feature-extracted exactly once.
//
// Concurrency: entries live in a sharded lock table (kShards shards keyed by
// scenario id), so lookups for different scenarios never contend on one
// global mutex. Each entry is extracted single-flight: concurrent first
// touches of the same scenario block on one std::call_once, so the render +
// extract work happens exactly once (no duplicated speculative work).
//
// Each entry caches both the per-observation FeatureVector list and its
// packed FeatureBlock (see feature_block.hpp), which the batched V-stage
// kernels consume.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/annotations.hpp"
#include "common/flat_map.hpp"
#include "common/mutex.hpp"
#include "mapreduce/dfs.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "vsense/feature_block.hpp"
#include "vsense/features.hpp"
#include "vsense/v_scenario.hpp"
#include "vsense/visual_oracle.hpp"

namespace evm {

class FeatureGallery {
 public:
  /// Shard count of the lock table. Power of two; scenario ids are spread
  /// with a multiplicative hash so window*cells+cell id patterns don't all
  /// land in one shard.
  static constexpr std::size_t kShards = 16;

  /// When `metrics` is given, extractions/hits are additionally published as
  /// the gallery.extractions / gallery.hits counters and each cache-miss
  /// extraction charges the gallery.extract latency stat; `trace` adds a
  /// gallery.extract span per miss.
  explicit FeatureGallery(const VisualOracle& oracle,
                          obs::MetricsRegistry* metrics = nullptr,
                          obs::TraceRecorder* trace = nullptr)
      : oracle_(oracle),
        trace_(trace),
        extractions_counter_(obs::GetCounter(metrics, "gallery.extractions")),
        hits_counter_(obs::GetCounter(metrics, "gallery.hits")),
        extract_latency_(obs::GetLatency(metrics, "gallery.extract")) {}

  /// Features of every observation of `scenario`, extracting them on first
  /// touch. Thread-safe and single-flight: concurrent first touches of the
  /// same scenario block until the one extraction completes, then share the
  /// result. Returned references stay valid until Clear().
  const std::vector<FeatureVector>& Features(const VScenario& scenario);

  /// The same features packed as a contiguous FeatureBlock for the batched
  /// similarity kernels. Same caching/extraction semantics as Features().
  const FeatureBlock& Block(const VScenario& scenario);

  /// Scenarios whose features live in the cache.
  [[nodiscard]] std::size_t CachedScenarioCount() const;
  /// Number of observations actually rendered + extracted (cache misses).
  [[nodiscard]] std::uint64_t ExtractionCount() const noexcept {
    return extractions_.load(std::memory_order_relaxed);
  }
  /// Number of Features()/Block() calls answered from an existing entry.
  [[nodiscard]] std::uint64_t HitCount() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }

  void Clear();

  /// Drops one scenario's cached features/block (streaming retention
  /// expiry). Callers must not hold references returned for that scenario.
  void Evict(std::uint64_t scenario_id);

  /// Persists every cached scenario's features into the distributed store
  /// (one block per scenario, in scenario-id order), making
  /// universal-labeling results durable — the paper's "VID features are
  /// computed and stored in [the] distributed storage system". Returns the
  /// number of scenarios written. Entries still being extracted are skipped.
  std::size_t ExportTo(mapreduce::Dfs& dfs, const std::string& name) const;

  /// Pre-warms the cache from a dataset written by ExportTo. Existing
  /// entries are kept; returns the number of scenarios loaded. Imported
  /// features do not count as extractions.
  std::size_t ImportFrom(const mapreduce::Dfs& dfs, const std::string& name);

 private:
  struct Entry {
    std::once_flag once;
    std::atomic<bool> ready{false};  // set after features/block are written
    std::vector<FeatureVector> features;
    FeatureBlock block;
  };
  struct Shard {
    mutable common::Mutex mutex;
    // shared_ptr so an entry outlives the shard lock while being filled and
    // returned references stay stable across rehashing. Shard locks are
    // leaves: never hold one while touching another shard or any other
    // capability (extraction happens outside the lock, under the entry's
    // once_flag).
    common::FlatMap<std::uint64_t, std::shared_ptr<Entry>> cache
        EVM_GUARDED_BY(mutex);
  };

  static std::size_t ShardOf(std::uint64_t scenario_id) noexcept {
    // Fibonacci hash: consecutive ids spread across shards.
    return static_cast<std::size_t>((scenario_id * 0x9e3779b97f4a7c15ULL) >>
                                    60) &
           (kShards - 1);
  }

  /// Finds or creates the entry and runs the single-flight extraction.
  Entry& Resolve(const VScenario& scenario);

  const VisualOracle& oracle_;
  obs::TraceRecorder* trace_{nullptr};
  obs::Counter extractions_counter_;
  obs::Counter hits_counter_;
  obs::LatencyStat extract_latency_;
  std::array<Shard, kShards> shards_;
  std::atomic<std::uint64_t> extractions_{0};
  std::atomic<std::uint64_t> hits_{0};
};

}  // namespace evm
