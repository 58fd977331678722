#include "vsense/gallery.hpp"

#include <algorithm>

#include "common/serde.hpp"

namespace evm {

FeatureGallery::Entry& FeatureGallery::Resolve(const VScenario& scenario) {
  Shard& shard = shards_[ShardOf(scenario.id.value())];
  std::shared_ptr<Entry> entry;
  {
    common::MutexLock lock(shard.mutex);
    auto [slot, inserted] = shard.cache.TryEmplace(scenario.id.value());
    if (inserted) {
      *slot = std::make_shared<Entry>();
    } else {
      hits_.fetch_add(1, std::memory_order_relaxed);
      hits_counter_.Add();
    }
    entry = *slot;
  }
  // Single-flight: exactly one caller extracts, concurrent first touches of
  // the same scenario wait here instead of duplicating the render + extract.
  std::call_once(entry->once, [&] {
    obs::StageSpan span(trace_, "gallery.extract", extract_latency_);
    entry->features.reserve(scenario.observations.size());
    for (const VObservation& obs : scenario.observations) {
      entry->features.push_back(oracle_.Extract(obs));
    }
    entry->block = FeatureBlock(entry->features);
    extractions_.fetch_add(scenario.observations.size(),
                           std::memory_order_relaxed);
    extractions_counter_.Add(scenario.observations.size());
    entry->ready.store(true, std::memory_order_release);
  });
  return *entry;
}

const std::vector<FeatureVector>& FeatureGallery::Features(
    const VScenario& scenario) {
  return Resolve(scenario).features;
}

const FeatureBlock& FeatureGallery::Block(const VScenario& scenario) {
  return Resolve(scenario).block;
}

std::size_t FeatureGallery::CachedScenarioCount() const {
  std::size_t count = 0;
  for (const Shard& shard : shards_) {
    common::MutexLock lock(shard.mutex);
    count += shard.cache.size();
  }
  return count;
}

void FeatureGallery::Clear() {
  for (Shard& shard : shards_) {
    common::MutexLock lock(shard.mutex);
    shard.cache.Clear();
  }
  extractions_.store(0, std::memory_order_relaxed);
  hits_.store(0, std::memory_order_relaxed);
}

void FeatureGallery::Evict(std::uint64_t scenario_id) {
  Shard& shard = shards_[ShardOf(scenario_id)];
  common::MutexLock lock(shard.mutex);
  shard.cache.Erase(scenario_id);
}

std::size_t FeatureGallery::ExportTo(mapreduce::Dfs& dfs,
                                     const std::string& name) const {
  // Snapshot completed entries in scenario-id order so the exported dataset
  // is deterministic regardless of shard/bucket iteration order.
  std::vector<std::pair<std::uint64_t, std::shared_ptr<Entry>>> snapshot;
  for (const Shard& shard : shards_) {
    common::MutexLock lock(shard.mutex);
    shard.cache.ForEachSorted(
        [&](std::uint64_t scenario_id, const std::shared_ptr<Entry>& entry) {
          if (entry->ready.load(std::memory_order_acquire)) {
            snapshot.emplace_back(scenario_id, entry);
          }
        });
  }
  std::sort(snapshot.begin(), snapshot.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  std::vector<mapreduce::Block> blocks;
  blocks.reserve(snapshot.size());
  for (const auto& [scenario_id, entry] : snapshot) {
    BinaryWriter writer;
    writer.WriteU64(scenario_id);
    writer.WriteU64(entry->features.size());
    for (const FeatureVector& feature : entry->features) {
      writer.WriteU64(feature.size());
      for (const float v : feature) writer.WriteFloat(v);
    }
    blocks.push_back(writer.Take());
  }
  const std::size_t count = blocks.size();
  dfs.Write(name, std::move(blocks));
  return count;
}

std::size_t FeatureGallery::ImportFrom(const mapreduce::Dfs& dfs,
                                       const std::string& name) {
  const auto blocks = dfs.Read(name);
  if (!blocks.has_value()) return 0;
  std::size_t loaded = 0;
  for (const mapreduce::Block& block : *blocks) {
    BinaryReader reader(block.data(), block.size());
    const std::uint64_t scenario_id = reader.ReadU64();
    auto entry = std::make_shared<Entry>();
    const std::uint64_t observations = reader.ReadU64();
    entry->features.reserve(observations);
    for (std::uint64_t o = 0; o < observations; ++o) {
      FeatureVector feature(reader.ReadU64());
      for (float& v : feature) v = reader.ReadFloat();
      entry->features.push_back(std::move(feature));
    }
    entry->block = FeatureBlock(entry->features);
    // Consume the once_flag so a later Resolve() won't re-extract, and mark
    // the entry complete for ExportTo.
    std::call_once(entry->once, [] {});
    entry->ready.store(true, std::memory_order_release);

    Shard& shard = shards_[ShardOf(scenario_id)];
    common::MutexLock lock(shard.mutex);
    if (shard.cache.Insert(scenario_id, std::move(entry)).second) {
      ++loaded;
    }
  }
  return loaded;
}

}  // namespace evm
