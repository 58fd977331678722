// Built-in task kinds, registered identically in the driver and the
// evm_worker binary (the names are the wire contract).

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "core/vid_filter.hpp"
#include "dataset/generator.hpp"
#include "dist/codecs.hpp"
#include "dist/dist_match.hpp"
#include "dist/task_registry.hpp"
#include "vsense/gallery.hpp"

namespace evm::dist {
namespace {

/// Regenerated dataset + feature gallery, cached per DatasetConfig in the
/// worker's env: the expensive part of hosting a gallery shard is paid once
/// per worker, then each task extracts only the scenarios its EID touches.
struct MatchContext {
  Dataset dataset;
  FeatureGallery gallery;

  explicit MatchContext(const DatasetConfig& config)
      : dataset(GenerateDataset(config)), gallery(dataset.oracle) {}
};

Bytes RunMatchFilter(const Bytes& payload, WorkerEnv& env) {
  BinaryReader r(payload);
  const auto config = mapreduce::Codec<DatasetConfig>::Decode(r);
  const auto pool = static_cast<CandidatePool>(r.ReadU32());
  const auto list = mapreduce::Codec<EidScenarioList>::Decode(r);

  // Cache key: the config's encoded bytes, so any field change (including
  // the seed) regenerates.
  const Bytes config_bytes = EncodeValue<DatasetConfig>(config);
  const std::uint64_t key = HashName(std::string_view(
      reinterpret_cast<const char*>(config_bytes.data()),
      config_bytes.size()));
  const std::shared_ptr<MatchContext> ctx = env.GetOrCreate<MatchContext>(
      key, [&config] { return std::make_shared<MatchContext>(config); });

  VidFilterCounters counters;
  VidFilterOptions options;
  options.candidate_pool = pool;
  const MatchResult result = FilterVid(list, ctx->dataset.v_scenarios,
                                       ctx->gallery, counters, options);
  return EncodeValue<MatchResult>(result);
}

Bytes RunBenchJob(const Bytes& payload, WorkerEnv& /*env*/) {
  // Models a task's service time: a CPU component (hash spin) plus a
  // blocking component (the stand-in for storage/network waits a real
  // deployment spends most of its time in). The blocking share is what
  // additional single-threaded worker processes overlap, so the
  // distributed bench scales even on a single-core host.
  BinaryReader r(payload);
  const std::uint64_t spin_iters = r.ReadU64();
  const std::uint64_t sleep_us = r.ReadU64();
  std::uint64_t acc = 0x9e3779b97f4a7c15ULL;
  for (std::uint64_t i = 0; i < spin_iters; ++i) acc = Mix64(acc + i);
  if (sleep_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
  }
  return EncodeValue<std::uint64_t>(acc);
}

Bytes RunEcho(const Bytes& payload, WorkerEnv& /*env*/) { return payload; }

}  // namespace

void RegisterBuiltinTaskKinds() {
  RegisterTaskKind(kMatchFilterKind, RunMatchFilter);
  RegisterTaskKind("evm.bench_job", RunBenchJob);
  RegisterTaskKind("evm.echo", RunEcho);
}

}  // namespace evm::dist
