// Microbenchmarks (google-benchmark) for the hot operations of the pipeline:
// observation rendering, feature extraction, the two together as the
// gallery's per-miss extraction, feature distance, the scalar
// vs. batched best-match-in-scenario kernels, scenario-set splitting, and
// the MapReduce shuffle. Results are also written to BENCH_core_ops.json
// (name, ns/op, items/s) so the perf trajectory is tracked across PRs.

#include <benchmark/benchmark.h>

#include <unordered_map>

#include "bench_util.hpp"
#include "common/flat_map.hpp"
#include "common/rng.hpp"
#include "core/matcher.hpp"
#include "core/set_splitting.hpp"
#include "dataset/generator.hpp"
#include "mapreduce/engine.hpp"
#include "metrics/experiment.hpp"
#include "obs/trace_session.hpp"
#include "vsense/appearance.hpp"
#include "vsense/feature_block.hpp"
#include "vsense/features.hpp"
#include "vsense/reid.hpp"
#include "vsense/visual_oracle.hpp"

namespace evm {
namespace {

void BM_RenderObservation(benchmark::State& state) {
  const auto apps = GenerateAppearances(1, MakeStream(1, "a"));
  RenderParams params;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RenderObservation(apps[0], params, ++seed));
  }
}
BENCHMARK(BM_RenderObservation);

void BM_ExtractFeatures(benchmark::State& state) {
  const auto apps = GenerateAppearances(1, MakeStream(2, "a"));
  RenderParams rp;
  const Image image = RenderObservation(apps[0], rp, 7);
  FeatureParams fp;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExtractFeatures(image, fp));
  }
}
BENCHMARK(BM_ExtractFeatures);

// The per-miss cost the feature gallery pays: VisualOracle::Extract renders
// a fresh observation and extracts its feature (the V stage's unit of work).
void BM_ObservationFeatures(benchmark::State& state) {
  const VisualOracle oracle(GenerateAppearances(16, MakeStream(4, "a")),
                            RenderParams{}, FeatureParams{});
  VObservation obs;
  for (auto _ : state) {
    obs.vid = Vid(obs.render_seed % oracle.IdentityCount());
    ++obs.render_seed;
    benchmark::DoNotOptimize(oracle.Extract(obs));
  }
}
BENCHMARK(BM_ObservationFeatures);

void BM_FeatureDistance(benchmark::State& state) {
  const auto apps = GenerateAppearances(2, MakeStream(3, "a"));
  RenderParams rp;
  FeatureParams fp;
  const FeatureVector a = ExtractFeatures(RenderObservation(apps[0], rp, 1), fp);
  const FeatureVector b = ExtractFeatures(RenderObservation(apps[1], rp, 2), fp);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FeatureDistance(a, b));
  }
}
BENCHMARK(BM_FeatureDistance);

// Synthetic stripe-histogram feature at the paper's dimensions (6 stripes x
// 3 channels x 8 bins = 144 floats), each stripe block L1-normalized like
// the real extractor's output.
FeatureVector RandomFeature(Rng& rng, const FeatureParams& params) {
  FeatureVector f(params.Dimension());
  const std::size_t stripe_floats = 3 * params.bins_per_channel;
  for (std::size_t s = 0; s < params.stripes; ++s) {
    float sum = 0.0f;
    for (std::size_t i = 0; i < stripe_floats; ++i) {
      const auto v = static_cast<float>(rng.NextDouble());
      f[s * stripe_floats + i] = v;
      sum += v;
    }
    for (std::size_t i = 0; i < stripe_floats; ++i) {
      f[s * stripe_floats + i] /= sum;
    }
  }
  return f;
}

std::vector<FeatureVector> RandomScenarioFeatures(std::size_t observations,
                                                  std::uint64_t seed) {
  Rng rng(seed);
  FeatureParams params;
  std::vector<FeatureVector> features;
  features.reserve(observations);
  for (std::size_t o = 0; o < observations; ++o) {
    features.push_back(RandomFeature(rng, params));
  }
  return features;
}

// Scalar baseline: best-match over a scenario stored as vector-of-vectors,
// exactly the pre-FeatureBlock V-stage hot loop (BestMatchIndex +
// ProbInScenario recomputing both masses per comparison).
void BM_BestMatchScalar(benchmark::State& state) {
  const auto obs = static_cast<std::size_t>(state.range(0));
  const auto scenario = RandomScenarioFeatures(obs, 42);
  Rng rng(7);
  const FeatureVector probe = RandomFeature(rng, FeatureParams{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(BestMatchIndex(probe, scenario));
    benchmark::DoNotOptimize(ProbInScenario(probe, scenario));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          static_cast<std::int64_t>(obs));
}
BENCHMARK(BM_BestMatchScalar)->Arg(10)->Arg(50)->Arg(200);

// Batched kernel: the same argmax + max-similarity over a FeatureBlock.
void BM_BestMatchBlock(benchmark::State& state) {
  const auto obs = static_cast<std::size_t>(state.range(0));
  const FeatureBlock block(RandomScenarioFeatures(obs, 42));
  Rng rng(7);
  const FeatureVector probe = RandomFeature(rng, FeatureParams{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(BestMatchInBlock(probe, block));
    benchmark::DoNotOptimize(BestSimilarityInBlock(probe, block));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          static_cast<std::int64_t>(obs));
}
BENCHMARK(BM_BestMatchBlock)->Arg(10)->Arg(50)->Arg(200);

// The fused value+argmax scan the V stage actually runs per (probe,
// scenario) pair: one pass, probe padded + mass'd once outside the loop.
void BM_BestInBlockFused(benchmark::State& state) {
  const auto obs = static_cast<std::size_t>(state.range(0));
  const FeatureBlock block(RandomScenarioFeatures(obs, 42));
  Rng rng(7);
  const FeatureVector probe_vec = RandomFeature(rng, FeatureParams{});
  const PaddedProbe probe(probe_vec, block.stride());
  for (auto _ : state) {
    benchmark::DoNotOptimize(BestInBlock(probe, block));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(obs));
}
BENCHMARK(BM_BestInBlockFused)->Arg(10)->Arg(50)->Arg(200);

// The exact scan with the runtime-dispatched SIMD kernel but no quantized
// shortlist — isolates the SIMD win from the int8 win.
void BM_BestInBlockExact(benchmark::State& state) {
  const auto obs = static_cast<std::size_t>(state.range(0));
  const FeatureBlock block(RandomScenarioFeatures(obs, 42));
  Rng rng(7);
  const FeatureVector probe_vec = RandomFeature(rng, FeatureParams{});
  const PaddedProbe probe(probe_vec, block.stride());
  for (auto _ : state) {
    benchmark::DoNotOptimize(BestInBlockExact(probe, block));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(obs));
}
BENCHMARK(BM_BestInBlockExact)->Arg(50)->Arg(200);

// The full production path: int8 SAD shortlist + exact float re-rank.
// items/s here over BM_BestInBlockExact is the shortlist's own speedup.
void BM_BestInBlockQuantized(benchmark::State& state) {
  const auto obs = static_cast<std::size_t>(state.range(0));
  const FeatureBlock block(RandomScenarioFeatures(obs, 42));
  Rng rng(7);
  const FeatureVector probe_vec = RandomFeature(rng, FeatureParams{});
  const PaddedProbe probe(probe_vec, block.stride());
  BlockScanStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(BestInBlock(probe, block, &stats));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(obs));
  state.counters["exact_row_frac"] =
      static_cast<double>(stats.exact_rows) /
      (static_cast<double>(state.iterations()) * static_cast<double>(obs));
}
BENCHMARK(BM_BestInBlockQuantized)->Arg(50)->Arg(200);

// Point lookups on the open-addressing FlatMap vs std::unordered_map, keys
// pre-spread like EID values. The splitters' uidx_of and the gallery cache
// are exactly this access pattern.
void BM_FlatMapLookup(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  common::FlatMap<std::uint64_t, std::uint32_t> map;
  map.Reserve(n);
  Rng rng(13);
  std::vector<std::uint64_t> keys(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = rng.NextBelow(1u << 20);
    map.Insert(keys[i], static_cast<std::uint32_t>(i));
  }
  std::size_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.Find(keys[k]));
    k = (k + 1) % n;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FlatMapLookup)->Arg(1024);

void BM_UnorderedMapLookup(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::unordered_map<std::uint64_t, std::uint32_t> map;
  map.reserve(n);
  Rng rng(13);
  std::vector<std::uint64_t> keys(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = rng.NextBelow(1u << 20);
    map.emplace(keys[i], static_cast<std::uint32_t>(i));
  }
  std::size_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.find(keys[k]));
    k = (k + 1) % n;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_UnorderedMapLookup)->Arg(1024);

EScenarioSet RandomScenarioSet(std::size_t eids, std::size_t windows,
                               std::size_t cells, std::uint64_t seed) {
  EScenarioSet set(cells, 1);
  Rng rng(seed);
  for (std::size_t w = 0; w < windows; ++w) {
    std::vector<std::vector<std::uint64_t>> members(cells);
    for (std::uint64_t e = 0; e < eids; ++e) {
      members[rng.NextBelow(cells)].push_back(e);
    }
    for (std::uint64_t c = 0; c < cells; ++c) {
      if (members[c].empty()) continue;
      EScenario scenario;
      scenario.id = set.IdFor(w, CellId{c});
      scenario.cell = CellId{c};
      scenario.window = TimeWindow{Tick{static_cast<std::int64_t>(w)},
                                   Tick{static_cast<std::int64_t>(w) + 1}};
      for (const std::uint64_t e : members[c]) {
        scenario.entries.push_back({Eid{e}, EidAttr::kInclusive});
      }
      set.Add(std::move(scenario));
    }
  }
  return set;
}

void BM_SetSplittingUniversal(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const EScenarioSet set = RandomScenarioSet(n, 64, 25, 11);
  const auto universe = CollectUniverse(set);
  SplitConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SetSplitter(set, config).Run(universe, universe));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SetSplittingUniversal)->Arg(200)->Arg(1000);

void BM_MapReduceShuffle(benchmark::State& state) {
  mapreduce::MapReduceEngine engine(
      {.workers = static_cast<std::size_t>(state.range(0))});
  std::vector<std::uint64_t> inputs(100000);
  for (std::size_t i = 0; i < inputs.size(); ++i) inputs[i] = i;
  for (auto _ : state) {
    auto out = engine.Run<std::uint64_t, std::uint64_t, std::uint64_t>(
        "bench", inputs, 8,
        [](const std::uint64_t& v,
           mapreduce::Emitter<std::uint64_t, std::uint64_t>& emit) {
          emit(v % 1024, v);
        },
        [](const std::uint64_t& k, std::vector<std::uint64_t>&& vs,
           std::vector<std::uint64_t>& out) {
          out.push_back(k + vs.size());
        });
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(inputs.size()));
}
BENCHMARK(BM_MapReduceShuffle)->Arg(1)->Arg(4);

// Console reporting as usual, plus capture of every run for the JSON file.
class JsonCapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      bench::BenchRecord record;
      record.name = run.benchmark_name();
      record.ns_per_op = run.GetAdjustedRealTime();
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) record.items_per_second = it->second;
      records.push_back(std::move(record));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::vector<bench::BenchRecord> records;
};

}  // namespace
}  // namespace evm

namespace evm {
namespace {

// --trace mode: run one small end-to-end match with the obs
// layer installed and dump counters + stage spans alongside the bench JSON.
void RunTracedMatch(obs::TraceSession& trace) {
  DatasetConfig config;
  config.population = 200;
  config.ticks = 400;
  config.seed = 5;
  const Dataset dataset = GenerateDataset(config);
  MatcherConfig matcher_config = DefaultSsConfig();
  matcher_config.metrics = trace.metrics();
  matcher_config.trace = trace.trace();
  EvMatcher matcher(dataset.e_scenarios, dataset.v_scenarios, dataset.oracle,
                    matcher_config);
  const MatchReport report = matcher.Match(SampleTargets(dataset, 50, 1));
  std::cout << "[trace] matched " << report.results.size() << " EIDs, "
            << report.stats.feature_comparisons << " comparisons\n";
}

}  // namespace
}  // namespace evm

int main(int argc, char** argv) {
  // Strip --trace before google-benchmark sees the argument list.
  evm::obs::TraceSession trace(evm::obs::ExtractTraceFlag(argc, argv));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  evm::JsonCapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  evm::bench::WriteBenchJson("BENCH_core_ops.json", reporter.records);
  std::cout << "\n[json] wrote BENCH_core_ops.json (" << reporter.records.size()
            << " records)\n";
  if (trace.enabled()) evm::RunTracedMatch(trace);
  benchmark::Shutdown();
  return 0;
}
