// Online surveillance — the EV-Matching pipeline as a stream (src/stream).
//
// A generated day of E-records and camera detections is replayed into the
// StreamDriver at a configurable rate. Sensors push into bounded ingest
// queues; watermarks seal sliding windows; every seal triggers the
// incremental matcher's dirty-set pass, so provisional answers exist while
// data is still arriving. At the end the driver drains: the authoritative
// joint pass whose output is byte-identical to running the batch matcher
// over the same records — which this example verifies.
//
// Usage: streaming_surveillance [rate_records_per_sec] [--trace=FILE]
//   rate 0 (default) replays as fast as backpressure admits. Any other
//   argument prints the usage and exits with status 2.

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>

#include "core/matcher.hpp"
#include "dataset/generator.hpp"
#include "metrics/experiment.hpp"
#include "obs/trace_session.hpp"
#include "stream/counters.hpp"
#include "stream/replay.hpp"
#include "stream/stream_driver.hpp"

namespace {

/// A whole-argument, finite, non-negative number.
bool ParseRate(const char* arg, double& rate) {
  char* end = nullptr;
  rate = std::strtod(arg, &end);
  return end != arg && *end == '\0' && std::isfinite(rate) && rate >= 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace evm;
  obs::TraceSession trace(obs::ExtractTraceFlag(argc, argv));
  double rate = 0.0;
  if (argc > 2 || (argc == 2 && !ParseRate(argv[1], rate))) {
    std::cerr << "usage: streaming_surveillance [rate_records_per_sec] "
                 "[--trace=FILE]\n";
    return 2;
  }

  DatasetConfig config;
  config.population = 300;
  config.ticks = 600;
  // 4x4 grid: ~19 people per cell.
  config.cell_size_m = 250.0;
  config.seed = 77;
  std::cout << "Generating a surveillance day (" << config.population
            << " people, " << config.ticks << " ticks)...\n";
  const Dataset dataset = GenerateDataset(config);
  const auto targets = SampleTargets(dataset, 60, 1);

  stream::StreamDriverConfig driver_config;
  driver_config.e_queue = {4096, stream::BackpressurePolicy::kBlock};
  driver_config.v_queue = {4096, stream::BackpressurePolicy::kBlock};
  driver_config.store.scenario =
      EScenarioConfig{dataset.config.window_ticks, dataset.config.vague_width_m,
                      dataset.config.inclusive_threshold,
                      dataset.config.vague_threshold};
  driver_config.match.targets = targets;
  driver_config.v_workers = 4;
  driver_config.metrics = trace.metrics();
  driver_config.trace = trace.trace();

  stream::StreamDriver driver(dataset.grid, dataset.oracle, driver_config);
  driver.Start();

  std::cout << "Replaying " << dataset.e_log.size() << " E-records and "
            << dataset.v_scenarios.TotalObservations() << " V-detections"
            << (rate > 0.0 ? " at " + std::to_string(rate) + " records/s"
                           : " unpaced")
            << "...\n";
  stream::ReplayOptions replay_options;
  replay_options.records_per_second = rate;
  const stream::ReplayOutcome replay =
      ReplayDataset(dataset, driver, replay_options);
  std::cout << "  pushed " << replay.e_pushed << " E + " << replay.v_pushed
            << " V, dropped " << replay.dropped << ", rejected "
            << replay.rejected << "\n";
  std::cout << "  provisional results while streaming: "
            << driver.matcher().provisional_count() << "\n";

  const MatchReport streamed = driver.Drain();

  obs::MetricsRegistry& reg = driver.metrics();
  const obs::LatencySummary latency =
      reg.Latency(stream::kLatRecordToMatch);
  std::cout << "\nStream pipeline:\n";
  std::cout << "  windows sealed      "
            << reg.CounterValue(stream::kCtrWindowsSealed) << "\n";
  std::cout << "  incremental passes  "
            << reg.CounterValue(stream::kCtrIncrementalPasses) << "\n";
  std::cout << "  record-to-match     p50 " << latency.p50_seconds * 1e3
            << " ms, p95 " << latency.p95_seconds * 1e3 << " ms, p99 "
            << latency.p99_seconds * 1e3 << " ms\n";

  // The drain-equivalence guarantee, demonstrated: the results must match
  // byte for byte.
  MatcherConfig batch_config;
  EvMatcher batch(dataset.e_scenarios, dataset.v_scenarios, dataset.oracle,
                  batch_config);
  const MatchReport expected = batch.Match(targets);
  std::size_t agreement = 0;
  bool identical = streamed.results.size() == expected.results.size();
  for (std::size_t i = 0; i < streamed.results.size() && identical; ++i) {
    identical = streamed.results[i].reported_vid ==
                    expected.results[i].reported_vid &&
                streamed.results[i].confidence == expected.results[i].confidence;
    if (streamed.results[i].reported_vid ==
        dataset.truth.TrueVidOf(streamed.results[i].eid)) {
      ++agreement;
    }
  }
  std::cout << "\nDrain vs batch matcher: "
            << (identical ? "byte-identical results" : "MISMATCH (bug!)")
            << "\n";
  std::cout << "Accuracy on " << streamed.results.size() << " targets: "
            << 100.0 * static_cast<double>(agreement) /
                   static_cast<double>(streamed.results.size())
            << "%\n";
  return identical ? 0 : 1;
}
