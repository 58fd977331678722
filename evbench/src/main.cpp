// evbench — the end-to-end benchmark driver.
//
//   evbench --workload NAME --seed N --seconds S --trace 0|1
//   evbench --self-test
//
// Untraced runs (--trace 0) print the end-to-end metrics; traced runs
// (--trace 1) print the per-layer table and the per-layer metrics. The last
// line of standard output is always one JSON object with the keys correct,
// attempted, failed and metrics. See README.md.

#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "checks.hpp"
#include "workloads.hpp"

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in report order (BENCHMARK.json lists the same).
constexpr LayerMetric kLayerMetrics[] = {
    {"dataset.generate_s", "s"},
    {"core.split_ms_per_query", "ms"},
    {"core.split_windows", "count"},
    {"mapreduce.overhead_ms_per_job", "ms"},
    {"mapreduce.attempts_per_task", "ratio"},
    {"vsense.extract_s", "s"},
    {"vsense.extractions", "count"},
    {"vsense.extract_us_per_obs", "us"},
    {"vsense.gallery_hit_ratio", "ratio"},
    {"core.filter_ms_per_query", "ms"},
    {"core.feature_comparisons", "count"},
    {"core.comparisons_per_s", "1/s"},
    {"stream.push_ns_per_record", "ns"},
    {"stream.append_ns_per_record", "ns"},
    {"obs.counter_lookup_ns", "ns"},
    {"stream.seal_ms_per_window", "ms"},
    {"stream.incremental_ms_per_window", "ms"},
    {"stream.dirty_targets_per_pass", "count"},
    {"stream.refiltered_per_pass", "count"},
    {"stream.windows_per_seal_batch", "count"},
    {"stream.drain_pass_s", "s"},
    {"stream.generator_late_ms", "ms"},
    {"dist.payload_bytes_per_task", "bytes"},
    {"dist.frames_per_query", "count"},
    {"dist.encode_us_per_task", "us"},
    {"dist.decode_us_per_task", "us"},
    {"dist.roundtrip_us_per_task", "us"},
    {"dist.compute_ms_per_task", "ms"},
    {"dist.spawn_s", "s"},
    {"trace.uncovered_share", "ratio"},
    {"trace.overhead_ratio", "ratio"},
};

void Usage() {
  std::cerr << "usage: evbench --workload suspect_batches|labeled_city|"
               "live_feed|dist_suspects --seed N --seconds S --trace 0|1\n"
               "       evbench --self-test\n";
}

bool Parse(int argc, char** argv, evbench::Args& args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
      if (!(args.seconds > 0.0 && args.seconds <= 600.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else {
      return false;
    }
  }
  return have_workload;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--self-test") == 0) {
    return evbench::RunSelfTest();
  }
  evbench::Args args;
  try {
    if (!Parse(argc, argv, args)) {
      Usage();
      return 2;
    }
  } catch (const std::exception&) {
    Usage();
    return 2;
  }

  evbench::Result result;
  try {
    if (args.workload == "suspect_batches") {
      evbench::RunSuspectBatches(args, result);
    } else if (args.workload == "labeled_city") {
      evbench::RunLabeledCity(args, result);
    } else if (args.workload == "live_feed") {
      evbench::RunLiveFeed(args, result);
    } else if (args.workload == "dist_suspects") {
      evbench::RunDistSuspects(args, result);
    } else {
      Usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "evbench: " << args.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }
  if (args.trace) {
    for (const auto& [name, unit] : kLayerMetrics) {
      const auto it = result.layers.find(name);
      result.Metric(name, it == result.layers.end() ? 0.0 : it->second, unit);
    }
  }
  std::fflush(stdout);
  std::cout << result.Json() << std::endl;
  return 0;
}
