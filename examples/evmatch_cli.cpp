// evmatch_cli — command-line front end for the whole pipeline.
//
//   ./evmatch_cli [--population N] [--density D] [--targets N|all]
//                 [--algo ss|edp] [--practical] [--refine]
//                 [--e-noise SIGMA] [--vague-width W]
//                 [--e-missing R] [--v-missing R]
//                 [--seed S] [--export-matches FILE] [--export-elog FILE]
//                 [--trace FILE]
//
// Generates a synthetic EV dataset, runs the selected matcher, prints the
// summary the bench harnesses report, and optionally exports CSVs for
// downstream tooling.

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "baseline/edp.hpp"
#include "core/matcher.hpp"
#include "dataset/generator.hpp"
#include "dataset/trace_io.hpp"
#include "metrics/accuracy.hpp"
#include "metrics/experiment.hpp"
#include "obs/trace_session.hpp"

namespace {

struct CliOptions {
  std::size_t population{1000};
  double density{40.0};
  std::string targets{"200"};
  std::string algo{"ss"};
  bool practical{false};
  bool refine{false};
  double e_noise{0.0};
  double vague_width{0.0};
  double e_missing{0.0};
  double v_missing{0.0};
  std::uint64_t seed{2017};
  std::string export_matches;
  std::string export_elog;
};

void PrintUsage() {
  std::cout <<
      "usage: evmatch_cli [options]\n"
      "  --population N        people in the world (default 1000)\n"
      "  --density D           average people per cell (default 40)\n"
      "  --targets N|all       EIDs to match (default 200)\n"
      "  --algo ss|edp         matcher (default ss)\n"
      "  --practical           vague-aware splitting\n"
      "  --refine              matching refining (Algorithm 2)\n"
      "  --e-noise SIGMA       localization error, metres\n"
      "  --vague-width W       vague band width, metres\n"
      "  --e-missing R         fraction of device-less people\n"
      "  --v-missing R         detector miss probability\n"
      "  --seed S              master seed (default 2017)\n"
      "  --export-matches F    write match results CSV\n"
      "  --export-elog F       write the raw E-log CSV\n"
      "  --trace F             write counters + stage spans JSON\n";
}

bool ParseArgs(int argc, char** argv, CliOptions& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) throw evm::Error("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") return false;
    if (arg == "--population") options.population = std::stoul(next());
    else if (arg == "--density") options.density = std::stod(next());
    else if (arg == "--targets") options.targets = next();
    else if (arg == "--algo") options.algo = next();
    else if (arg == "--practical") options.practical = true;
    else if (arg == "--refine") options.refine = true;
    else if (arg == "--e-noise") options.e_noise = std::stod(next());
    else if (arg == "--vague-width") options.vague_width = std::stod(next());
    else if (arg == "--e-missing") options.e_missing = std::stod(next());
    else if (arg == "--v-missing") options.v_missing = std::stod(next());
    else if (arg == "--seed") options.seed = std::stoull(next());
    else if (arg == "--export-matches") options.export_matches = next();
    else if (arg == "--export-elog") options.export_elog = next();
    else throw evm::Error("unknown option: " + arg);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace evm;
  obs::TraceSession trace(obs::ExtractTraceFlag(argc, argv));
  CliOptions options;
  try {
    if (!ParseArgs(argc, argv, options)) {
      PrintUsage();
      return 0;
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    PrintUsage();
    return 2;
  }

  DatasetConfig config;
  config.population = options.population;
  config.SetDensity(options.density);
  config.seed = options.seed;
  config.e_noise_sigma_m = options.e_noise;
  config.vague_width_m = options.vague_width;
  config.e_missing_rate = options.e_missing;
  config.v_missing_rate = options.v_missing;

  std::cout << "generating dataset: population=" << config.population
            << " density=" << config.Density() << " seed=" << config.seed
            << "\n";
  const Dataset dataset = GenerateDataset(config);

  std::vector<Eid> targets;
  if (options.targets == "all") {
    targets = dataset.AllEids();
  } else {
    targets = SampleTargets(dataset, std::stoul(options.targets), 1);
  }
  std::cout << "matching " << targets.size() << " EIDs with "
            << options.algo << (options.practical ? " (practical)" : "")
            << (options.refine ? " + refining" : "") << "\n";

  MatchReport report;
  if (options.algo == "edp") {
    EdpConfig edp_config = DefaultEdpConfig();
    edp_config.metrics = trace.metrics();
    edp_config.trace = trace.trace();
    EdpMatcher matcher(dataset.e_scenarios, dataset.v_scenarios,
                       dataset.oracle, edp_config);
    report = matcher.Match(targets);
  } else if (options.algo == "ss") {
    MatcherConfig matcher_config = DefaultSsConfig(options.practical);
    matcher_config.refine.enabled = options.refine;
    matcher_config.refine.min_majority = 0.75;
    matcher_config.metrics = trace.metrics();
    matcher_config.trace = trace.trace();
    EvMatcher matcher(dataset.e_scenarios, dataset.v_scenarios,
                      dataset.oracle, matcher_config);
    report = matcher.Match(targets);
  } else {
    std::cerr << "error: unknown algorithm '" << options.algo << "'\n";
    return 2;
  }

  const MatchStats& stats = report.stats;
  std::cout << "\nresults\n"
            << "  accuracy:            "
            << MatchAccuracy(report.results, dataset.truth) * 100.0 << "%\n"
            << "  distinct scenarios:  " << stats.distinct_scenarios << "\n"
            << "  scenarios per EID:   " << stats.avg_scenarios_per_eid << "\n"
            << "  E stage:             " << stats.e_stage_seconds << " s\n"
            << "  V stage:             " << stats.v_stage_seconds << " s\n"
            << "  features extracted:  " << stats.features_extracted << "\n"
            << "  comparisons:         " << stats.feature_comparisons << "\n"
            << "  undistinguished:     " << stats.undistinguished_eids << "\n"
            << "  refine rounds:       " << stats.refine_rounds << "\n";

  if (!options.export_matches.empty()) {
    std::ofstream out(options.export_matches);
    WriteMatchReportCsv(report, out);
    std::cout << "wrote " << options.export_matches << "\n";
  }
  if (!options.export_elog.empty()) {
    std::ofstream out(options.export_elog);
    WriteELogCsv(dataset.e_log, out);
    std::cout << "wrote " << options.export_elog << "\n";
  }
  return 0;
}
