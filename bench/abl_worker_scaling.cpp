// Ablation — engine worker scaling.
//
// The paper parallelizes on a 14-node Spark cluster; our engine scales with
// worker threads. This bench sweeps the worker count for the full pipeline
// at 400 matched EIDs. Only the V stage (one filter task per EID) runs on
// the engine; set splitting is sequential (DESIGN.md §17), so the E column
// does not scale.

#include <iostream>
#include <string>
#include <thread>

#include "bench_util.hpp"
#include "common/report.hpp"

int main() {
  using namespace evm;
  bench::PrintHeader("Ablation: engine worker scaling",
                     "Full SS pipeline, 400 matched EIDs. Wall-clock speedup "
                     "requires real cores;\nthis host reports hardware_"
                     "concurrency = " +
                         std::to_string(std::thread::hardware_concurrency()) +
                         ".");
  const Dataset dataset = bench::PaperDataset();
  const auto targets = SampleTargets(dataset, 400, bench::kTargetSeed);

  TextTable table({"workers", "E (s)", "V (s)", "total (s)", "speedup"});
  double baseline = 0.0;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    MatcherConfig config = DefaultSsConfig();
    config.engine.workers = workers;
    const RunSummary run = RunSs(dataset, targets, config);
    if (workers == 1) baseline = run.stats.TotalSeconds();
    table.AddRow({std::to_string(workers),
                  FormatDouble(run.stats.e_stage_seconds, 3),
                  FormatDouble(run.stats.v_stage_seconds, 3),
                  FormatDouble(run.stats.TotalSeconds(), 3),
                  FormatDouble(baseline / run.stats.TotalSeconds(), 2)});
  }
  table.Print(std::cout);
  std::cout << "\nCSV:\n";
  table.PrintCsv(std::cout);
  return 0;
}
