// dist_suspects: suspect batches through DistMatcher on forked evm_worker
// processes — the only workload that crosses the process boundary (encode,
// frame, socket, decode, worker compute). Set-up spawns the workers and
// warms every worker's world; a run leaves no worker process behind.

#include <sys/wait.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <optional>

#include "checks.hpp"
#include "core/matcher.hpp"
#include "dist/codecs.hpp"
#include "dist/dist_engine.hpp"
#include "dist/dist_match.hpp"
#include "workloads.hpp"

namespace evbench {
namespace {

namespace dist = evm::dist;

constexpr std::size_t kBatchSize = 100;
constexpr std::size_t kBatchesPerSession = 10;
constexpr double kSessionsPerSecond = 0.2;
constexpr std::size_t kMinSessions = 1;
constexpr double kAccuracyFloor = 0.70;
/// Warm-up tasks per worker: enough that the job's spread of task indices
/// over the ring reaches every worker.
constexpr std::size_t kWarmTasksPerWorker = 16;

dist::DistEngineOptions EngineOptions() {
  dist::DistEngineOptions options;
  options.worker_binary = EVBENCH_WORKER_BIN;
  // Worker processes compute; dispatch threads plus the participating
  // caller keep one RPC in flight per worker.
  options.workers = ProgramWorkers();
  options.dispatch_threads = ProgramWorkers() - 1;
  return options;
}

dist::DistMatchConfig MatchConfig(const evm::DatasetConfig& world) {
  const evm::MatcherConfig shipped = ShippedConfig(/*practical=*/true);
  dist::DistMatchConfig config;
  config.dataset = world;
  config.split = shipped.split;
  config.candidate_pool = shipped.filter.candidate_pool;
  config.refine = shipped.refine;
  return config;
}

/// Makes every worker regenerate (and cache) the world: empty scenario
/// lists cost no extraction, only the first task per worker builds the
/// world.
void WarmWorlds(dist::DistEngine& engine, const dist::DistMatchConfig& config,
                evm::Eid eid) {
  const evm::EidScenarioList empty{eid, {}, false};
  std::vector<dist::Bytes> payloads(
      kWarmTasksPerWorker * engine.Workers().size(),
      dist::EncodeMatchFilterTask(config.dataset, config.candidate_pool,
                                  empty));
  (void)engine.RunTasks("evbench-warm", dist::kMatchFilterKind, payloads);
}

/// True when this process has no child left, running or unreaped.
bool NoChildProcesses() {
  int status = 0;
  return waitpid(-1, &status, WNOHANG) == -1 && errno == ECHILD;
}

}  // namespace

void RunDistSuspects(const Args& args, Result& result) {
  const evm::DatasetConfig world = PaperWorld(true);
  const dist::DistMatchConfig config = MatchConfig(world);
  std::optional<dist::DistEngine> engine;
  std::optional<dist::DistMatcher> matcher;
  double spawn_s = 0;
  double generate_s = 0;
  double workers_peak_mb = 0;
  // A session is a fresh cluster (workers spawned, worlds warmed, galleries
  // cold) taking kBatchesPerSession batches. Worker galleries persist
  // across a session's batches, so batch cost falls along the session;
  // restarting the cluster makes every session repeat the same curve.
  const auto close_session = [&] {
    if (engine) {
      workers_peak_mb = std::max(workers_peak_mb, ChildrenPeakRssMb());
    }
    matcher.reset();
    engine.reset();
  };
  const auto open_session = [&] {
    close_session();
    const auto s0 = Clock::now();
    engine.emplace(EngineOptions());
    spawn_s = Seconds(s0, Clock::now());
    const auto g0 = Clock::now();
    matcher.emplace(*engine, config);
    generate_s = Seconds(g0, Clock::now());
    WarmWorlds(*engine, config, matcher->Universe().front());
  };
  open_session();
  const std::size_t sessions = OpsFor(args, kSessionsPerSecond, kMinSessions);
  const auto batches =
      SuspectBatches(matcher->dataset(), SubSeed(args.seed, 2),
                     sessions * kBatchesPerSession, kBatchSize);
  const double setup_s = Seconds(ProcessStart(), Clock::now());

  std::vector<double> batch_s;
  std::vector<evm::MatchReport> reports;
  std::size_t correct = 0;
  std::size_t matched = 0;
  for (std::size_t k = 0; k < batches.size(); ++k) {
    if (k > 0 && k % kBatchesPerSession == 0) open_session();
    const auto t0 = Clock::now();
    evm::MatchReport report = matcher->Match(batches[k]);
    batch_s.push_back(Seconds(t0, Clock::now()));
    ++result.attempted;
    correct += CheckBatchReport(report, batches[k], matcher->dataset(),
                                result, "dist batch");
    matched += batches[k].size();
    reports.push_back(std::move(report));
  }
  const double driver_peak_mb = PeakRssMb();
  close_session();
  result.Check(NoChildProcesses(), "no evm_worker process left running");
  result.Check(static_cast<double>(correct) >=
                   kAccuracyFloor * static_cast<double>(matched),
               "dist batch accuracy at or above the floor");
  // The checks' own copy of the world, made once memory is measured.
  // GenerateDataset is a pure function of its config, as in every worker.
  const evm::Dataset dataset = evm::GenerateDataset(world);

  // Cross-path identity: the in-process facade on the same suspects.
  {
    evm::EvMatcher in_process(dataset.e_scenarios, dataset.v_scenarios,
                              dataset.oracle, ShippedConfig(true));
    for (std::size_t k = 0; k < batches.size(); ++k) {
      result.Check(
          ReportDifferences(reports[k], in_process.Match(batches[k])) == 0,
          "DistMatcher results identical to the in-process matcher");
    }
  }

  if (!args.trace) {
    EndToEnd e2e;
    e2e.setup_s = setup_s;
    e2e.peak_rss_mb = driver_peak_mb + workers_peak_mb;
    // Batch cost falls along a session as worker galleries warm, so the
    // pooled median sits on the steep part of that curve; the median over
    // sessions of the mean batch time is the steadier centre.
    std::vector<double> session_mean_s;
    for (std::size_t k = 0; k < batch_s.size(); k += kBatchesPerSession) {
      const std::vector<double> session(batch_s.begin() + k,
                                        batch_s.begin() + k + kBatchesPerSession);
      session_mean_s.push_back(Sum(session) / kBatchesPerSession);
    }
    e2e.op_p50_ms = Median(session_mean_s) * 1e3;
    e2e.op_tail_ms = Quantile(batch_s, TailQuantile(batch_s.size())) * 1e3;
    e2e.items_per_s = static_cast<double>(matched) / Sum(batch_s);
    e2e.bulk_s = Sum(batch_s);
    ReportEndToEnd(e2e, result);
    return;
  }

  // Traced run: a second cluster, the same batches rebuilt from the
  // facade's public pieces (RunSplitStage, EncodeMatchFilterTask,
  // DistEngine::RunTasks, DecodeValue<MatchResult>) with a span per layer,
  // then the same payloads through evm.echo to price the transport alone.
  SpanLog log;
  std::vector<double> traced_s;
  double echo_s = 0;
  double rpc_s = 0;
  std::uint64_t tasks = 0;
  std::uint64_t attempts = 0;
  std::uint64_t payload_bytes = 0;
  std::size_t split_calls = 0;
  std::size_t split_windows = 0;
  {
    std::optional<dist::DistEngine> traced_engine;
    const std::vector<evm::Eid> universe =
        evm::CollectUniverse(dataset.e_scenarios);
    evm::obs::MetricsRegistry registry;
    for (std::size_t k = 0; k < batches.size(); ++k) {
      if (k % kBatchesPerSession == 0) {
        traced_engine.reset();
        traced_engine.emplace(EngineOptions());
        WarmWorlds(*traced_engine, config, universe.front());
      }
      // DistMatcher numbers its jobs per matcher; the job name seeds task
      // placement, so the rebuilt session uses the same names.
      const std::string job =
          "dist-match#" + std::to_string(k % kBatchesPerSession);
      std::vector<std::vector<dist::Bytes>> sent;
      const evm::SplitStageFn split = [&](const std::vector<evm::Eid>& subset,
                                          std::uint64_t seed) {
        SpanLog::Scope span(log, "core.split");
        evm::SplitConfig cfg = config.split;
        cfg.seed = seed;
        evm::SplitOutcome outcome = evm::RunSplitStage(
            dataset.e_scenarios, cfg, universe, subset, registry, nullptr);
        ++split_calls;
        split_windows += outcome.windows_consumed;
        return outcome;
      };
      const evm::FilterStageFn filter =
          [&](const std::vector<evm::EidScenarioList>& lists,
              std::vector<evm::MatchResult>& results) {
            std::vector<dist::Bytes> payloads;
            {
              SpanLog::Scope span(log, "dist.encode");
              payloads.reserve(lists.size());
              for (const auto& list : lists) {
                payloads.push_back(dist::EncodeMatchFilterTask(
                    config.dataset, config.candidate_pool, list));
              }
            }
            std::vector<dist::Bytes> outputs;
            {
              SpanLog::Scope span(log, "dist.rpc");
              outputs = traced_engine->RunTasks(job, dist::kMatchFilterKind,
                                                payloads);
              rpc_s += span.Elapsed();
            }
            attempts += traced_engine->LastReport().attempts;
            tasks += payloads.size();
            for (const auto& p : payloads) payload_bytes += p.size();
            {
              SpanLog::Scope span(log, "dist.decode");
              results.resize(outputs.size());
              for (std::size_t i = 0; i < outputs.size(); ++i) {
                results[i] = dist::DecodeValue<evm::MatchResult>(outputs[i]);
              }
            }
            sent.push_back(std::move(payloads));
          };
      const auto t0 = Clock::now();
      const evm::MatchReport report =
          evm::RunMatchPass(batches[k], config.refine, config.split.seed,
                            split, filter, registry, nullptr);
      traced_s.push_back(Seconds(t0, Clock::now()));
      result.Check(ReportDifferences(report, reports[k]) == 0,
                   "rebuilt dist stages reproduce DistMatcher's report");
      for (const auto& payloads : sent) {
        const auto e0 = Clock::now();
        const auto echoed =
            traced_engine->RunTasks(job + "-echo", "evm.echo", payloads);
        echo_s += Seconds(e0, Clock::now());
        result.Check(echoed == payloads, "evm.echo returns its payloads");
      }
    }
  }
  result.Check(NoChildProcesses(), "no evm_worker process left running");

  const double n = static_cast<double>(batches.size());
  const double t = static_cast<double>(tasks);
  auto& layers = result.layers;
  layers["dataset.generate_s"] = generate_s;
  layers["core.split_ms_per_query"] = log.TotalSeconds("core.split") / n * 1e3;
  layers["core.split_windows"] =
      static_cast<double>(split_windows) / static_cast<double>(split_calls);
  layers["dist.payload_bytes_per_task"] = static_cast<double>(payload_bytes) / t;
  layers["dist.frames_per_query"] = 2.0 * static_cast<double>(attempts) / n;
  layers["dist.encode_us_per_task"] = log.TotalSeconds("dist.encode") / t * 1e6;
  layers["dist.decode_us_per_task"] = log.TotalSeconds("dist.decode") / t * 1e6;
  layers["dist.roundtrip_us_per_task"] = echo_s / t * 1e6;
  layers["dist.compute_ms_per_task"] = (rpc_s - echo_s) / t * 1e3;
  layers["dist.spawn_s"] = spawn_s;
  const double traced_total = Sum(traced_s);
  layers["trace.uncovered_share"] =
      (traced_total - log.RootSeconds()) / traced_total;
  layers["trace.overhead_ratio"] = Median(traced_s) / Median(batch_s);
  PrintLayerTable("dist_suspects", log, traced_total, Median(traced_s) * 1e3,
                  Median(batch_s) * 1e3);
  std::printf("  per task (wall share of a batch job): echo round trip "
              "%.1f us, worker compute %.3f ms; %.0f payload bytes\n",
              layers["dist.roundtrip_us_per_task"],
              layers["dist.compute_ms_per_task"],
              layers["dist.payload_bytes_per_task"]);
}

}  // namespace evbench
