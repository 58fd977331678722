// Distributed engine microbench: transport and service-time overlap across
// worker-process counts (1 / 2 / 4), plus RPC round-trip latency — emitted
// as BENCH_distributed.json for the cross-PR perf trajectory.
//
// This is not a matching benchmark: the dist.jobs.w* rows run the synthetic
// evm.bench_job kind, a CPU spin plus a blocking wait (a stand-in for the
// storage/network stall a real deployment spends most of a task in). Worker
// processes are single-threaded, so the blocking share is exactly what
// extra workers overlap; the scaling gate below (w4/w1 >= 1.6x) holds on
// any host, including single-core CI runners, because it measures
// service-time overlap rather than CPU parallelism. Distributed matching
// itself is measured end to end by evbench's dist_suspects workload.

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "dist/codecs.hpp"
#include "dist/dist_engine.hpp"

namespace {

using namespace evm;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kJobs = 64;
constexpr std::uint64_t kSpinIters = 20'000;
constexpr std::uint64_t kSleepMicros = 8'000;
constexpr double kScalingFloor = 1.6;  // committed acceptance gate (w4/w1)

std::string WorkerBin() {
  if (const char* env = std::getenv("EVM_WORKER_BIN")) return env;
#ifdef EVM_WORKER_BIN_DEFAULT
  return EVM_WORKER_BIN_DEFAULT;
#else
  return "./evm_worker";
#endif
}

dist::DistEngineOptions EngineOptions(std::size_t workers) {
  dist::DistEngineOptions options;
  options.worker_binary = WorkerBin();
  options.workers = workers;
  options.dispatch_threads = 8;
  return options;
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Jobs/second over kJobs bench tasks on `workers` worker processes.
double JobThroughput(std::size_t workers) {
  dist::DistEngine engine(EngineOptions(workers));
  const dist::Bytes payload = dist::EncodeValue<
      std::pair<std::uint64_t, std::uint64_t>>({kSpinIters, kSleepMicros});
  const std::vector<dist::Bytes> payloads(kJobs, payload);
  // Warm-up: fault the workers' pages and the dispatch path once.
  (void)engine.RunTasks("bench-warmup", "evm.bench_job",
                        std::vector<dist::Bytes>(workers, payload));
  const auto start = Clock::now();
  (void)engine.RunTasks("bench-jobs", "evm.bench_job", payloads);
  const double seconds = SecondsSince(start);
  return static_cast<double>(kJobs) / seconds;
}

double EchoNsPerOp(dist::DistEngine& engine) {
  constexpr std::size_t kPings = 2000;
  const dist::WorkerId worker = engine.Workers().front();
  const auto start = Clock::now();
  for (std::size_t i = 0; i < kPings; ++i) {
    if (!engine.Ping(worker)) {
      std::cerr << "ping failed mid-bench\n";
      std::exit(1);
    }
  }
  return SecondsSince(start) * 1e9 / static_cast<double>(kPings);
}

}  // namespace

int main() {
  bench::PrintHeader(
      "micro: distributed engine transport",
      "synthetic-job service-time overlap vs worker processes; RPC echo");

  std::vector<bench::BenchRecord> records;
  std::vector<std::pair<std::size_t, double>> throughput;
  for (const std::size_t workers : {1u, 2u, 4u}) {
    const double jobs_per_second = JobThroughput(workers);
    throughput.emplace_back(workers, jobs_per_second);
    std::cout << "  workers=" << workers << "  " << jobs_per_second
              << " synthetic jobs/s\n";
    records.push_back({"dist.jobs.w" + std::to_string(workers),
                       1e9 / jobs_per_second, jobs_per_second});
  }

  const double scaling = throughput[2].second / throughput[0].second;
  const bool pass = scaling >= kScalingFloor;
  std::cout << "scaling: w4/w1=" << scaling << " (service-time overlap, floor "
            << kScalingFloor << ") [" << (pass ? "PASS" : "FAIL") << "]\n";

  {
    dist::DistEngine engine(EngineOptions(1));
    const double echo_ns = EchoNsPerOp(engine);
    std::cout << "  rpc echo " << echo_ns << " ns/op\n";
    records.push_back({"dist.rpc.echo", echo_ns, 0.0});
  }

  bench::WriteBenchJson("BENCH_distributed.json", records);
  std::cout << "\nwrote BENCH_distributed.json\n";
  return pass ? 0 : 1;
}
