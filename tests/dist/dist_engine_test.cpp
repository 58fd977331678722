#include "dist/dist_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "dist/codecs.hpp"

namespace evm::dist {
namespace {

// --- placement (pure; no workers spawned) ----------------------------------

std::vector<WorkerId> Ids(std::size_t n) {
  std::vector<WorkerId> ids;
  // Sparse, ascending ids, as after a few replacements.
  for (std::size_t i = 0; i < n; ++i) ids.push_back(3 * i + 1);
  return ids;
}

// k*n consecutive tasks put exactly k first attempts on every worker, from
// whatever offset the job name picks.
TEST(PickWorkerTest, FirstAttemptsRoundRobin) {
  constexpr std::size_t kPerWorker = 5;
  for (const std::size_t n : {1u, 2u, 3u, 4u}) {
    const std::vector<WorkerId> workers = Ids(n);
    for (const std::string job : {"dist-match#0", "dist-match#1", "j"}) {
      for (const std::size_t start : {0u, 7u}) {
        std::map<WorkerId, std::size_t> first;
        for (std::size_t i = start; i < start + kPerWorker * n; ++i) {
          ++first[PickWorker(workers, job, i, 1)];
        }
        ASSERT_EQ(first.size(), n) << job << " n=" << n;
        for (const auto& [worker, count] : first) {
          EXPECT_EQ(count, kPerWorker)
              << job << " n=" << n << " worker " << worker;
        }
      }
    }
  }
}

// Attempts 1..n of one task visit every live worker once, so a retry never
// re-targets only its dead first choice.
TEST(PickWorkerTest, RetriesCoverEveryLiveWorker) {
  for (const std::size_t n : {1u, 2u, 3u, 4u}) {
    const std::vector<WorkerId> workers = Ids(n);
    for (std::size_t task = 0; task < 6; ++task) {
      std::set<WorkerId> seen;
      for (int attempt = 1; attempt <= static_cast<int>(n); ++attempt) {
        seen.insert(PickWorker(workers, "retry-job", task, attempt));
      }
      EXPECT_EQ(seen, std::set<WorkerId>(workers.begin(), workers.end()))
          << "n=" << n << " task " << task;
    }
  }
}

// The choice is a function of (workers, job, index, attempt) only: asking in
// any order, any number of times, gives the same answers.
TEST(PickWorkerTest, IndependentOfCallOrder) {
  const std::vector<WorkerId> workers = Ids(3);
  std::vector<WorkerId> forward;
  for (std::size_t i = 0; i < 24; ++i) {
    forward.push_back(PickWorker(workers, "order-job", i, 1 + i % 3));
  }
  for (std::size_t i = 24; i-- > 0;) {
    EXPECT_EQ(PickWorker(workers, "order-job", i, 1 + i % 3), forward[i])
        << "task " << i;
  }
  EXPECT_EQ(PickWorker({9}, "any", 12345, 7), 9u);
}

// --- the engine, on real worker processes ------------------------------------

std::string WorkerBin() {
  if (const char* env = std::getenv("EVM_WORKER_BIN")) return env;
#ifdef EVM_WORKER_BIN_DEFAULT
  return EVM_WORKER_BIN_DEFAULT;
#else
  return "./evm_worker";
#endif
}

DistEngineOptions Options(std::size_t workers) {
  DistEngineOptions options;
  options.worker_binary = WorkerBin();
  options.workers = workers;
  options.rpc_timeout = std::chrono::milliseconds(30'000);
  return options;
}

TEST(DistEngineTest, RunTasksEchoAcrossWorkerCounts) {
  for (const std::size_t workers : {1u, 2u, 4u}) {
    DistEngine engine(Options(workers));
    std::vector<Bytes> payloads;
    for (int i = 0; i < 12; ++i) {
      payloads.push_back(EncodeValue<std::uint64_t>(1000u + i));
    }
    const std::vector<Bytes> outputs =
        engine.RunTasks("echo-job", "evm.echo", payloads);
    EXPECT_EQ(outputs, payloads) << workers << " workers";
    EXPECT_EQ(engine.LastReport().tasks, payloads.size());
  }
}

TEST(DistEngineTest, UnknownTaskKindPropagatesAsError) {
  DistEngine engine(Options(1));
  EXPECT_THROW((void)engine.RunTasks("bad-job", "evm.no_such_kind",
                                     std::vector<Bytes>{Bytes{}}),
               Error);
  // The engine stays usable: application errors fail the job, not the
  // cluster.
  EXPECT_FALSE(
      engine.RunTasks("ok-job", "evm.echo", std::vector<Bytes>{Bytes{1}})
          .empty());
}

TEST(DistEngineTest, TasksSurviveAWorkerKilledBeforeDispatch) {
  DistEngine engine(Options(2));
  const std::vector<WorkerId> before = engine.Workers();
  // Simulated machine death: the live list still holds the corpse, so
  // some first attempts fail with RpcError and must be requeued.
  engine.KillWorker(before[0]);
  std::vector<Bytes> payloads;
  for (int i = 0; i < 8; ++i) {
    payloads.push_back(EncodeValue<std::uint64_t>(i));
  }
  const std::vector<Bytes> outputs =
      engine.RunTasks("kill-job", "evm.echo", payloads);
  EXPECT_EQ(outputs, payloads);
  // Recovery replaced the corpse: capacity is restored with a fresh id.
  const std::vector<WorkerId> after = engine.Workers();
  EXPECT_EQ(after.size(), 2u);
  EXPECT_FALSE(std::count(after.begin(), after.end(), before[0]));
}

TEST(DistEngineTest, TasksSurviveAWorkerKilledMidJob) {
  DistEngine engine(Options(2));
  const WorkerId victim = engine.Workers()[0];
  // Slow tasks (10ms blocking each) keep the job in flight while the kill
  // lands.
  const Bytes payload = EncodeValue<std::pair<std::uint64_t, std::uint64_t>>(
      {100, 10'000});
  std::vector<Bytes> payloads(16, payload);
  std::thread killer([&engine, victim] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    engine.KillWorker(victim);
  });
  const std::vector<Bytes> outputs =
      engine.RunTasks("midkill-job", "evm.bench_job", payloads);
  killer.join();
  ASSERT_EQ(outputs.size(), payloads.size());
  for (const Bytes& out : outputs) {
    // Every task committed a real checksum regardless of the schedule.
    EXPECT_EQ(out, outputs[0]);
  }
  EXPECT_EQ(engine.Workers().size(), 2u);
}

TEST(DistEngineTest, PingReportsLiveness) {
  DistEngine engine(Options(2));
  const std::vector<WorkerId> workers = engine.Workers();
  EXPECT_TRUE(engine.Ping(workers[0]));
  engine.KillWorker(workers[1]);
  EXPECT_FALSE(engine.Ping(workers[1]));
}

}  // namespace
}  // namespace evm::dist
