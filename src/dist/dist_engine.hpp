#pragma once
// DistEngine — the driver side of the multi-process engine.
//
// Promotes the PR-5 TaskScheduler from "thread pool with retries" to a real
// driver: attempts are dispatched over RPC to worker processes, and the same
// retry/deadline/speculation machinery that covered injected in-process
// failures now covers worker death. The moving parts:
//
//   live workers    a sorted list of worker ids; PickWorker() maps each
//                   attempt onto it (round-robin first attempts, retries
//                   rotating on).
//   Cluster         fork/exec lifecycle + channels (cluster.hpp).
//   TaskScheduler   unchanged; DistEngine supplies attempt bodies that
//                   RPC to a worker and turn transport failures into
//                   AttemptStatus::kFailed, so a dead worker's attempts
//                   are requeued by the existing retry path.
//
// Workers hold no state the driver must restore: a task payload carries
// everything its kind needs (the match filter ships the DatasetConfig and
// workers regenerate the world from it), so any live worker can run any
// attempt.
//
// Failure model: the per-call receive deadline is the heartbeat. A worker
// that closes its socket (crash, injected kill) or misses the deadline is
// declared dead: it is dropped from the live list, its process is reaped
// and a replacement is spawned in its place. In-flight attempts on the dead
// worker fail with RpcError, return kFailed, and retry on the next live
// worker — since attempt bodies are pure and results publish via
// ClaimCommit, output bytes are independent of the failure schedule.
//
// Locking: workers_mutex_ guards only the live list and is never held
// across an RPC. Recovery holds it while it reaps and spawns, so it comes
// before Cluster::mutex_ before the RpcChannel leaf
// (tools/tidy/lock_hierarchy.txt).

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"
#include "common/thread_pool.hpp"
#include "dist/cluster.hpp"
#include "dist/rpc.hpp"
#include "mapreduce/scheduler.hpp"

namespace evm::dist {

struct DistEngineOptions {
  /// Path to the evm_worker binary.
  std::string worker_binary;
  /// Worker count (>= 1), held constant: a dead worker is replaced.
  std::size_t workers{2};
  /// Extra environment for workers (fault-injection knobs).
  std::vector<std::pair<std::string, std::string>> worker_env;
  /// Fault-tolerance tuning for the dispatch scheduler.
  mapreduce::SchedulerOptions scheduler{};
  /// Per-RPC receive deadline — the heartbeat interval: a worker that
  /// neither answers nor hangs up within it is declared dead.
  std::chrono::milliseconds rpc_timeout{30'000};
  /// Driver-side dispatch threads (concurrent outstanding RPCs).
  std::size_t dispatch_threads{8};
};

/// The worker that attempt `attempt` (1-based) of task `index` of `job`
/// goes to, out of the live `workers` (non-empty, ascending). First
/// attempts round-robin: consecutive indices land on consecutive workers,
/// starting at an offset taken from the job's name hash. Each retry moves
/// one worker on, so attempts 1..n of a task visit all n live workers. A
/// pure function of its arguments.
[[nodiscard]] WorkerId PickWorker(const std::vector<WorkerId>& workers,
                                  std::string_view job, std::size_t index,
                                  int attempt);

class DistEngine {
 public:
  explicit DistEngine(DistEngineOptions options);
  /// Shuts every worker down.
  ~DistEngine();
  DistEngine(const DistEngine&) = delete;
  DistEngine& operator=(const DistEngine&) = delete;

  /// Simulated machine death: SIGKILL, no list update — the engine
  /// discovers it the way it discovers a crash, through a failed RPC.
  void KillWorker(WorkerId id);

  /// Liveness probe (kPing round-trip within the heartbeat deadline).
  [[nodiscard]] bool Ping(WorkerId id);

  /// Live workers, ascending.
  [[nodiscard]] std::vector<WorkerId> Workers() const
      EVM_EXCLUDES(workers_mutex_);

  /// Runs one registered task kind per payload across the workers and
  /// returns the outputs in payload order. Transport failures are retried
  /// by the scheduler (worker death included); application errors (a
  /// throwing handler) propagate as evm::Error. Not reentrant — one job at
  /// a time.
  std::vector<Bytes> RunTasks(const std::string& job, const std::string& kind,
                              const std::vector<Bytes>& payloads)
      EVM_EXCLUDES(workers_mutex_);

  [[nodiscard]] const mapreduce::SchedulerReport& LastReport() const noexcept {
    return last_report_;
  }

 private:
  /// The RPC itself, without any engine lock (the channel serializes
  /// itself). Throws RpcError on transport failure, evm::Error on an
  /// application error response.
  Bytes CallWorker(WorkerId id, Method method, const Bytes& payload);

  /// PickWorker over the current live list.
  [[nodiscard]] WorkerId PickLiveWorker(const std::string& job,
                                        std::size_t index, int attempt) const
      EVM_EXCLUDES(workers_mutex_);

  /// Declares `dead` dead: drops it from the live list, reaps it and spawns
  /// a replacement. Idempotent.
  void OnWorkerFailure(WorkerId dead) EVM_EXCLUDES(workers_mutex_);

  DistEngineOptions options_;
  Cluster cluster_;
  ThreadPool pool_;
  mapreduce::TaskScheduler scheduler_;
  mapreduce::SchedulerReport last_report_;

  mutable common::Mutex workers_mutex_;
  /// Ascending: ids are dense and never reused, so a replacement appended
  /// at the end keeps the order.
  std::vector<WorkerId> workers_ EVM_GUARDED_BY(workers_mutex_);
};

}  // namespace evm::dist
