#pragma once
// DistEngine — the driver side of the multi-process engine.
//
// Promotes the PR-5 TaskScheduler from "thread pool with retries" to a real
// driver: attempts are dispatched over RPC to shard-hosting worker
// processes, and the same retry/deadline/speculation machinery that covered
// injected in-process failures now covers worker death. The moving parts:
//
//   ShardMap        consistent-hash placement of datasets and task
//                   locality keys over live workers (epoch per membership
//                   change).
//   replica Dfs     a driver-side write-through copy of every dataset —
//                   the spill. Worker shards are a cache of it: any shard
//                   can be reconstructed from the replica at any time,
//                   which is exactly what migration and death recovery do.
//   Cluster         fork/exec lifecycle + channels (cluster.hpp).
//   TaskScheduler   unchanged; DistEngine supplies attempt bodies that
//                   RPC to a worker and turn transport failures into
//                   AttemptStatus::kFailed, so a dead worker's attempts
//                   are requeued by the existing retry path.
//
// Failure model: the per-call receive deadline is the heartbeat. A worker
// that closes its socket (crash, injected kill) or misses the deadline is
// declared dead: it is removed from the ShardMap, its process is reaped, a
// replacement is optionally spawned, and every dataset is reconciled from
// the replica to its (possibly new) owner. In-flight attempts on the dead
// worker fail with RpcError, return kFailed, and retry against the
// post-reconcile map — since attempt bodies are pure and results publish
// via ClaimCommit, output bytes are independent of the failure schedule.
//
// Locking: route_mutex_ is a reader/writer route lock. Routing a request
// (the replica change of a write, owner lookup and the RPC itself) holds it
// shared; membership changes + reconciliation hold it exclusive. An append
// therefore either completes entirely before a change (and the reconcile
// re-pushes it from the replica) or entirely after it, against the
// post-change map — records are never lost or applied twice mid-rebalance.
// Order: DistEngine::route_mutex_ before Cluster::mutex_ before the
// RpcChannel leaf (tools/tidy/lock_hierarchy.txt).

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"
#include "common/thread_pool.hpp"
#include "dist/cluster.hpp"
#include "dist/rpc.hpp"
#include "dist/shard_map.hpp"
#include "mapreduce/dfs.hpp"
#include "mapreduce/scheduler.hpp"

namespace evm::dist {

struct DistEngineOptions {
  /// Path to the evm_worker binary.
  std::string worker_binary;
  /// Initial worker count (>= 1).
  std::size_t workers{2};
  /// Extra environment for workers (fault-injection knobs).
  std::vector<std::pair<std::string, std::string>> worker_env;
  /// Fault-tolerance tuning for the dispatch scheduler.
  mapreduce::SchedulerOptions scheduler{};
  /// Per-RPC receive deadline — the heartbeat interval: a worker that
  /// neither answers nor hangs up within it is declared dead.
  std::chrono::milliseconds rpc_timeout{30'000};
  /// Spawn a replacement when a worker dies (keeps capacity constant
  /// through the nightly kill soak).
  bool respawn_on_death{true};
  /// Driver-side dispatch threads (concurrent outstanding RPCs).
  std::size_t dispatch_threads{8};
};

/// One task for RunTasks: the kind handler's encoded payload, optionally
/// pinned to the worker owning `locality_dataset` (first attempt only —
/// retries rotate through live workers).
struct TaskSpec {
  Bytes payload;
  std::optional<std::string> locality_dataset;
};

class DistEngine {
 public:
  explicit DistEngine(DistEngineOptions options);
  /// Shuts every worker down.
  ~DistEngine();
  DistEngine(const DistEngine&) = delete;
  DistEngine& operator=(const DistEngine&) = delete;

  // --- DFS, routed --------------------------------------------------------
  // Writes go to the replica first (the authoritative spill), then to the
  // owning worker's shard. Reads are served by the owner; a dead owner
  // triggers recovery and the replica answers.

  void Write(const std::string& name, std::vector<mapreduce::Block> blocks)
      EVM_EXCLUDES(route_mutex_);
  void Append(const std::string& name, mapreduce::Block block)
      EVM_EXCLUDES(route_mutex_);
  [[nodiscard]] std::optional<std::vector<mapreduce::Block>> Read(
      const std::string& name) EVM_EXCLUDES(route_mutex_);
  bool Remove(const std::string& name) EVM_EXCLUDES(route_mutex_);
  [[nodiscard]] std::vector<std::string> List() const;

  /// The driver-side write-through copy (the spill shards are re-fetched
  /// from on worker death).
  [[nodiscard]] const mapreduce::Dfs& replica() const noexcept {
    return replica_;
  }

  // --- membership ---------------------------------------------------------

  /// Spawns a worker, joins it to the ring and migrates its share of the
  /// datasets to it. Returns its id.
  WorkerId AddWorker() EVM_EXCLUDES(route_mutex_);

  /// Graceful leave: the worker's key ranges are rebalanced away, its
  /// datasets migrated, then the process is shut down.
  void RemoveWorker(WorkerId id) EVM_EXCLUDES(route_mutex_);

  /// Simulated machine death: SIGKILL, no map update — the engine
  /// discovers it the way it discovers a crash, through a failed RPC.
  void KillWorker(WorkerId id);

  /// Liveness probe (kPing round-trip within the heartbeat deadline).
  [[nodiscard]] bool Ping(WorkerId id) EVM_EXCLUDES(route_mutex_);

  [[nodiscard]] std::vector<WorkerId> Workers() const
      EVM_EXCLUDES(route_mutex_);
  [[nodiscard]] std::uint64_t Epoch() const EVM_EXCLUDES(route_mutex_);

  /// Dataset names currently hosted by one worker's shard (direct RPC; for
  /// tests asserting placement).
  [[nodiscard]] std::vector<std::string> WorkerDatasets(WorkerId id)
      EVM_EXCLUDES(route_mutex_);

  // --- execution ----------------------------------------------------------

  /// Runs one registered task kind per spec across the workers and returns
  /// the outputs in spec order. Transport failures are retried by the
  /// scheduler (worker death included); application errors (a throwing
  /// handler) propagate as evm::Error. Not reentrant — one job at a time.
  std::vector<Bytes> RunTasks(const std::string& job, const std::string& kind,
                              const std::vector<TaskSpec>& specs)
      EVM_EXCLUDES(route_mutex_);

  /// Convenience overload: bare payloads, locality spread by index.
  std::vector<Bytes> RunTasks(const std::string& job, const std::string& kind,
                              const std::vector<Bytes>& payloads)
      EVM_EXCLUDES(route_mutex_);

  [[nodiscard]] const mapreduce::SchedulerReport& LastReport() const noexcept {
    return last_report_;
  }

 private:
  /// Owner + channel under one shared route lock, then the RPC without any
  /// engine lock (the channel serializes itself). Throws RpcError on
  /// transport failure, evm::Error on an application error response.
  Bytes CallWorker(WorkerId id, Method method, const Bytes& payload);
  Bytes CallOwner(const std::string& name, Method method, const Bytes& payload,
                  WorkerId& owner_out) EVM_EXCLUDES(route_mutex_);
  /// Applies `update_replica` and delivers `payload` to the dataset's owner
  /// under one shared route hold; an owner that fails the RPC is declared
  /// dead after the hold is released.
  void WriteThrough(const std::string& name, Method method,
                    const Bytes& payload,
                    const std::function<void()>& update_replica)
      EVM_EXCLUDES(route_mutex_);

  /// Declares `dead` dead: drops it from the ring, reaps it, optionally
  /// spawns a replacement, reconciles every dataset. Idempotent.
  void OnWorkerFailure(WorkerId dead) EVM_EXCLUDES(route_mutex_);

  /// Pushes every replica dataset to its current owner and clears stale
  /// copies from non-owners. Workers that die during the push are declared
  /// dead and the pass restarts, so a worker death mid-migration leaves
  /// the map consistent.
  void ReconcileLocked() EVM_REQUIRES(route_mutex_);
  void MarkDeadLocked(WorkerId dead) EVM_REQUIRES(route_mutex_);

  [[nodiscard]] WorkerId PickWorker(const TaskSpec& spec,
                                    const std::string& job, std::size_t index,
                                    int attempt) EVM_EXCLUDES(route_mutex_);

  DistEngineOptions options_;
  Cluster cluster_;
  mapreduce::Dfs replica_;
  ThreadPool pool_;
  mapreduce::TaskScheduler scheduler_;
  mapreduce::SchedulerReport last_report_;

  mutable common::SharedMutex route_mutex_;
  ShardMap shard_map_ EVM_GUARDED_BY(route_mutex_);
};

}  // namespace evm::dist
