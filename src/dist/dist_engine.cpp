#include "dist/dist_engine.hpp"

#include <utility>

#include "common/error.hpp"
#include "dist/codecs.hpp"

namespace evm::dist {

using mapreduce::AttemptContext;
using mapreduce::AttemptStatus;
using mapreduce::Block;
using mapreduce::TaskFn;

DistEngine::DistEngine(DistEngineOptions options)
    : options_(std::move(options)),
      cluster_(ClusterOptions{options_.worker_binary, options_.worker_env}),
      pool_(options_.dispatch_threads),
      scheduler_(pool_, options_.scheduler) {
  EVM_CHECK_MSG(options_.workers >= 1, "DistEngine needs at least 1 worker");
  common::WriterMutexLock lock(route_mutex_);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    shard_map_.AddWorker(cluster_.Spawn());
  }
}

DistEngine::~DistEngine() { cluster_.ShutdownAll(); }

// --- RPC plumbing ---------------------------------------------------------

Bytes DistEngine::CallWorker(WorkerId id, Method method,
                             const Bytes& payload) {
  std::shared_ptr<RpcChannel> channel = cluster_.Channel(id);
  if (channel == nullptr) {
    throw RpcError(RpcFailure::kClosed, "no channel for worker");
  }
  const Frame reply = channel->Call(method, payload, options_.rpc_timeout);
  const auto status = static_cast<RpcStatus>(reply.code);
  if (status == RpcStatus::kOk) return reply.payload;
  throw Error("worker " + std::to_string(id) + " error: " +
              std::string(reply.payload.begin(), reply.payload.end()));
}

Bytes DistEngine::CallOwner(const std::string& name, Method method,
                            const Bytes& payload, WorkerId& owner_out) {
  // The route lock is held shared across the RPC itself: a membership
  // change (exclusive) cannot slip between the owner lookup and the
  // delivery, so a record is always either delivered to the owner of a
  // consistent epoch or re-pushed by that change's reconcile pass.
  common::ReaderMutexLock lock(route_mutex_);
  owner_out = shard_map_.OwnerOf(name);
  return CallWorker(owner_out, method, payload);
}

void DistEngine::WriteThrough(const std::string& name, Method method,
                              const Bytes& payload,
                              const std::function<void()>& update_replica) {
  WorkerId owner = 0;
  {
    // One shared hold covers the replica change and its delivery. A
    // reconcile pass (exclusive) therefore runs either before both — and
    // the delivery reaches the post-change owner — or after both, pushing
    // the replica that already holds the change. A reconcile between the
    // two would push the change and the delivery would then apply it a
    // second time.
    common::ReaderMutexLock lock(route_mutex_);
    update_replica();
    owner = shard_map_.OwnerOf(name);
    try {
      (void)CallWorker(owner, method, payload);
      return;
    } catch (const RpcError&) {
      // Fall through: recovery takes the route lock exclusively.
    }
  }
  // The owner died. No redelivery after recovery: the reconcile pass pushes
  // the whole dataset from the replica, which already holds this change —
  // delivering it again would duplicate an append.
  OnWorkerFailure(owner);
}

// --- DFS facade -----------------------------------------------------------

void DistEngine::Write(const std::string& name,
                       std::vector<Block> blocks) {
  const Bytes encoded =
      EncodeValue<std::pair<std::string, std::vector<Block>>>(
          {name, blocks});
  WriteThrough(name, Method::kDfsWrite, encoded,
               [&] { replica_.Write(name, std::move(blocks)); });
}

void DistEngine::Append(const std::string& name, Block block) {
  const Bytes encoded =
      EncodeValue<std::pair<std::string, Block>>({name, block});
  WriteThrough(name, Method::kDfsAppend, encoded,
               [&] { replica_.Append(name, std::move(block)); });
}

std::optional<std::vector<Block>> DistEngine::Read(const std::string& name) {
  WorkerId owner = 0;
  try {
    const Bytes reply = CallOwner(name, Method::kDfsRead,
                                  EncodeValue<std::string>(name), owner);
    BinaryReader r(reply);
    if (!mapreduce::Codec<bool>::Decode(r)) return std::nullopt;
    return mapreduce::Codec<std::vector<Block>>::Decode(r);
  } catch (const RpcError&) {
    OnWorkerFailure(owner);
    return replica_.Read(name);
  }
}

bool DistEngine::Remove(const std::string& name) {
  bool existed = false;
  WriteThrough(name, Method::kDfsRemove, EncodeValue<std::string>(name),
               [&] { existed = replica_.Remove(name); });
  return existed;
}

std::vector<std::string> DistEngine::List() const { return replica_.List(); }

// --- membership -----------------------------------------------------------

WorkerId DistEngine::AddWorker() {
  const WorkerId id = cluster_.Spawn();
  common::WriterMutexLock lock(route_mutex_);
  shard_map_.AddWorker(id);
  ReconcileLocked();
  return id;
}

void DistEngine::RemoveWorker(WorkerId id) {
  {
    common::WriterMutexLock lock(route_mutex_);
    shard_map_.RemoveWorker(id);
    EVM_CHECK_MSG(!shard_map_.Empty(), "cannot remove the last worker");
    ReconcileLocked();
  }
  cluster_.Shutdown(id);
}

void DistEngine::KillWorker(WorkerId id) { cluster_.Kill(id); }

bool DistEngine::Ping(WorkerId id) {
  try {
    const Bytes echo = CallWorker(id, Method::kPing, {1, 2, 3});
    return echo == Bytes{1, 2, 3};
  } catch (const RpcError&) {
    return false;
  }
}

std::vector<WorkerId> DistEngine::Workers() const {
  common::ReaderMutexLock lock(route_mutex_);
  return shard_map_.Workers();
}

std::uint64_t DistEngine::Epoch() const {
  common::ReaderMutexLock lock(route_mutex_);
  return shard_map_.Epoch();
}

std::vector<std::string> DistEngine::WorkerDatasets(WorkerId id) {
  return DecodeValue<std::vector<std::string>>(
      CallWorker(id, Method::kDfsList, {}));
}

// --- failure handling / migration ----------------------------------------

void DistEngine::MarkDeadLocked(WorkerId dead) {
  shard_map_.RemoveWorker(dead);
  cluster_.Kill(dead);  // reap + close the channel so callers fail fast
  if (options_.respawn_on_death) {
    shard_map_.AddWorker(cluster_.Spawn());
  }
  EVM_CHECK_MSG(!shard_map_.Empty(), "no live workers left");
}

void DistEngine::OnWorkerFailure(WorkerId dead) {
  common::WriterMutexLock lock(route_mutex_);
  if (!shard_map_.Contains(dead)) return;  // another caller handled it
  MarkDeadLocked(dead);
  ReconcileLocked();
}

void DistEngine::ReconcileLocked() {
  // Reconciliation is idempotent reconstruction from the replica: push each
  // dataset to its owner under the current map, clear it everywhere else.
  // A worker dying mid-pass is declared dead and the pass restarts against
  // the updated map, so a death during migration cannot strand a dataset —
  // the replica still has it and the next sweep places it.
  bool settled = false;
  while (!settled) {
    settled = true;
    const std::vector<WorkerId> workers = shard_map_.Workers();
    for (const std::string& name : replica_.List()) {
      const WorkerId owner = shard_map_.OwnerOf(name);
      const auto blocks = replica_.Read(name);
      if (!blocks) continue;  // removed concurrently
      try {
        (void)CallWorker(
            owner, Method::kDfsWrite,
            EncodeValue<std::pair<std::string, std::vector<Block>>>(
                {name, *blocks}));
      } catch (const RpcError&) {
        MarkDeadLocked(owner);
        settled = false;
        break;
      }
      for (const WorkerId other : workers) {
        if (other == owner) continue;
        try {
          (void)CallWorker(other, Method::kDfsRemove,
                           EncodeValue<std::string>(name));
        } catch (const RpcError&) {
          MarkDeadLocked(other);
          settled = false;
          break;
        }
      }
      if (!settled) break;
    }
  }
}

// --- execution ------------------------------------------------------------

WorkerId DistEngine::PickWorker(const TaskSpec& spec, const std::string& job,
                                std::size_t index, int attempt) {
  common::ReaderMutexLock lock(route_mutex_);
  const std::vector<WorkerId> workers = shard_map_.Workers();
  EVM_CHECK_MSG(!workers.empty(), "no live workers");
  // First attempt: data locality (the owner of the task's dataset, or a
  // deterministic spread by job+index). Retries rotate through the live
  // set so a task never re-targets only its dead first choice.
  WorkerId preferred;
  if (spec.locality_dataset) {
    preferred = shard_map_.OwnerOf(*spec.locality_dataset);
  } else {
    preferred = shard_map_.OwnerOfKey(ShardMap::HashName(job) ^ index);
  }
  if (attempt <= 1) return preferred;
  std::size_t base = 0;
  for (std::size_t i = 0; i < workers.size(); ++i) {
    if (workers[i] == preferred) base = i;
  }
  return workers[(base + static_cast<std::size_t>(attempt) - 1) %
                 workers.size()];
}

std::vector<Bytes> DistEngine::RunTasks(const std::string& job,
                                        const std::string& kind,
                                        const std::vector<TaskSpec>& specs) {
  std::vector<Bytes> results(specs.size());
  std::vector<TaskFn> tasks;
  tasks.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    tasks.push_back([this, &job, &kind, &specs, &results,
                     i](const AttemptContext& ctx) -> AttemptStatus {
      const WorkerId target = PickWorker(specs[i], job, i, ctx.attempt());
      ExecTaskRequest request;
      request.kind = kind;
      request.job = job;
      request.task = i;
      request.attempt = static_cast<std::uint64_t>(ctx.attempt());
      request.payload = specs[i].payload;
      Bytes out;
      try {
        out = CallWorker(target, Method::kExecTask,
                         EncodeValue<ExecTaskRequest>(request));
      } catch (const RpcError&) {
        // Transport failure = worker death: recover, requeue this attempt
        // through the scheduler's retry/backoff path. Application errors
        // (evm::Error) propagate and fail the job — they are
        // deterministic, retrying cannot help.
        OnWorkerFailure(target);
        return AttemptStatus::kFailed;
      }
      if (!ctx.ClaimCommit()) return AttemptStatus::kCommitLost;
      results[i] = std::move(out);
      return AttemptStatus::kSuccess;
    });
  }
  last_report_ = scheduler_.Run(job, "dist", tasks);
  return results;
}

std::vector<Bytes> DistEngine::RunTasks(const std::string& job,
                                        const std::string& kind,
                                        const std::vector<Bytes>& payloads) {
  std::vector<TaskSpec> specs(payloads.size());
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    specs[i].payload = payloads[i];
  }
  return RunTasks(job, kind, specs);
}

}  // namespace evm::dist
