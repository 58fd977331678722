#include "dist/dist_engine.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "dist/codecs.hpp"

namespace evm::dist {

using mapreduce::AttemptContext;
using mapreduce::AttemptStatus;
using mapreduce::TaskFn;

WorkerId PickWorker(const std::vector<WorkerId>& workers, std::string_view job,
                    std::size_t index, int attempt) {
  EVM_CHECK_MSG(!workers.empty(), "no live workers");
  const std::size_t n = workers.size();
  const auto retry = static_cast<std::size_t>(std::max(attempt, 1) - 1);
  return workers[(HashName(job) % n + index + retry) % n];
}

DistEngine::DistEngine(DistEngineOptions options)
    : options_(std::move(options)),
      cluster_(ClusterOptions{options_.worker_binary, options_.worker_env}),
      pool_(options_.dispatch_threads),
      scheduler_(pool_, options_.scheduler) {
  EVM_CHECK_MSG(options_.workers >= 1, "DistEngine needs at least 1 worker");
  common::MutexLock lock(workers_mutex_);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_.push_back(cluster_.Spawn());
  }
}

DistEngine::~DistEngine() { cluster_.ShutdownAll(); }

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
  common::MutexLock lock(workers_mutex_);
  return workers_;
}

WorkerId DistEngine::PickLiveWorker(const std::string& job, std::size_t index,
                                    int attempt) const {
  common::MutexLock lock(workers_mutex_);
  return PickWorker(workers_, job, index, attempt);
}

void DistEngine::OnWorkerFailure(WorkerId dead) {
  common::MutexLock lock(workers_mutex_);
  const auto it = std::find(workers_.begin(), workers_.end(), dead);
  if (it == workers_.end()) return;  // another attempt already replaced it
  workers_.erase(it);
  cluster_.Kill(dead);  // reap + close the channel so callers fail fast
  workers_.push_back(cluster_.Spawn());
}

std::vector<Bytes> DistEngine::RunTasks(const std::string& job,
                                        const std::string& kind,
                                        const std::vector<Bytes>& payloads) {
  std::vector<Bytes> results(payloads.size());
  std::vector<TaskFn> tasks;
  tasks.reserve(payloads.size());
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    tasks.push_back([this, &job, &kind, &payloads, &results,
                     i](const AttemptContext& ctx) -> AttemptStatus {
      const WorkerId target = PickLiveWorker(job, i, ctx.attempt());
      ExecTaskRequest request;
      request.kind = kind;
      request.job = job;
      request.task = i;
      request.attempt = static_cast<std::uint64_t>(ctx.attempt());
      request.payload = payloads[i];
      Bytes out;
      try {
        out = CallWorker(target, Method::kExecTask,
                         EncodeValue<ExecTaskRequest>(request));
      } catch (const RpcError&) {
        // Transport failure = worker death: replace the worker, requeue
        // this attempt through the scheduler's retry/backoff path.
        // Application errors (evm::Error) propagate and fail the job — they
        // are deterministic, retrying cannot help.
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

}  // namespace evm::dist
