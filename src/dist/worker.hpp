#pragma once
// Worker-process serve loop: a task-kind executor behind an RPC socket.
//
// A worker is deliberately dumb. It holds a derived-state cache and the
// task-kind registry, and it answers one request at a time on one socket.
// All placement, retry and heartbeat intelligence lives in the driver
// (dist_engine.hpp) — the worker's only failure-handling duty is to die
// loudly, which the kill-injection knob (EVM_MR_INJECT_WORKER_KILLS)
// exercises on purpose.

#include <cstdint>

#include "dist/rpc.hpp"
#include "dist/cluster.hpp"
#include "dist/task_registry.hpp"

namespace evm::dist {

struct WorkerOptions {
  WorkerId id{0};
  /// Probability of `_exit`-ing instead of executing a task attempt. Drawn
  /// from a deterministic schedule keyed by (kill_seed, job, task, attempt)
  /// — the same coordinates as the in-process engine's failure injection —
  /// so a given seed produces the same kill sites on every run, and a
  /// killed attempt's retry draws fresh.
  double kill_prob{0.0};
  std::uint64_t kill_seed{0};
};

/// Serves requests on `channel` until kShutdown or orderly peer close.
/// Handler exceptions become RpcStatus::kError responses; transport errors
/// propagate (the worker main lets them terminate the process — a dead
/// driver leaves nothing worth serving).
void ServeWorker(RpcChannel& channel, const WorkerOptions& options);

}  // namespace evm::dist
