#pragma once
// Worker-process lifecycle: fork/exec, channels, reaping.
//
// Cluster owns the OS-level half of the transport boundary. It spawns
// evm_worker processes connected by socketpair(), hands out their RPC
// channels, and turns process exits back into facts the engine can use
// (Alive(), ExitStatus()). It makes no routing or retry decisions — that is
// DistEngine's job; Cluster will happily Spawn() a replacement worker and
// leave it to the caller to start sending it tasks.
//
// FD discipline: both socketpair ends are created close-on-exec, so a
// worker forked later never inherits an older sibling's channel (which
// would keep a killed worker's socket half-open and turn its death EOF into
// a hang). The child clears the flag only on its own fd between fork and
// exec.

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/annotations.hpp"
#include "common/flat_map.hpp"
#include "common/mutex.hpp"
#include "dist/rpc.hpp"

namespace evm::dist {

/// Dense worker id, assigned by Spawn() and never reused.
using WorkerId = std::uint32_t;

struct ClusterOptions {
  /// Path to the evm_worker binary (tests get it from the build via the
  /// EVM_WORKER_BIN compile definition or environment variable).
  std::string worker_binary;
  /// Extra environment for spawned workers, e.g. EVM_MR_INJECT_WORKER_KILLS
  /// — set per-worker so the driver process itself stays uninstrumented.
  std::vector<std::pair<std::string, std::string>> env;
};

class Cluster {
 public:
  explicit Cluster(ClusterOptions options) : options_(std::move(options)) {}
  /// Kills any still-running workers (SIGKILL) and reaps them.
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Forks and execs one worker; returns its id (dense, never reused).
  /// Throws evm::Error when the spawn fails.
  WorkerId Spawn() EVM_EXCLUDES(mutex_);

  /// The worker's RPC channel; nullptr for unknown ids. The channel stays
  /// valid (shared_ptr) even if the worker is killed concurrently — calls
  /// on it then fail with RpcError, which is the death signal the engine
  /// consumes.
  [[nodiscard]] std::shared_ptr<RpcChannel> Channel(WorkerId id) const
      EVM_EXCLUDES(mutex_);

  /// SIGKILLs a worker and reaps it. Idempotent. The channel is closed, so
  /// in-flight and future calls fail fast instead of timing out.
  void Kill(WorkerId id) EVM_EXCLUDES(mutex_);

  /// Polite stop: kShutdown RPC, then reap. Falls back to Kill on any RPC
  /// failure. Returns true when the worker exited cleanly.
  bool Shutdown(WorkerId id) EVM_EXCLUDES(mutex_);

  /// Shuts down every live worker (used by the engine destructor).
  void ShutdownAll() EVM_EXCLUDES(mutex_);

  /// True while the worker process has not been observed to exit. A worker
  /// that died on its own (crash, injected kill) flips to false once the
  /// exit is reaped here or via Kill/Shutdown.
  [[nodiscard]] bool Alive(WorkerId id) EVM_EXCLUDES(mutex_);

  /// Exit status (waitpid semantics) once reaped; nullopt while running or
  /// for unknown ids.
  [[nodiscard]] std::optional<int> ExitStatus(WorkerId id) const
      EVM_EXCLUDES(mutex_);

  /// Ids of workers currently believed alive, ascending.
  [[nodiscard]] std::vector<WorkerId> LiveWorkers() EVM_EXCLUDES(mutex_);

 private:
  struct Proc {
    pid_t pid{-1};
    std::shared_ptr<RpcChannel> channel;
    bool reaped{false};
    int exit_status{0};
  };

  /// Non-blocking reap probe; updates Proc on exit. Returns liveness.
  bool ProbeLocked(Proc& proc) EVM_REQUIRES(mutex_);
  void ReapLocked(Proc& proc, bool block) EVM_REQUIRES(mutex_);

  ClusterOptions options_;
  mutable common::Mutex mutex_;
  common::FlatMap<std::uint64_t, Proc> procs_ EVM_GUARDED_BY(mutex_);
  WorkerId next_id_ EVM_GUARDED_BY(mutex_){0};
};

}  // namespace evm::dist
