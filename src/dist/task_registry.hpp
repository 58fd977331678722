#pragma once
// Named task kinds — the remote-execution vocabulary of the worker process.
//
// A TaskFn (mapreduce/task.hpp) is a closure and cannot cross a process
// boundary; what can cross is a *name* plus encoded arguments. Both the
// driver and the evm_worker binary link this registry and register the same
// kinds at startup (builtin_kinds.cpp), so an ExecTask request is just
// (kind, payload bytes) and the response is the handler's output bytes. A
// handler must be a pure function of its payload (the env cache holds only
// state derived from payloads): the driver retries attempts on other
// workers after a death, and byte-identical output across attempts is what
// keeps job output independent of the failure schedule.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/flat_map.hpp"

namespace evm::dist {

/// Mutable per-worker state a task kind may use: a keyed cache for
/// expensive derived state (regenerated datasets, feature galleries). The
/// worker serve loop is single-threaded, so handlers access it without
/// locking.
struct WorkerEnv {
  /// Opaque cache slots keyed by a caller-chosen hash (e.g. of an encoded
  /// dataset config). GetOrCreate returns the existing value or stores the
  /// factory's result.
  template <typename T>
  std::shared_ptr<T> GetOrCreate(std::uint64_t key,
                                 const std::function<std::shared_ptr<T>()>&
                                     factory) {
    std::shared_ptr<void>& slot = cache_[key];
    if (slot == nullptr) slot = factory();
    return std::static_pointer_cast<T>(slot);
  }

 private:
  common::FlatMap<std::uint64_t, std::shared_ptr<void>> cache_;
};

/// Handler for one task kind: decodes its arguments from `payload`, returns
/// encoded output bytes. Throwing marks the attempt failed (the driver
/// retries within the scheduler's attempt budget).
using TaskKindFn = std::function<std::vector<unsigned char>(
    const std::vector<unsigned char>& payload, WorkerEnv& env)>;

/// Registers a kind (process-global). Call only during startup, before any
/// serving or dispatch; re-registering a name replaces the handler.
void RegisterTaskKind(const std::string& kind, TaskKindFn fn);

/// Looks a kind up; nullptr when unknown.
[[nodiscard]] const TaskKindFn* FindTaskKind(const std::string& kind);

/// Registered kind names, sorted (diagnostics).
[[nodiscard]] std::vector<std::string> ListTaskKinds();

/// Registers every built-in kind (match filter stage, bench workloads, test
/// helpers). Idempotent; called by the worker main and by drivers that
/// execute kinds locally in tests.
void RegisterBuiltinTaskKinds();

}  // namespace evm::dist
