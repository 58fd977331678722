#include "dist/worker.hpp"

#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "dist/codecs.hpp"

namespace evm::dist {
namespace {

/// Exit code for an injected kill: distinguishable from a crash (SIGSEGV)
/// and from a clean exit in the cluster's reaping diagnostics.
constexpr int kInjectedKillExit = 43;

void MaybeInjectKill(const WorkerOptions& options,
                     const ExecTaskRequest& req) {
  if (options.kill_prob <= 0.0) return;
  // HashName, not std::hash: the schedule must be identical across standard
  // libraries for the nightly soak's pinned seeds to mean anything.
  Rng rng(DeriveSeed(options.kill_seed ^ HashName(req.job),
                     "worker-kill", req.task * 1024 + req.attempt));
  if (rng.NextDouble() < options.kill_prob) {
    // _Exit, not exit: simulate a machine death, not a polite shutdown —
    // no atexit handlers, no flushing, the socket just goes EOF.
    std::_Exit(kInjectedKillExit);
  }
}

Bytes HandleExecTask(const WorkerOptions& options, WorkerEnv& env,
                     const Bytes& payload) {
  const auto req = DecodeValue<ExecTaskRequest>(payload);
  MaybeInjectKill(options, req);
  const TaskKindFn* fn = FindTaskKind(req.kind);
  if (fn == nullptr) {
    throw Error("unknown task kind '" + req.kind + "'");
  }
  return (*fn)(req.payload, env);
}

}  // namespace

void ServeWorker(RpcChannel& channel, const WorkerOptions& options) {
  WorkerEnv env;
  while (true) {
    std::optional<Frame> request = channel.RecvRequest();
    if (!request) return;  // driver closed its end
    const auto method = static_cast<Method>(request->code);
    if (method == Method::kShutdown) {
      channel.SendResponse(RpcStatus::kOk, {});
      return;
    }
    try {
      Bytes out;
      switch (method) {
        case Method::kPing:
          out = request->payload;
          break;
        case Method::kExecTask:
          out = HandleExecTask(options, env, request->payload);
          break;
        default: {
          const std::string what = "unknown method code";
          channel.SendResponse(RpcStatus::kUnknownMethod,
                               Bytes(what.begin(), what.end()));
          continue;
        }
      }
      channel.SendResponse(RpcStatus::kOk, out);
    } catch (const std::exception& e) {
      const std::string what = e.what();
      channel.SendResponse(RpcStatus::kError,
                           Bytes(what.begin(), what.end()));
    }
  }
}

}  // namespace evm::dist
