#pragma once
// Length-prefixed RPC framing over local Unix-domain stream sockets — the
// transport boundary of the multi-process engine (DESIGN.md §16).
//
// The paper's substitution table swaps Spark's 14-node cluster for threads;
// this layer swaps the threads back out for processes. A frame is
//
//   [u32 payload length][u8 code][payload bytes]
//
// with the length and every payload field encoded by the same BinaryWriter /
// Codec<> machinery the MapReduce shuffle uses (common/serde.hpp,
// mapreduce/codec.hpp), so anything crossing the process boundary is plain
// bytes — exactly the contract the shuffle already imposes in-process.
//
// Requests carry a Method code, responses an RpcStatus code. Calls are
// strictly request/response on one connected socket; RpcChannel serializes
// concurrent callers with an internal mutex (the peer worker is
// single-threaded, so pipelining would buy nothing). Receives poll with a
// deadline: a peer that neither answers nor closes within the timeout is
// reported as RpcError{kTimeout} — the driver treats that as a missed
// heartbeat and declares the worker dead.

#include <chrono>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"

namespace evm::dist {

using Bytes = std::vector<unsigned char>;

/// Largest payload length a frame header may declare. A longer one is a
/// corrupted length prefix, not a payload: the biggest legitimate payloads
/// (encoded scenario lists and match results) stay far below it.
inline constexpr std::uint32_t kMaxFrame = 1u << 30;

/// Request codes understood by a worker's serve loop (worker.cpp). The
/// values are the wire format: a retired code is not reused.
enum class Method : std::uint8_t {
  kPing = 0,       ///< liveness probe; echoes the payload
  kExecTask = 1,   ///< run a registered task kind (task_registry.hpp)
  kShutdown = 7,   ///< finish the serve loop and exit cleanly
};

/// Response codes.
enum class RpcStatus : std::uint8_t {
  kOk = 0,
  kError = 1,          ///< handler failed; payload is a message string
  kUnknownMethod = 2,  ///< method byte not recognised
};

/// Why an RPC failed at the transport level (as opposed to an application
/// RpcStatus::kError carried in a well-formed response).
enum class RpcFailure {
  kClosed,   ///< peer hung up (worker death shows up here as EOF/EPIPE)
  kTimeout,  ///< no response within the deadline (missed heartbeat)
  kProtocol, ///< malformed frame
};

class RpcError : public std::runtime_error {
 public:
  RpcError(RpcFailure failure, const std::string& what)
      : std::runtime_error(what), failure_(failure) {}
  [[nodiscard]] RpcFailure failure() const noexcept { return failure_; }

 private:
  RpcFailure failure_;
};

/// One decoded frame: the code byte plus the payload bytes.
struct Frame {
  std::uint8_t code{0};
  Bytes payload;
};

/// Owns one end of a connected SOCK_STREAM Unix-domain socket (from
/// socketpair(); see cluster.cpp) and speaks the frame protocol on it.
class RpcChannel {
 public:
  /// Takes ownership of `fd`; the channel closes it on destruction.
  explicit RpcChannel(int fd) noexcept : fd_(fd) {}
  ~RpcChannel();
  RpcChannel(const RpcChannel&) = delete;
  RpcChannel& operator=(const RpcChannel&) = delete;

  /// Client side: sends a request and blocks for the response. Throws
  /// RpcError on transport failure (peer death, deadline). A zero timeout
  /// waits forever.
  [[nodiscard]] Frame Call(Method method, const Bytes& payload,
                           std::chrono::milliseconds timeout)
      EVM_EXCLUDES(mutex_);

  /// Server side: blocks for the next request frame; nullopt on orderly
  /// close. Throws RpcError on protocol violations. Single-threaded use
  /// only (the worker serve loop).
  [[nodiscard]] std::optional<Frame> RecvRequest();

  /// Server side: sends one response frame.
  void SendResponse(RpcStatus status, const Bytes& payload);

  /// Closes the socket early (subsequent calls fail with kClosed).
  void Close() EVM_EXCLUDES(mutex_);

  [[nodiscard]] int fd() const noexcept { return fd_; }

 private:
  void SendFrame(std::uint8_t code, const Bytes& payload);
  [[nodiscard]] std::optional<Frame> RecvFrame(
      std::chrono::milliseconds timeout);

  /// Serializes request/response pairs from concurrent driver threads.
  common::Mutex mutex_;
  int fd_;
};

}  // namespace evm::dist
