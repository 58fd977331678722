#include "dist/rpc.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace evm::dist {
namespace {

/// Writes all of `data` with MSG_NOSIGNAL (a dead peer must surface as
/// EPIPE, not a process-killing SIGPIPE). Throws RpcError on failure.
void SendAll(int fd, const unsigned char* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw RpcError(RpcFailure::kClosed,
                     std::string("rpc send failed: ") + std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
}

/// Reads exactly `size` bytes, polling against `deadline` (nullopt = wait
/// forever). Returns false on clean EOF at a frame boundary (start == true
/// and no bytes read yet); throws on timeout, mid-frame EOF and errors.
bool RecvAll(int fd, unsigned char* data, std::size_t size, bool at_boundary,
             const std::optional<std::chrono::steady_clock::time_point>&
                 deadline) {
  std::size_t got = 0;
  while (got < size) {
    if (deadline) {
      const auto now = std::chrono::steady_clock::now();
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          *deadline - now);
      if (left.count() <= 0) {
        throw RpcError(RpcFailure::kTimeout, "rpc receive deadline exceeded");
      }
      struct pollfd pfd{fd, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
      if (ready < 0) {
        if (errno == EINTR) continue;
        throw RpcError(RpcFailure::kClosed,
                       std::string("rpc poll failed: ") + std::strerror(errno));
      }
      if (ready == 0) continue;  // re-check the deadline
    }
    const ssize_t n = ::recv(fd, data + got, size - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw RpcError(RpcFailure::kClosed,
                     std::string("rpc recv failed: ") + std::strerror(errno));
    }
    if (n == 0) {
      if (at_boundary && got == 0) return false;  // orderly close
      throw RpcError(RpcFailure::kClosed, "peer closed mid-frame");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

std::uint32_t DecodeU32(const unsigned char* buf) noexcept {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | buf[i];
  return v;
}

void EncodeU32(std::uint32_t v, unsigned char* buf) noexcept {
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<unsigned char>(v >> (8 * i));
}

}  // namespace

RpcChannel::~RpcChannel() { Close(); }

void RpcChannel::Close() {
  common::MutexLock lock(mutex_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void RpcChannel::SendFrame(std::uint8_t code, const Bytes& payload) {
  if (fd_ < 0) throw RpcError(RpcFailure::kClosed, "channel already closed");
  unsigned char header[5];
  EncodeU32(static_cast<std::uint32_t>(payload.size()), header);
  header[4] = code;
  SendAll(fd_, header, sizeof(header));
  if (!payload.empty()) SendAll(fd_, payload.data(), payload.size());
}

std::optional<Frame> RpcChannel::RecvFrame(std::chrono::milliseconds timeout) {
  if (fd_ < 0) throw RpcError(RpcFailure::kClosed, "channel already closed");
  std::optional<std::chrono::steady_clock::time_point> deadline;
  if (timeout.count() > 0) {
    deadline = std::chrono::steady_clock::now() + timeout;
  }
  unsigned char header[5];
  if (!RecvAll(fd_, header, sizeof(header), /*at_boundary=*/true, deadline)) {
    return std::nullopt;
  }
  const std::uint32_t length = DecodeU32(header);
  if (length > kMaxFrame) {
    throw RpcError(RpcFailure::kProtocol, "frame length prefix out of range");
  }
  Frame frame;
  frame.code = header[4];
  // The payload grows by at most kReadStep ahead of the bytes actually
  // received, so a corrupt length prefix followed by a hang-up costs one
  // step, not a zero-filled buffer of the declared size.
  constexpr std::size_t kReadStep = std::size_t{1} << 20;
  while (frame.payload.size() < length) {
    const std::size_t offset = frame.payload.size();
    const std::size_t step = std::min<std::size_t>(kReadStep, length - offset);
    frame.payload.resize(offset + step);
    RecvAll(fd_, frame.payload.data() + offset, step, /*at_boundary=*/false,
            deadline);
  }
  return frame;
}

Frame RpcChannel::Call(Method method, const Bytes& payload,
                       std::chrono::milliseconds timeout) {
  common::MutexLock lock(mutex_);
  SendFrame(static_cast<std::uint8_t>(method), payload);
  std::optional<Frame> response = RecvFrame(timeout);
  if (!response) {
    throw RpcError(RpcFailure::kClosed, "peer closed before responding");
  }
  return std::move(*response);
}

std::optional<Frame> RpcChannel::RecvRequest() {
  // Workers block indefinitely between requests: an idle worker's liveness
  // is the driver's heartbeat problem, not the worker's.
  return RecvFrame(std::chrono::milliseconds::zero());
}

void RpcChannel::SendResponse(RpcStatus status, const Bytes& payload) {
  SendFrame(static_cast<std::uint8_t>(status), payload);
}

}  // namespace evm::dist
