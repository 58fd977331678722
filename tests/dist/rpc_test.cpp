#include "dist/rpc.hpp"

#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>

namespace evm::dist {
namespace {

using std::chrono::milliseconds;

/// A connected socket pair; each end wrapped in an RpcChannel.
struct ChannelPair {
  ChannelPair() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    client = std::make_unique<RpcChannel>(fds[0]);
    server = std::make_unique<RpcChannel>(fds[1]);
  }
  std::unique_ptr<RpcChannel> client;
  std::unique_ptr<RpcChannel> server;
};

/// Peak resident set size of this process, in KiB.
long MaxRssKb() {
  struct rusage usage{};
  EXPECT_EQ(::getrusage(RUSAGE_SELF, &usage), 0);
  return usage.ru_maxrss;
}

TEST(RpcTest, RoundTripPreservesCodeAndPayload) {
  ChannelPair pair;
  std::thread server([&] {
    std::optional<Frame> req = pair.server->RecvRequest();
    ASSERT_TRUE(req.has_value());
    EXPECT_EQ(req->code, static_cast<std::uint8_t>(Method::kExecTask));
    Bytes echoed = req->payload;
    echoed.push_back(0xff);
    pair.server->SendResponse(RpcStatus::kOk, echoed);
  });
  const Frame reply =
      pair.client->Call(Method::kExecTask, {1, 2, 3}, milliseconds(5000));
  server.join();
  EXPECT_EQ(reply.code, static_cast<std::uint8_t>(RpcStatus::kOk));
  EXPECT_EQ(reply.payload, (Bytes{1, 2, 3, 0xff}));
}

TEST(RpcTest, EmptyPayloadRoundTrips) {
  ChannelPair pair;
  std::thread server([&] {
    std::optional<Frame> req = pair.server->RecvRequest();
    ASSERT_TRUE(req.has_value());
    EXPECT_TRUE(req->payload.empty());
    pair.server->SendResponse(RpcStatus::kOk, {});
  });
  const Frame reply = pair.client->Call(Method::kPing, {}, milliseconds(5000));
  server.join();
  EXPECT_TRUE(reply.payload.empty());
}

TEST(RpcTest, LargePayloadRoundTrips) {
  // Bigger than any single socket buffer, so SendAll/RecvAll loop.
  ChannelPair pair;
  const Bytes big(1 << 20, 0xab);
  std::thread server([&] {
    std::optional<Frame> req = pair.server->RecvRequest();
    ASSERT_TRUE(req.has_value());
    pair.server->SendResponse(RpcStatus::kOk, req->payload);
  });
  const Frame reply =
      pair.client->Call(Method::kExecTask, big, milliseconds(10'000));
  server.join();
  EXPECT_EQ(reply.payload, big);
}

TEST(RpcTest, SilentPeerTimesOut) {
  ChannelPair pair;
  try {
    (void)pair.client->Call(Method::kPing, {}, milliseconds(50));
    FAIL() << "expected RpcError";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.failure(), RpcFailure::kTimeout);
  }
}

TEST(RpcTest, ClosedPeerFailsWithClosed) {
  ChannelPair pair;
  pair.server.reset();  // closes the server fd: EOF, not a timeout
  try {
    (void)pair.client->Call(Method::kPing, {}, milliseconds(5000));
    FAIL() << "expected RpcError";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.failure(), RpcFailure::kClosed);
  }
}

TEST(RpcTest, RecvRequestReturnsNulloptOnOrderlyClose) {
  ChannelPair pair;
  pair.client.reset();
  EXPECT_FALSE(pair.server->RecvRequest().has_value());
}

TEST(RpcTest, OversizedLengthPrefixIsProtocolError) {
  ChannelPair pair;
  // Hand-craft a frame header claiming a > 1 GiB payload.
  const unsigned char header[5] = {0xff, 0xff, 0xff, 0xff, 0};
  ASSERT_EQ(::send(pair.server->fd(), header, sizeof(header), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(header)));
  try {
    (void)pair.client->Call(Method::kPing, {}, milliseconds(5000));
    FAIL() << "expected RpcError";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.failure(), RpcFailure::kProtocol);
  }
}

TEST(RpcTest, TruncatedHugeFrameAllocatesOnlyWhatArrived) {
  ChannelPair pair;
  // A header declaring the largest legal payload, 16 payload bytes, then a
  // hang-up: the reader must fail without zero-filling the declared size.
  unsigned char frame[5 + 16] = {};
  for (int i = 0; i < 4; ++i) {
    frame[i] = static_cast<unsigned char>(kMaxFrame >> (8 * i));
  }
  ASSERT_EQ(::send(pair.client->fd(), frame, sizeof(frame), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(frame)));
  pair.client.reset();
  const long rss_before_kb = MaxRssKb();
  try {
    (void)pair.server->RecvRequest();
    FAIL() << "expected RpcError";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.failure(), RpcFailure::kClosed);
  }
  EXPECT_LT(MaxRssKb() - rss_before_kb, 64L * 1024);
}

TEST(RpcTest, CallAfterCloseFailsFast) {
  ChannelPair pair;
  pair.client->Close();
  try {
    (void)pair.client->Call(Method::kPing, {}, milliseconds(5000));
    FAIL() << "expected RpcError";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.failure(), RpcFailure::kClosed);
  }
}

}  // namespace
}  // namespace evm::dist
