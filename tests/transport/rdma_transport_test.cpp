#include "transport/rdma_transport.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

namespace jbs::net {
namespace {

Frame MakeFrame(uint8_t type, const std::string& payload) {
  Frame f;
  f.type = type;
  f.payload.assign(payload.begin(), payload.end());
  return f;
}

TEST(RdmaTransportTest, EchoRoundTrip) {
  auto transport = MakeSoftRdmaTransport();
  auto server = transport->CreateServer();
  ASSERT_TRUE(server.ok());
  ServerEndpoint::Handlers handlers;
  handlers.on_frame = [&](ConnId conn, Frame frame) {
    (*server)->SendAsync(conn, std::move(frame));
  };
  ASSERT_TRUE((*server)->Start(handlers).ok());
  auto conn = transport->Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE((*conn)->Send(MakeFrame(9, "over verbs")).ok());
  auto reply = (*conn)->Receive();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->type, 9);
  EXPECT_EQ(std::string(reply->payload.begin(), reply->payload.end()),
            "over verbs");
  (*server)->Stop();
}

TEST(RdmaTransportTest, FrameLargerThanBufferRejected) {
  RdmaTransportOptions options;
  options.buffer_size = 1024;
  auto transport = MakeSoftRdmaTransport(options);
  auto server = transport->CreateServer();
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start({}).ok());
  auto conn = transport->Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(conn.ok());
  Frame big;
  big.payload.resize(2048);
  EXPECT_FALSE((*conn)->Send(big).ok());  // must chunk to buffer size
  (*server)->Stop();
}

TEST(RdmaTransportTest, OversizedReceiveRingFailsDialAndAccept) {
  // 1 TiB x 1024 receive buffers fit size_t but no host's memory. Neither
  // side may attempt that arena: the dialer returns an error, and the
  // acceptor rejects the request so the dialer fails instead of hanging.
  RdmaTransportOptions huge;
  huge.buffer_size = size_t{1} << 40;
  huge.buffers_per_connection = 1024;
  auto normal = MakeSoftRdmaTransport();
  auto oversized = MakeSoftRdmaTransport(huge);

  auto server = normal->CreateServer();
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start({}).ok());
  auto dial = oversized->Connect("127.0.0.1", (*server)->port());
  ASSERT_FALSE(dial.ok());
  EXPECT_EQ(dial.status().code(), StatusCode::kInvalidArgument);
  (*server)->Stop();

  auto big_server = oversized->CreateServer();
  ASSERT_TRUE(big_server.ok());
  ASSERT_TRUE((*big_server)->Start({}).ok());
  auto rejected = normal->Connect("127.0.0.1", (*big_server)->port(),
                                  Deadline::AfterMs(5000));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable)
      << rejected.status().ToString();
  (*big_server)->Stop();
}

TEST(RdmaTransportTest, ManySmallFramesBothDirections) {
  RdmaTransportOptions options;
  options.buffer_size = 4096;
  options.buffers_per_connection = 4;  // forces flow-control reposting
  auto transport = MakeSoftRdmaTransport(options);
  auto server = transport->CreateServer();
  ASSERT_TRUE(server.ok());
  ServerEndpoint::Handlers handlers;
  handlers.on_frame = [&](ConnId conn, Frame frame) {
    (*server)->SendAsync(conn, std::move(frame));
  };
  ASSERT_TRUE((*server)->Start(handlers).ok());
  auto conn = transport->Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(conn.ok());
  constexpr int kFrames = 100;
  std::thread sender([&] {
    for (int i = 0; i < kFrames; ++i) {
      ASSERT_TRUE(
          (*conn)->Send(MakeFrame(1, "frame_" + std::to_string(i))).ok());
    }
  });
  for (int i = 0; i < kFrames; ++i) {
    auto reply = (*conn)->Receive();
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(std::string(reply->payload.begin(), reply->payload.end()),
              "frame_" + std::to_string(i));
  }
  sender.join();
  (*server)->Stop();
}

TEST(RdmaTransportTest, MultipleClients) {
  auto transport = MakeSoftRdmaTransport();
  auto server = transport->CreateServer();
  ASSERT_TRUE(server.ok());
  ServerEndpoint::Handlers handlers;
  handlers.on_frame = [&](ConnId conn, Frame frame) {
    (*server)->SendAsync(conn, std::move(frame));
  };
  ASSERT_TRUE((*server)->Start(handlers).ok());
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      auto conn = transport->Connect("127.0.0.1", (*server)->port());
      if (!conn.ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < 20; ++i) {
        const std::string msg = std::to_string(c * 100 + i);
        if (!(*conn)->Send(MakeFrame(2, msg)).ok()) {
          ++failures;
          return;
        }
        auto reply = (*conn)->Receive();
        if (!reply.ok() ||
            std::string(reply->payload.begin(), reply->payload.end()) !=
                msg) {
          ++failures;
          return;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  (*server)->Stop();
}

TEST(RdmaTransportTest, ServerStopUnblocksClient) {
  auto transport = MakeSoftRdmaTransport();
  auto server = transport->CreateServer();
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start({}).ok());
  auto conn = transport->Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(conn.ok());
  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    (*server)->Stop();
  });
  auto frame = (*conn)->Receive();
  EXPECT_FALSE(frame.ok());
  stopper.join();
}

}  // namespace
}  // namespace jbs::net
