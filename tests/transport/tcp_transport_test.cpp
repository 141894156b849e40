#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <future>
#include <thread>

#include "common/framing.h"
#include "transport/socket_util.h"
#include "transport/transport.h"

namespace jbs::net {
namespace {

Frame MakeFrame(uint8_t type, const std::string& payload) {
  Frame f;
  f.type = type;
  f.payload.assign(payload.begin(), payload.end());
  return f;
}

std::string PayloadStr(const Frame& f) {
  return {f.payload.begin(), f.payload.end()};
}

class TcpTransportTest : public ::testing::Test {
 protected:
  void SetUp() override { transport_ = MakeTcpTransport(); }
  std::unique_ptr<Transport> transport_;
};

TEST_F(TcpTransportTest, EchoServerRoundTrip) {
  auto server = transport_->CreateServer();
  ASSERT_TRUE(server.ok());
  ServerEndpoint::Handlers handlers;
  handlers.on_frame = [&](ConnId conn, Frame frame) {
    frame.type += 1;  // transform so we know the server saw it
    ASSERT_TRUE((*server)->SendAsync(conn, std::move(frame)).ok());
  };
  ASSERT_TRUE((*server)->Start(handlers).ok());
  ASSERT_NE((*server)->port(), 0);

  auto conn = transport_->Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE((*conn)->Send(MakeFrame(7, "hello shuffle")).ok());
  auto reply = (*conn)->Receive();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->type, 8);
  EXPECT_EQ(PayloadStr(*reply), "hello shuffle");
  (*server)->Stop();
}

TEST_F(TcpTransportTest, ManyFramesInOrder) {
  auto server = transport_->CreateServer();
  ASSERT_TRUE(server.ok());
  ServerEndpoint::Handlers handlers;
  handlers.on_frame = [&](ConnId conn, Frame frame) {
    (*server)->SendAsync(conn, std::move(frame));
  };
  ASSERT_TRUE((*server)->Start(handlers).ok());
  auto conn = transport_->Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(conn.ok());
  constexpr int kFrames = 200;
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_TRUE((*conn)->Send(MakeFrame(1, "msg_" + std::to_string(i))).ok());
  }
  for (int i = 0; i < kFrames; ++i) {
    auto reply = (*conn)->Receive();
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(PayloadStr(*reply), "msg_" + std::to_string(i));
  }
  (*server)->Stop();
}

TEST_F(TcpTransportTest, LargeFrame) {
  auto server = transport_->CreateServer();
  ASSERT_TRUE(server.ok());
  ServerEndpoint::Handlers handlers;
  handlers.on_frame = [&](ConnId conn, Frame frame) {
    (*server)->SendAsync(conn, std::move(frame));
  };
  ASSERT_TRUE((*server)->Start(handlers).ok());
  auto conn = transport_->Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(conn.ok());
  Frame big;
  big.type = 3;
  big.payload.resize(4 << 20);
  for (size_t i = 0; i < big.payload.size(); ++i) {
    big.payload[i] = static_cast<uint8_t>(i * 31);
  }
  ASSERT_TRUE((*conn)->Send(big).ok());
  auto reply = (*conn)->Receive();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->payload, big.payload);
  (*server)->Stop();
}

TEST_F(TcpTransportTest, MultipleConcurrentClients) {
  auto server = transport_->CreateServer();
  ASSERT_TRUE(server.ok());
  std::atomic<int> accepted{0};
  ServerEndpoint::Handlers handlers;
  handlers.on_connect = [&](ConnId) { ++accepted; };
  handlers.on_frame = [&](ConnId conn, Frame frame) {
    (*server)->SendAsync(conn, std::move(frame));
  };
  ASSERT_TRUE((*server)->Start(handlers).ok());

  constexpr int kClients = 8;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto conn = transport_->Connect("127.0.0.1", (*server)->port());
      if (!conn.ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < 50; ++i) {
        const std::string msg =
            "c" + std::to_string(c) + "_m" + std::to_string(i);
        if (!(*conn)->Send(MakeFrame(2, msg)).ok()) {
          ++failures;
          return;
        }
        auto reply = (*conn)->Receive();
        if (!reply.ok() || PayloadStr(*reply) != msg) {
          ++failures;
          return;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(accepted.load(), kClients);
  (*server)->Stop();
}

TEST_F(TcpTransportTest, ServerSeesDisconnect) {
  auto server = transport_->CreateServer();
  ASSERT_TRUE(server.ok());
  std::promise<void> disconnected;
  ServerEndpoint::Handlers handlers;
  handlers.on_disconnect = [&](ConnId) { disconnected.set_value(); };
  ASSERT_TRUE((*server)->Start(handlers).ok());
  {
    auto conn = transport_->Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(conn.ok());
    (*conn)->Close();
  }
  auto fut = disconnected.get_future();
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  (*server)->Stop();
}

TEST_F(TcpTransportTest, ConnectToClosedPortFails) {
  auto conn = transport_->Connect("127.0.0.1", 1);
  EXPECT_FALSE(conn.ok());
}

TEST_F(TcpTransportTest, ReceiveAfterServerStopFails) {
  auto server = transport_->CreateServer();
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start({}).ok());
  auto conn = transport_->Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(conn.ok());
  (*server)->Stop();
  auto frame = (*conn)->Receive();
  EXPECT_FALSE(frame.ok());
  EXPECT_FALSE((*conn)->alive());
}

TEST_F(TcpTransportTest, HalfClosedPeerStillDrainsReplies) {
  // A client may shutdown(SHUT_WR) after its last request while still
  // reading replies. The server must drain queued output to the
  // half-closed peer before tearing the connection down, not treat the
  // EOF as a full disconnect.
  auto server = transport_->CreateServer();
  ASSERT_TRUE(server.ok());
  ServerEndpoint::Handlers handlers;
  handlers.on_frame = [&](ConnId conn, Frame frame) {
    (*server)->SendAsync(conn, std::move(frame));
  };
  ASSERT_TRUE((*server)->Start(handlers).ok());

  auto fd = ConnectTcp("127.0.0.1", (*server)->port());
  ASSERT_TRUE(fd.ok());
  constexpr int kRequests = 3;
  std::vector<uint8_t> wire;
  for (int i = 0; i < kRequests; ++i) {
    EncodeFrame(MakeFrame(static_cast<uint8_t>(i), "drain me"), wire);
  }
  ASSERT_TRUE(SendAll(fd->get(), wire).ok());
  // Half-close: no more requests, but we still expect every reply.
  ASSERT_EQ(::shutdown(fd->get(), SHUT_WR), 0);

  FrameDecoder decoder;
  int got = 0;
  uint8_t buf[256];
  while (got < kRequests) {
    const ssize_t n = ::recv(fd->get(), buf, sizeof(buf), 0);
    ASSERT_GT(n, 0) << "server closed before draining replies";
    ASSERT_TRUE(decoder.Feed({buf, static_cast<size_t>(n)}).ok());
    while (auto frame = decoder.Next()) {
      EXPECT_EQ(frame->type, static_cast<uint8_t>(got));
      ++got;
    }
  }
  // After the drain the server closes its side: clean EOF, not a reset.
  const ssize_t eof = ::recv(fd->get(), buf, sizeof(buf), 0);
  EXPECT_EQ(eof, 0);
  (*server)->Stop();
}

}  // namespace
}  // namespace jbs::net
