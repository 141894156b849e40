#include "transport/soft_rdma.h"

#include <gtest/gtest.h>

#include <thread>

namespace jbs::net::verbs {
namespace {

/// Test fixture wiring up the full Fig. 6 handshake: server listens on an
/// event channel, client rdma_connects, server rdma_accepts.
class SoftRdmaTest : public ::testing::Test {
 protected:
  struct Side {
    ProtectionDomain pd;
    CompletionQueue send_cq;
    CompletionQueue recv_cq;
    std::unique_ptr<QueuePair> qp;
  };

  void Establish() {
    ASSERT_TRUE(server_.Listen().ok());
    // Client connects from another thread (rdma_connect blocks until the
    // accept reply).
    std::thread client_thread([&] {
      auto qp = RdmaConnect("127.0.0.1", server_.port(), &client_.pd,
                            &client_.send_cq, &client_.recv_cq);
      ASSERT_TRUE(qp.ok());
      client_.qp = std::move(qp).value();
    });
    auto event = channel_.WaitEvent();
    ASSERT_TRUE(event.has_value());
    ASSERT_EQ(event->type, CmEventType::kConnectRequest);
    auto qp = server_.Accept(event->request_id, &server_side_.pd,
                             &server_side_.send_cq, &server_side_.recv_cq);
    ASSERT_TRUE(qp.ok());
    server_side_.qp = std::move(qp).value();
    // ESTABLISHED surfaces on the server's event channel.
    auto established = channel_.WaitEvent();
    ASSERT_TRUE(established.has_value());
    EXPECT_EQ(established->type, CmEventType::kEstablished);
    client_thread.join();
    ASSERT_NE(client_.qp, nullptr);
  }

  /// Registers a buffer and posts it for receive.
  static std::vector<uint8_t> PostBuffer(Side& side, uint64_t wr_id,
                                         size_t size) {
    std::vector<uint8_t> buffer(size);
    MemoryRegion mr = side.pd.Register(buffer.data(), buffer.size());
    EXPECT_TRUE(side.qp->PostRecv(wr_id, mr).ok());
    return buffer;
  }

  EventChannel channel_;
  RdmaServer server_{&channel_};
  Side client_;
  Side server_side_;
};

TEST_F(SoftRdmaTest, HandshakeEstablishesBothEnds) {
  Establish();
  EXPECT_EQ(client_.qp->state(), QueuePair::State::kRts);
  EXPECT_EQ(server_side_.qp->state(), QueuePair::State::kRts);
}

TEST_F(SoftRdmaTest, SendLandsInPostedRecvBuffer) {
  Establish();
  auto buffer = PostBuffer(server_side_, /*wr_id=*/42, 1024);
  const std::string payload = "segment bytes";
  ASSERT_TRUE(client_.qp
                  ->PostSend(7, /*msg_type=*/5,
                             {reinterpret_cast<const uint8_t*>(payload.data()),
                              payload.size()})
                  .ok());
  // Send completion on the client.
  auto send_wc = client_.send_cq.WaitPoll();
  ASSERT_TRUE(send_wc.has_value());
  EXPECT_EQ(send_wc->wr_id, 7u);
  EXPECT_EQ(send_wc->status, WcStatus::kSuccess);
  // Recv completion on the server, data placed directly in the buffer.
  auto recv_wc = server_side_.recv_cq.WaitPoll();
  ASSERT_TRUE(recv_wc.has_value());
  EXPECT_EQ(recv_wc->wr_id, 42u);
  EXPECT_EQ(recv_wc->opcode, WcOpcode::kRecv);
  EXPECT_EQ(recv_wc->msg_type, 5);
  EXPECT_EQ(recv_wc->byte_len, payload.size());
  EXPECT_EQ(std::string(buffer.begin(),
                        buffer.begin() + static_cast<long>(payload.size())),
            payload);
}

TEST_F(SoftRdmaTest, UnregisteredBufferRejected) {
  Establish();
  std::vector<uint8_t> buffer(128);
  MemoryRegion fake;
  fake.addr = buffer.data();
  fake.length = buffer.size();
  fake.lkey = 9999;
  EXPECT_FALSE(server_side_.qp->PostRecv(1, fake).ok());
}

TEST_F(SoftRdmaTest, OversizedMessageCompletesWithLengthError) {
  Establish();
  auto small = PostBuffer(server_side_, 1, 8);
  std::vector<uint8_t> big(64, 0xAB);
  ASSERT_TRUE(client_.qp->PostSend(2, 0, big).ok());
  auto wc = server_side_.recv_cq.WaitPoll();
  ASSERT_TRUE(wc.has_value());
  EXPECT_EQ(wc->status, WcStatus::kLocalLengthError);
  // The QP stays usable: next message with an adequate buffer succeeds.
  auto ok_buffer = PostBuffer(server_side_, 3, 128);
  ASSERT_TRUE(client_.qp->PostSend(4, 0, big).ok());
  auto wc2 = server_side_.recv_cq.WaitPoll();
  ASSERT_TRUE(wc2.has_value());
  EXPECT_EQ(wc2->status, WcStatus::kSuccess);
  EXPECT_EQ(wc2->wr_id, 3u);
}

TEST_F(SoftRdmaTest, SenderBlocksUntilRecvPostedRnrSemantics) {
  Establish();
  const std::string payload = "late buffer";
  ASSERT_TRUE(client_.qp
                  ->PostSend(1, 0,
                             {reinterpret_cast<const uint8_t*>(payload.data()),
                              payload.size()})
                  .ok());
  // No recv posted yet: nothing should complete on the server.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(server_side_.recv_cq.depth(), 0u);
  auto buffer = PostBuffer(server_side_, 9, 1024);
  auto wc = server_side_.recv_cq.WaitPoll();
  ASSERT_TRUE(wc.has_value());
  EXPECT_EQ(wc->wr_id, 9u);
  EXPECT_EQ(wc->status, WcStatus::kSuccess);
}

TEST_F(SoftRdmaTest, DisconnectFlushesPostedRecvs) {
  Establish();
  auto b1 = PostBuffer(server_side_, 11, 64);
  auto b2 = PostBuffer(server_side_, 12, 64);
  client_.qp->Disconnect();
  auto wc1 = server_side_.recv_cq.WaitPoll();
  auto wc2 = server_side_.recv_cq.WaitPoll();
  ASSERT_TRUE(wc1.has_value());
  ASSERT_TRUE(wc2.has_value());
  EXPECT_EQ(wc1->status, WcStatus::kFlushed);
  EXPECT_EQ(wc2->status, WcStatus::kFlushed);
  EXPECT_NE(server_side_.qp->state(), QueuePair::State::kRts);
}

TEST_F(SoftRdmaTest, PostSendAfterDisconnectFails) {
  Establish();
  client_.qp->Disconnect();
  std::vector<uint8_t> data(4);
  EXPECT_FALSE(client_.qp->PostSend(1, 0, data).ok());
}

TEST_F(SoftRdmaTest, RejectClosesClient) {
  ASSERT_TRUE(server_.Listen().ok());
  StatusOr<std::unique_ptr<QueuePair>> client_result =
      Unavailable("not yet");
  std::thread client_thread([&] {
    client_result = RdmaConnect("127.0.0.1", server_.port(), &client_.pd,
                                &client_.send_cq, &client_.recv_cq);
  });
  auto event = channel_.WaitEvent();
  ASSERT_TRUE(event.has_value());
  ASSERT_TRUE(server_.Reject(event->request_id).ok());
  client_thread.join();
  EXPECT_FALSE(client_result.ok());
}

TEST_F(SoftRdmaTest, BidirectionalTraffic) {
  Establish();
  auto server_buf = PostBuffer(server_side_, 1, 256);
  auto client_buf = PostBuffer(client_, 2, 256);
  const std::string ping = "ping", pong = "pong";
  ASSERT_TRUE(client_.qp
                  ->PostSend(3, 1,
                             {reinterpret_cast<const uint8_t*>(ping.data()),
                              ping.size()})
                  .ok());
  auto wc = server_side_.recv_cq.WaitPoll();
  ASSERT_TRUE(wc.has_value() && wc->status == WcStatus::kSuccess);
  ASSERT_TRUE(server_side_.qp
                  ->PostSend(4, 2,
                             {reinterpret_cast<const uint8_t*>(pong.data()),
                              pong.size()})
                  .ok());
  auto wc2 = client_.recv_cq.WaitPoll();
  ASSERT_TRUE(wc2.has_value() && wc2->status == WcStatus::kSuccess);
  EXPECT_EQ(std::string(client_buf.begin(), client_buf.begin() + 4), "pong");
  EXPECT_EQ(wc->byte_len, 4u);
  EXPECT_EQ(wc2->byte_len, 4u);
}

TEST_F(SoftRdmaTest, ProtectionDomainValidatesSubRegions) {
  ProtectionDomain pd;
  std::vector<uint8_t> arena(1024);
  MemoryRegion mr = pd.Register(arena.data(), arena.size());
  EXPECT_TRUE(pd.Owns(mr));
  // A sub-region with the same lkey inside the registration is valid.
  MemoryRegion sub = mr;
  sub.addr = arena.data() + 100;
  sub.length = 100;
  EXPECT_TRUE(pd.Owns(sub));
  // Beyond the registration is not.
  MemoryRegion bad = mr;
  bad.length = 2048;
  EXPECT_FALSE(pd.Owns(bad));
}

}  // namespace
}  // namespace jbs::net::verbs
