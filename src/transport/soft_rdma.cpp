#include "transport/soft_rdma.h"

#include <sys/socket.h>

#include <algorithm>

#include "common/bytes.h"
#include "common/logging.h"

namespace jbs::net::verbs {

namespace {
// Handshake message types on the wire (distinct from application types,
// which travel in data messages).
constexpr uint8_t kMsgConnReq = 0xF1;
constexpr uint8_t kMsgConnAccept = 0xF2;
constexpr uint8_t kMsgData = 0xF3;

// Handshake private data is tiny; anything bigger is a malformed (or
// hostile) dial and fails the connection before any allocation.
constexpr uint32_t kMaxPrivateData = 1 * 1024 * 1024;

// Wire: u32 payload_len | u8 wire_type | u8 app_type | payload. Gather
// form: the payload is head ++ tail, sent with one vectored call under the
// lock so a frame header and a borrowed buffer never interleave with other
// writers — and never meet in an intermediate copy.
Status SendMessageV(int fd, Mutex& mu, uint8_t wire_type, uint8_t app_type,
                    std::span<const uint8_t> head,
                    std::span<const uint8_t> tail) EXCLUDES(mu) {
  uint8_t header[6];
  const uint32_t len = static_cast<uint32_t>(head.size() + tail.size());
  header[0] = static_cast<uint8_t>(len >> 24);
  header[1] = static_cast<uint8_t>(len >> 16);
  header[2] = static_cast<uint8_t>(len >> 8);
  header[3] = static_cast<uint8_t>(len);
  header[4] = wire_type;
  header[5] = app_type;
  const std::span<const uint8_t> bufs[] = {{header, 6}, head, tail};
  MutexLock lock(mu);
  return SendAllV(fd, bufs);
}

Status SendMessage(int fd, Mutex& mu, uint8_t wire_type, uint8_t app_type,
                   std::span<const uint8_t> payload) EXCLUDES(mu) {
  return SendMessageV(fd, mu, wire_type, app_type, payload, {});
}

// Discards `length` wire bytes in bounded chunks (stay in sync after a
// local length error without trusting the announced size for allocation).
Status DrainWire(int fd, uint64_t length) {
  uint8_t sink[64 * 1024];
  while (length > 0) {
    const size_t want = static_cast<size_t>(
        std::min<uint64_t>(sizeof(sink), length));
    JBS_RETURN_IF_ERROR(RecvAll(fd, {sink, want}));
    length -= want;
  }
  return Status::Ok();
}
}  // namespace

MemoryRegion ProtectionDomain::Register(void* addr, size_t length) {
  MutexLock lock(mu_);
  MemoryRegion mr;
  mr.addr = static_cast<uint8_t*>(addr);
  mr.length = length;
  mr.lkey = next_lkey_++;
  regions_[mr.lkey] = {mr.addr, mr.length};
  return mr;
}

bool ProtectionDomain::Owns(const MemoryRegion& mr) const {
  MutexLock lock(mu_);
  auto it = regions_.find(mr.lkey);
  if (it == regions_.end()) return false;
  // The MR must sit inside the registered region.
  return mr.addr >= it->second.first &&
         mr.addr + mr.length <= it->second.first + it->second.second;
}

size_t ProtectionDomain::registered_count() const {
  MutexLock lock(mu_);
  return regions_.size();
}

std::optional<WorkCompletion> CompletionQueue::Poll() {
  MutexLock lock(mu_);
  if (completions_.empty()) return std::nullopt;
  WorkCompletion wc = completions_.front();
  completions_.pop_front();
  return wc;
}

std::optional<WorkCompletion> CompletionQueue::WaitPoll() {
  return WaitPoll(Deadline());
}

std::optional<WorkCompletion> CompletionQueue::WaitPoll(
    const Deadline& deadline) {
  MutexLock lock(mu_);
  while (!shutdown_ && completions_.empty()) {
    if (deadline.infinite()) {
      cv_.Wait(lock);
    } else if (cv_.WaitUntil(lock, deadline.time()) ==
                   std::cv_status::timeout &&
               !shutdown_ && completions_.empty()) {
      return std::nullopt;  // timed out; caller checks deadline.expired()
    }
  }
  if (completions_.empty()) return std::nullopt;  // shutdown
  WorkCompletion wc = completions_.front();
  completions_.pop_front();
  return wc;
}

void CompletionQueue::Push(WorkCompletion wc) {
  {
    MutexLock lock(mu_);
    completions_.push_back(wc);
  }
  cv_.NotifyOne();
}

void CompletionQueue::Shutdown() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  cv_.NotifyAll();
}

size_t CompletionQueue::depth() const {
  MutexLock lock(mu_);
  return completions_.size();
}

QueuePair::QueuePair(Fd socket, ProtectionDomain* pd,
                     CompletionQueue* send_cq, CompletionQueue* recv_cq,
                     size_t max_message_bytes)
    : socket_(std::move(socket)),
      pd_(pd),
      send_cq_(send_cq),
      recv_cq_(recv_cq),
      max_message_bytes_(max_message_bytes) {
  receiver_ = std::thread([this] { ReceiverLoop(); });
}

QueuePair::~QueuePair() {
  Disconnect();
  if (receiver_.joinable()) receiver_.join();
}

Status QueuePair::PostRecv(uint64_t wr_id, MemoryRegion buffer) {
  if (!pd_->Owns(buffer)) {
    return InvalidArgument("recv buffer not in protection domain");
  }
  {
    MutexLock lock(mu_);
    if (state_ != State::kRts) return Unavailable("QP not in RTS");
    posted_recvs_.push_back({wr_id, buffer});
  }
  recv_posted_cv_.NotifyOne();
  return Status::Ok();
}

Status QueuePair::PostSend(uint64_t wr_id, uint8_t msg_type,
                           std::span<const uint8_t> payload) {
  return PostSend(wr_id, msg_type, payload, {});
}

Status QueuePair::PostSend(uint64_t wr_id, uint8_t msg_type,
                           std::span<const uint8_t> head,
                           std::span<const uint8_t> tail) {
  {
    MutexLock lock(mu_);
    if (state_ != State::kRts) return Unavailable("QP not in RTS");
  }
  Status st =
      SendMessageV(socket_.get(), send_mu_, kMsgData, msg_type, head, tail);
  WorkCompletion wc;
  wc.wr_id = wr_id;
  wc.opcode = WcOpcode::kSend;
  wc.byte_len = static_cast<uint32_t>(head.size() + tail.size());
  wc.msg_type = msg_type;
  if (st.ok()) {
    wc.status = WcStatus::kSuccess;
  } else {
    MutexLock lock(mu_);
    state_ = State::kError;
    wc.status = WcStatus::kError;
  }
  send_cq_->Push(wc);
  return st;
}

std::optional<QueuePair::PostedRecv> QueuePair::TakePostedRecv() {
  MutexLock lock(mu_);
  while (state_ == State::kRts && posted_recvs_.empty()) {
    recv_posted_cv_.Wait(lock);
  }
  if (posted_recvs_.empty()) return std::nullopt;
  PostedRecv posted = posted_recvs_.front();
  posted_recvs_.pop_front();
  return posted;
}

void QueuePair::ReceiverLoop() {
  for (;;) {
    uint8_t header[6];
    if (!RecvAll(socket_.get(), header).ok()) break;
    const uint32_t length = GetU32(header);
    const uint8_t wire_type = header[4];
    const uint8_t app_type = header[5];
    if (length > max_message_bytes_) {
      // Peer-announced length beyond the cap: fail the connection rather
      // than attempt the allocation (the length prefix is untrusted).
      break;
    }
    if (wire_type != kMsgData) break;  // protocol violation

    // RNR semantics: block until the application posts a buffer. TCP
    // backpressure stalls the sender meanwhile, like RNR NAK + retry.
    auto posted = TakePostedRecv();
    if (!posted) break;

    WorkCompletion wc;
    wc.wr_id = posted->wr_id;
    wc.opcode = WcOpcode::kRecv;
    wc.byte_len = length;
    wc.msg_type = app_type;
    if (length > posted->buffer.length) {
      // Drain the wire (bounded chunks, no length-sized allocation) to
      // stay in sync, then report the length error.
      if (!DrainWire(socket_.get(), length).ok()) break;
      wc.status = WcStatus::kLocalLengthError;
      recv_cq_->Push(wc);
      continue;
    }
    if (length > 0 &&
        !RecvAll(socket_.get(), {posted->buffer.addr, length}).ok()) {
      wc.status = WcStatus::kError;
      recv_cq_->Push(wc);
      break;
    }
    wc.status = WcStatus::kSuccess;
    recv_cq_->Push(wc);
  }
  // Flush outstanding receives (ibv flush-error semantics on QP teardown).
  std::deque<PostedRecv> orphans;
  {
    MutexLock lock(mu_);
    if (state_ == State::kRts) state_ = State::kClosed;
    orphans.swap(posted_recvs_);
  }
  recv_posted_cv_.NotifyAll();
  for (const PostedRecv& posted : orphans) {
    WorkCompletion wc;
    wc.wr_id = posted.wr_id;
    wc.opcode = WcOpcode::kRecv;
    wc.status = WcStatus::kFlushed;
    recv_cq_->Push(wc);
  }
}

void QueuePair::Disconnect() {
  {
    MutexLock lock(mu_);
    if (state_ == State::kClosed) return;
    state_ = State::kClosed;
  }
  ::shutdown(socket_.get(), SHUT_RDWR);
  recv_posted_cv_.NotifyAll();
}

QueuePair::State QueuePair::state() const {
  MutexLock lock(mu_);
  return state_;
}

size_t QueuePair::posted_recvs() const {
  MutexLock lock(mu_);
  return posted_recvs_.size();
}

std::optional<CmEvent> EventChannel::WaitEvent() {
  MutexLock lock(mu_);
  while (!shutdown_ && events_.empty()) cv_.Wait(lock);
  if (events_.empty()) return std::nullopt;
  CmEvent event = events_.front();
  events_.pop_front();
  return event;
}

std::optional<CmEvent> EventChannel::PollEvent() {
  MutexLock lock(mu_);
  if (events_.empty()) return std::nullopt;
  CmEvent event = events_.front();
  events_.pop_front();
  return event;
}

void EventChannel::Push(CmEvent event) {
  {
    MutexLock lock(mu_);
    events_.push_back(event);
  }
  cv_.NotifyOne();
}

void EventChannel::Shutdown() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  cv_.NotifyAll();
}

RdmaServer::~RdmaServer() { Stop(); }

Status RdmaServer::Listen(uint16_t port) {
  auto listener = ListenTcp(port);
  JBS_RETURN_IF_ERROR(listener.status());
  listen_fd_ = std::move(listener->first);
  port_ = listener->second;
  running_.store(true);
  listener_ = std::thread([this] { ListenLoop(); });
  return Status::Ok();
}

void RdmaServer::ListenLoop() {
  while (running_.load()) {
    const int raw = ::accept(listen_fd_.get(), nullptr, nullptr);
    if (raw < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed
    }
    Fd conn(raw);
    (void)SetNoDelay(conn.get());
    // The connection request carries a kMsgConnReq "private data" message.
    uint8_t header[6];
    if (!RecvAll(conn.get(), header).ok() || header[4] != kMsgConnReq) {
      continue;  // not a well-formed rdma_connect
    }
    const uint32_t private_len = GetU32(header);
    if (private_len > kMaxPrivateData) continue;  // hostile dial; drop it
    if (private_len > 0) {
      std::vector<uint8_t> private_data(private_len);
      if (!RecvAll(conn.get(), private_data).ok()) continue;
    }
    uint64_t request_id;
    {
      MutexLock lock(mu_);
      request_id = next_request_id_++;
      pending_[request_id] = std::move(conn);
    }
    channel_->Push({CmEventType::kConnectRequest, request_id});
  }
}

StatusOr<std::unique_ptr<QueuePair>> RdmaServer::Accept(
    uint64_t request_id, ProtectionDomain* pd, CompletionQueue* send_cq,
    CompletionQueue* recv_cq, size_t max_message_bytes) {
  Fd conn;
  {
    MutexLock lock(mu_);
    auto it = pending_.find(request_id);
    if (it == pending_.end()) {
      return NotFound("no pending connect request " +
                      std::to_string(request_id));
    }
    conn = std::move(it->second);
    pending_.erase(it);
  }
  // Accept-reply completes the handshake (Fig. 6's "Accept Reply" arrow).
  Mutex tmp_mu;
  JBS_RETURN_IF_ERROR(
      SendMessage(conn.get(), tmp_mu, kMsgConnAccept, 0, {}));
  channel_->Push({CmEventType::kEstablished, request_id});
  return std::make_unique<QueuePair>(std::move(conn), pd, send_cq, recv_cq,
                                     max_message_bytes);
}

Status RdmaServer::Reject(uint64_t request_id) {
  MutexLock lock(mu_);
  auto it = pending_.find(request_id);
  if (it == pending_.end()) {
    return NotFound("no pending connect request");
  }
  pending_.erase(it);  // closing the fd signals rejection
  return Status::Ok();
}

void RdmaServer::Stop() {
  if (!running_.exchange(false)) return;
  // shutdown() wakes the blocked accept(); the fd itself must stay alive
  // until the listener thread has observed the failure and exited.
  ::shutdown(listen_fd_.get(), SHUT_RDWR);
  if (listener_.joinable()) listener_.join();
  listen_fd_.Reset();
  MutexLock lock(mu_);
  pending_.clear();
}

StatusOr<std::unique_ptr<QueuePair>> RdmaConnect(
    const std::string& host, uint16_t port, ProtectionDomain* pd,
    CompletionQueue* send_cq, CompletionQueue* recv_cq,
    const Deadline& deadline, size_t max_message_bytes) {
  // alloc conn + rdma_connect.
  auto fd = ConnectTcp(host, port, deadline);
  JBS_RETURN_IF_ERROR(fd.status());
  Mutex tmp_mu;
  JBS_RETURN_IF_ERROR(
      SendMessage(fd->get(), tmp_mu, kMsgConnReq, 0, {}));
  // Block until the accept-reply; a closed socket means rejection, an
  // expired deadline means the server accepted the TCP dial but never
  // completed the rdma_cm handshake.
  uint8_t header[6];
  Status st = RecvAll(fd->get(), header, deadline);
  if (!st.ok()) {
    if (st.code() == StatusCode::kDeadlineExceeded) return st;
    return Unavailable("connection rejected by server");
  }
  if (header[4] != kMsgConnAccept) {
    return Internal("unexpected handshake reply");
  }
  // Established on the client side.
  return std::make_unique<QueuePair>(std::move(fd).value(), pd, send_cq,
                                     recv_cq, max_message_bytes);
}

}  // namespace jbs::net::verbs
