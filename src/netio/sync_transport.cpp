#include "netio/sync_transport.h"

#include <sys/socket.h>

#include <array>
#include <cerrno>
#include <utility>

namespace nnn::netio {

TcpSyncTransport::TcpSyncTransport(EventLoop& loop, Config config)
    : loop_(loop), config_(std::move(config)) {
  loop_.post([this, alive = alive_] {
    if (*alive) start_connect();
  });
}

TcpSyncTransport::~TcpSyncTransport() {
  *alive_ = false;
  if (fd_.valid()) loop_.del_fd(fd_.get());
}

controlplane::SyncClient::SendFn TcpSyncTransport::send_fn() {
  return [this, alive = alive_](util::Bytes datagram) {
    loop_.post([this, alive, d = std::move(datagram)]() mutable {
      if (*alive) write_datagram(std::move(d));
    });
  };
}

size_t TcpSyncTransport::poll(
    const std::function<void(util::BytesView)>& fn) {
  std::deque<util::Bytes> batch;
  {
    std::lock_guard<std::mutex> lock(inbound_mutex_);
    batch.swap(inbound_);
  }
  for (const util::Bytes& datagram : batch) {
    fn(util::BytesView(datagram));
  }
  return batch.size();
}

void TcpSyncTransport::start_connect() {
  auto fd = connect_tcp(config_.host, config_.port);
  if (!fd) {
    schedule_reconnect();
    return;
  }
  fd_ = std::move(*fd);
  connecting_ = true;
  loop_.add_fd(fd_.get(), EventLoop::kReadable | EventLoop::kWritable,
               [this](uint32_t events) { on_events(events); });
}

void TcpSyncTransport::on_events(uint32_t events) {
  if (!fd_.valid()) return;
  if (connecting_) {
    // First writable/error edge resolves the non-blocking connect.
    const Error result = connect_result(fd_.get());
    if (result.code != ErrorCode::kOk) {
      teardown(/*schedule_retry=*/true);
      return;
    }
    connecting_ = false;
    connected_.store(true, std::memory_order_release);
  }
  if (events & EventLoop::kError) {
    teardown(true);
    return;
  }
  if (events & EventLoop::kWritable) flush();
  if (fd_.valid() && (events & EventLoop::kReadable)) handle_readable();
}

void TcpSyncTransport::handle_readable() {
  std::array<uint8_t, 16384> chunk;
  for (;;) {
    const ssize_t n =
        ::recv(fd_.get(), chunk.data(), chunk.size(), MSG_NOSIGNAL);
    if (n > 0) {
      if (assembler_.feed(util::BytesView(chunk.data(),
                                          static_cast<size_t>(n)))) {
        // Poisoned stream (bad envelope from the server): reconnect
        // with a fresh assembler rather than guess at resync.
        teardown(true);
        return;
      }
      while (auto frame = assembler_.next()) {
        // Re-frame: on_datagram expects the same envelope-included
        // bytes a UDP datagram would carry.
        util::Bytes datagram;
        net::append_sync_frame(datagram, frame->type,
                               util::BytesView(frame->payload));
        std::lock_guard<std::mutex> lock(inbound_mutex_);
        inbound_.push_back(std::move(datagram));
        if (inbound_.size() > config_.max_inbound_queue) {
          inbound_.pop_front();
        }
      }
      continue;
    }
    if (n == 0) {
      teardown(true);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    teardown(true);
    return;
  }
}

void TcpSyncTransport::write_datagram(util::Bytes datagram) {
  if (!fd_.valid()) return;  // no socket: dropped; client times out
  // While the connect is in flight the datagram waits in outbuf_; the
  // writable edge that resolves the connect flushes it.
  util::append(outbuf_, util::BytesView(datagram));
  if (!connecting_) flush();
}

void TcpSyncTransport::flush() {
  while (fd_.valid() && out_sent_ < outbuf_.size()) {
    const ssize_t n = ::send(fd_.get(), outbuf_.data() + out_sent_,
                             outbuf_.size() - out_sent_, MSG_NOSIGNAL);
    if (n > 0) {
      out_sent_ += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    teardown(true);
    return;
  }
  if (out_sent_ > 0 && out_sent_ == outbuf_.size()) {
    outbuf_.clear();
    out_sent_ = 0;
  }
}

void TcpSyncTransport::teardown(bool schedule_retry) {
  if (fd_.valid()) {
    loop_.del_fd(fd_.get());
    fd_.reset();
  }
  const bool was_connected =
      connected_.exchange(false, std::memory_order_acq_rel);
  connecting_ = false;
  assembler_ = net::FrameAssembler{};
  outbuf_.clear();
  out_sent_ = 0;
  if (was_connected) reconnects_.fetch_add(1, std::memory_order_relaxed);
  if (schedule_retry) schedule_reconnect();
}

void TcpSyncTransport::schedule_reconnect() {
  if (reconnect_armed_) return;
  reconnect_armed_ = true;
  loop_.add_timer(
      loop_.now() + config_.reconnect_interval,
      [this, alive = alive_](util::Timestamp) -> util::Timestamp {
        if (!*alive) return 0;
        reconnect_armed_ = false;
        if (!fd_.valid()) start_connect();
        return 0;
      });
}

}  // namespace nnn::netio
