// Socket-backed transport for controlplane::SyncClient — the TCP
// sibling of LocalSubscriber's in-process hookup.
//
// The SyncClient is strictly single-threaded: tick() and on_datagram()
// must run on the owner's control thread. The event loop is a
// different thread. This adapter is the seam between the two:
//
//   outbound   send_fn() returns a SyncClient::SendFn that posts the
//              datagram to the loop, where it is written (the sync
//              envelope already frames it — TCP needs no extra
//              wrapping). While the connect is in flight the
//              datagram is queued and sent once it resolves; with no
//              socket at all (between a teardown and the reconnect)
//              it is dropped, which is exactly the loss the client's
//              timeout/backoff machinery exists to absorb.
//   inbound    the loop thread reads the socket, reassembles frames
//              (net::FrameAssembler), and queues complete datagrams;
//              the owner drains them on ITS thread with poll(fn),
//              passing fn = [&](d){ client.on_datagram(d); }.
//
// The transport reconnects itself on a flat interval; sophistication
// (exponential backoff, breaker) deliberately stays in SyncClient,
// which already owns retry policy for lossy transports. Destroy only
// after the loop has stopped (or from the loop thread): teardown
// unregisters the fd directly.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "controlplane/sync_client.h"
#include "net/wire.h"
#include "netio/event_loop.h"
#include "netio/socket.h"
#include "util/bytes.h"

namespace nnn::netio {

class TcpSyncTransport {
 public:
  struct Config {
    std::string host = "127.0.0.1";
    uint16_t port = 0;
    util::Timestamp reconnect_interval = 200 * util::kMillisecond;
    /// Inbound datagrams held for poll(); beyond it the oldest drop
    /// (the client re-polls anyway — bounded memory wins).
    size_t max_inbound_queue = 1024;
  };

  /// Starts connecting immediately (callable from any thread; the
  /// attempt itself is posted to the loop).
  TcpSyncTransport(EventLoop& loop, Config config);
  ~TcpSyncTransport();
  TcpSyncTransport(const TcpSyncTransport&) = delete;
  TcpSyncTransport& operator=(const TcpSyncTransport&) = delete;

  /// The SendFn to construct the SyncClient with. Thread-safe.
  controlplane::SyncClient::SendFn send_fn();

  /// Drain queued inbound datagrams on the calling (owner) thread.
  /// Returns how many were delivered.
  size_t poll(const std::function<void(util::BytesView)>& fn);

  bool connected() const {
    return connected_.load(std::memory_order_acquire);
  }
  uint64_t reconnects() const {
    return reconnects_.load(std::memory_order_relaxed);
  }

 private:
  // Loop-thread-only below.
  void start_connect();
  void on_events(uint32_t events);
  void handle_readable();
  void flush();
  void teardown(bool schedule_retry);
  void schedule_reconnect();
  void write_datagram(util::Bytes datagram);

  EventLoop& loop_;
  const Config config_;
  Fd fd_;
  bool connecting_ = false;
  bool reconnect_armed_ = false;
  std::atomic<bool> connected_{false};
  std::atomic<uint64_t> reconnects_{0};
  net::FrameAssembler assembler_;
  util::Bytes outbuf_;
  size_t out_sent_ = 0;

  std::mutex inbound_mutex_;
  std::deque<util::Bytes> inbound_;

  /// Outlives `this` in posted sends and the reconnect timer.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace nnn::netio
