// Sync-protocol endpoint: puts a controlplane::SyncServer behind a
// TcpServer.
//
// The sync protocol is datagram-shaped (one request frame -> at most
// one response frame); over TCP each frame's self-describing envelope
// (net/wire.h) does the segmentation. peek_sync_frame validates the
// envelope as soon as its 8 bytes arrive, so a hostile length field
// closes the connection before any payload is buffered, and a partial
// frame simply waits in the connection's input buffer.
//
// SyncServer::handle is thread-safe and stateless per call, so ONE
// SyncServer instance serves every connection; the factory here only
// stamps out thin per-connection adapters. Each adapter opens a push
// channel on its connection's first frame: log changes then reach the
// middlebox as Push frames written from the loop thread (the server
// posts one coalesced flush per connection through EventLoop::post,
// whatever thread appended), and the channel closes with the
// connection.
#pragma once

#include "controlplane/sync_server.h"
#include "netio/conn.h"
#include "netio/transport.h"

namespace nnn::netio {

class SyncEndpoint final : public Protocol {
 public:
  explicit SyncEndpoint(controlplane::SyncServer& server)
      : server_(server) {}
  ~SyncEndpoint() override;

  Expected<size_t> on_data(Connection& conn,
                           util::BytesView buffered) override;

 private:
  controlplane::SyncServer& server_;
  uint64_t channel_ = 0;  // push channel, opened on the first frame
};

/// Factory for TcpServer::create. `server` must outlive the TcpServer.
inline TcpServer::ProtocolFactory sync_protocol(
    controlplane::SyncServer& server) {
  return [&server] { return std::make_unique<SyncEndpoint>(server); };
}

}  // namespace nnn::netio
