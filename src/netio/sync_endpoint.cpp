#include "netio/sync_endpoint.h"

#include "net/wire.h"

namespace nnn::netio {

SyncEndpoint::~SyncEndpoint() {
  // Destroyed with its Connection, on the loop thread: flushes already
  // posted for the channel find it closed and never touch `conn`.
  if (channel_ != 0) server_.close_channel(channel_);
}

Expected<size_t> SyncEndpoint::on_data(Connection& conn,
                                       util::BytesView buffered) {
  const auto probe = net::peek_sync_frame(buffered);
  if (!probe) return unexpected(probe.error());  // poisoned stream: close
  if (!*probe || buffered.size() < **probe) return 0;  // keep reading
  const util::Timestamp start = conn.loop().now();
  conn.mark_open();
  conn.metrics().frames.inc();
  if (channel_ == 0) {
    EventLoop& loop = conn.loop();
    channel_ = server_.open_channel(
        {[&loop](std::function<void()> task) { loop.post(std::move(task)); },
         [&conn](util::Bytes push) { conn.send(util::BytesView(push)); }});
  }
  // The whole framed datagram goes to the server — same bytes a UDP
  // transport would deliver. No reply (malformed payload or injected
  // outage) is the datagram contract: the client's timeout handles it.
  const auto reply = server_.handle(buffered.first(**probe), channel_);
  if (reply) conn.send(util::BytesView(*reply));
  conn.metrics().request_micros.record(
      static_cast<uint64_t>(conn.loop().now() - start));
  return **probe;
}

}  // namespace nnn::netio
