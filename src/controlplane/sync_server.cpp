#include "controlplane/sync_server.h"

#include <algorithm>
#include <utility>

#include "fault/injector.h"

namespace nnn::controlplane {

SyncServer::SyncServer(DescriptorLog& log) : SyncServer(log, Config()) {}

SyncServer::SyncServer(DescriptorLog& log, Config config)
    : log_(log), config_(config) {
  log_token_ = log_.subscribe(
      [this](const Update& update) { on_append(update.version); });
  registration_ = telemetry::Registry::global().add_collector(
      [this](telemetry::SampleBuilder& builder) { collect(builder); });
}

SyncServer::~SyncServer() { log_.unsubscribe(log_token_); }

void SyncServer::collect(telemetry::SampleBuilder& builder) const {
  builder.counter("nnn_controlplane_requests_total",
                  "Sync requests received", {}, requests_.value());
  builder.counter("nnn_controlplane_responses_total",
                  "Sync responses by kind", {{"kind", "snapshot"}},
                  snapshots_served_.value());
  builder.counter("nnn_controlplane_responses_total",
                  "Sync responses by kind", {{"kind", "delta"}},
                  deltas_served_.value());
  builder.counter("nnn_controlplane_responses_total",
                  "Sync responses by kind", {{"kind", "heartbeat"}},
                  heartbeats_served_.value());
  builder.counter("nnn_controlplane_pushes_total",
                  "Deltas pushed on a log change without a request", {},
                  pushes_.value());
  builder.gauge("nnn_controlplane_clients",
                "Distinct sync clients seen", {}, clients_.value());
}

bool SyncServer::dark() const {
  return injector_ != nullptr && fault_clock_ != nullptr &&
         injector_->sync_unavailable(fault_clock_->now());
}

std::optional<util::Bytes> SyncServer::handle(util::BytesView datagram,
                                              uint64_t channel) {
  // Injected outage: the server is dark. Swallow the request before
  // decoding so the client sees exactly what a dead server produces —
  // silence.
  if (dark()) return std::nullopt;
  // decode_message tallies failures into nnn_errors_total; a server
  // never answers garbage (the client's timeout handles it).
  const auto message = decode_message(datagram);
  if (!message) return std::nullopt;
  const auto* request = std::get_if<SyncRequest>(&*message);
  if (request == nullptr) return std::nullopt;

  {
    const std::lock_guard<std::mutex> lock(mutex_);
    requests_.inc();
    client_versions_[request->client_id] = request->have_version;
    clients_.set(static_cast<int64_t>(client_versions_.size()));
  }

  // Heartbeat / delta / snapshot, in order of preference. The log can
  // advance between these calls; that only makes the response slightly
  // stale, which a push (or the client's next poll) repairs.
  util::Bytes reply;
  uint64_t reply_version = log_.version();
  telemetry::Counter* served = &heartbeats_served_;
  if (request->have_version == reply_version) {
    reply = encode(HeartbeatMessage{reply_version});
  } else if (request->have_version > 0 &&
             request->have_version < reply_version &&
             reply_version - request->have_version <=
                 config_.max_delta_updates) {
    // have_version 0 is a fresh client: a snapshot of the current
    // table beats a delta that replays its entire history.
    if (auto updates = log_.delta_since(request->have_version)) {
      DeltaMessage delta;
      delta.from_version = request->have_version;
      delta.to_version = updates->empty() ? request->have_version
                                          : updates->back().version;
      delta.updates = std::move(*updates);
      reply_version = delta.to_version;
      reply = encode(delta);
      served = &deltas_served_;
    }
  }
  if (reply.empty()) {
    // Fresh client, compacted history, too-big gap, or a client
    // claiming a version from the future (restarted server): resync
    // wholesale.
    Snapshot snap = log_.snapshot();
    SnapshotMessage message_out;
    message_out.version = snap.version;
    message_out.live = std::move(snap.live);
    message_out.revoked = std::move(snap.revoked);
    reply_version = snap.version;
    reply = encode(message_out);
    served = &snapshots_served_;
  }
  std::shared_ptr<Channel> due;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    served->inc();
    if (channel != 0) due = record_sent(channel, reply_version);
  }
  if (due) post_flush(due);
  return reply;
}

uint64_t SyncServer::open_channel(PushSink sink) {
  auto channel = std::make_shared<Channel>();
  channel->sink = std::move(sink);
  const std::lock_guard<std::mutex> lock(mutex_);
  const uint64_t id = next_channel_++;
  channels_.emplace(id, std::move(channel));
  return id;
}

void SyncServer::close_channel(uint64_t channel) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = channels_.find(channel);
  if (it == channels_.end()) return;
  it->second->closed = true;
  channels_.erase(it);
}

std::shared_ptr<SyncServer::Channel> SyncServer::record_sent(
    uint64_t channel, uint64_t version) {
  const auto it = channels_.find(channel);
  if (it == channels_.end()) return nullptr;
  Channel& ch = *it->second;
  ch.answered = true;
  ch.sent = std::max(ch.sent, version);
  // An append that landed while this reply was being built found the
  // channel unarmed (or already covered); push what the reply missed.
  if (ch.flush_pending || log_.version() <= ch.sent) return nullptr;
  ch.flush_pending = true;
  return it->second;
}

void SyncServer::on_append(uint64_t version) {
  std::vector<std::shared_ptr<Channel>> due;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [id, channel] : channels_) {
      if (!channel->answered || channel->flush_pending ||
          channel->sent >= version) {
        continue;
      }
      channel->flush_pending = true;
      due.push_back(channel);
    }
  }
  // Posted outside the lock: post() may take the loop's own lock.
  for (const auto& channel : due) post_flush(channel);
}

void SyncServer::post_flush(const std::shared_ptr<Channel>& channel) {
  channel->sink.post([this, channel] { flush(channel); });
}

void SyncServer::flush(const std::shared_ptr<Channel>& channel) {
  uint64_t from = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    channel->flush_pending = false;
    if (channel->closed) return;
    from = channel->sent;
  }
  if (dark()) return;  // the client's poll recovers after the outage
  const uint64_t head = log_.version();
  if (head <= from || head - from > config_.max_delta_updates) return;
  auto updates = log_.delta_since(from);
  if (!updates || updates->empty()) return;
  DeltaMessage push;
  push.from_version = from;
  push.to_version = updates->back().version;
  push.updates = std::move(*updates);
  push.pushed = true;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    channel->sent = std::max(channel->sent, push.to_version);
    pushes_.inc();
  }
  channel->sink.send(encode(push));
}

std::optional<uint64_t> SyncServer::min_client_version() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (client_versions_.empty()) return std::nullopt;
  uint64_t lowest = UINT64_MAX;
  for (const auto& [client, version] : client_versions_) {
    lowest = std::min(lowest, version);
  }
  return lowest;
}

}  // namespace nnn::controlplane
