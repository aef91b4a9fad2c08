#include "controlplane/sync_client.h"

#include <algorithm>
#include <utility>

namespace nnn::controlplane {

SyncClient::SyncClient(const util::Clock& clock, TablePublisher& publisher,
                       Config config, SendFn send)
    : clock_(clock),
      publisher_(publisher),
      config_(config),
      send_(std::move(send)),
      rng_(config.rng_seed),
      client_label_(std::to_string(config.client_id)) {
  registration_ = telemetry::Registry::global().add_collector(
      [this](telemetry::SampleBuilder& builder) { collect(builder); });
}

void SyncClient::collect(telemetry::SampleBuilder& builder) const {
  const telemetry::LabelSet labels{{"client", client_label_}};
  builder.gauge("nnn_controlplane_version_lag",
                "Versions the server is known to be ahead of this client",
                labels, version_lag_.value());
  builder.gauge("nnn_controlplane_applied_version",
                "DescriptorLog version this client has applied", labels,
                applied_gauge_.value());
  builder.gauge("nnn_controlplane_stale",
                "1 when no successful sync within stale_grace", labels,
                stale_gauge_.value());
  builder.gauge("nnn_controlplane_breaker_state",
                "Sync circuit breaker: 0 closed, 1 open, 2 half-open",
                labels, breaker_gauge_.value());
  builder.counter("nnn_controlplane_retries_total",
                  "Sync requests that timed out and were retried", labels,
                  retries_.value());
  builder.counter("nnn_controlplane_snapshots_applied_total",
                  "Full-table snapshots applied", labels,
                  snapshots_applied_.value());
  builder.counter("nnn_controlplane_deltas_applied_total",
                  "Incremental deltas applied", labels,
                  deltas_applied_.value());
  builder.counter("nnn_controlplane_pushes_received_total",
                  "Pushed deltas received (applied or not)", labels,
                  pushes_received_.value());
  builder.counter("nnn_controlplane_breaker_opens_total",
                  "Times the sync circuit breaker tripped open", labels,
                  breaker_opens_.value());
  builder.counter("nnn_controlplane_restores_total",
                  "Cold starts recovered from a table checkpoint", labels,
                  restores_.value());
  builder.histogram("nnn_controlplane_sync_rtt_micros",
                    "Request-to-response round trip in microseconds",
                    labels, sync_rtt_micros_);
  // One gauge per degradation reason: "still enforcing, but on terms
  // an operator should know about". All read from atomic cells so the
  // exporter can run while the control thread mutates.
  static constexpr std::string_view kDegradedHelp =
      "1 while degraded for the labeled reason, else 0";
  builder.gauge("nnn_degraded", kDegradedHelp,
                telemetry::LabelSet{{"client", client_label_},
                                    {"reason", "stale"}},
                stale_gauge_.value());
  builder.gauge("nnn_degraded", kDegradedHelp,
                telemetry::LabelSet{{"client", client_label_},
                                    {"reason", "breaker-open"}},
                breaker_gauge_.value() != 0 ? 1 : 0);
  builder.gauge("nnn_degraded", kDegradedHelp,
                telemetry::LabelSet{{"client", client_label_},
                                    {"reason", "restored-table"}},
                restored_gauge_.value());
}

util::Timestamp SyncClient::with_jitter(util::Timestamp base) {
  const double factor =
      rng_.uniform_real(1.0 - config_.jitter, 1.0 + config_.jitter);
  return static_cast<util::Timestamp>(static_cast<double>(base) * factor);
}

void SyncClient::start() {
  if (started_) return;
  started_ = true;
  // The grace clock starts now: a client that never reaches the server
  // goes stale stale_grace after start, not at time zero.
  last_success_ = clock_.now();
  send_request(clock_.now());
}

void SyncClient::send_request(util::Timestamp now) {
  // An open breaker sends nothing until its backoff elapses; the first
  // request after that IS the half-open probe.
  if (breaker_ == BreakerState::kOpen) {
    breaker_ = BreakerState::kHalfOpen;
    breaker_gauge_.set(static_cast<int64_t>(breaker_));
  }
  awaiting_response_ = true;
  last_request_ = now;
  current_timeout_ = config_.response_timeout;
  send_(encode(SyncRequest{config_.client_id, mirror_.version()}));
}

void SyncClient::publish() {
  applied_gauge_.set(static_cast<int64_t>(mirror_.version()));
  publisher_.publish(mirror_.build());
}

util::Timestamp SyncClient::current_backoff() const {
  util::Timestamp backoff = config_.backoff_base;
  for (uint32_t i = 1;
       i < consecutive_failures_ && backoff < config_.backoff_max; ++i) {
    backoff *= 2;
  }
  return std::min(backoff, config_.backoff_max);
}

void SyncClient::on_success(util::Timestamp now) {
  if (awaiting_response_) {
    sync_rtt_micros_.record(static_cast<uint64_t>(
        std::max<util::Timestamp>(0, now - last_request_)));
  }
  awaiting_response_ = false;
  last_success_ = now;
  stale_ = false;
  stale_gauge_.set(0);
  restored_active_ = false;
  restored_gauge_.set(0);
  if (breaker_ == BreakerState::kClosed) {
    consecutive_failures_ = 0;
  } else {
    // The regression this guards: a flapping link lets one response
    // through and the old code restarted backoff from the minimum,
    // hammering a server that is still down. A single success now only
    // decays the failure level by one; the breaker closes — and the
    // slate wipes clean — only after a genuine success streak.
    ++success_streak_;
    if (consecutive_failures_ > 0) --consecutive_failures_;
    if (success_streak_ >= config_.breaker_success_threshold) {
      breaker_ = BreakerState::kClosed;
      breaker_gauge_.set(0);
      consecutive_failures_ = 0;
    }
  }
  update_lag();
  // Behind the server (a delta gap forced a re-poll, or a heartbeat
  // reported a newer version): catch up immediately instead of waiting
  // out a poll interval.
  next_poll_ = server_version_ > mirror_.version()
                   ? now
                   : now + with_jitter(config_.poll_interval);
}

void SyncClient::update_lag() {
  version_lag_.set(static_cast<int64_t>(
      server_version_ > mirror_.version()
          ? server_version_ - mirror_.version()
          : 0));
}

void SyncClient::on_failure(util::Timestamp now) {
  awaiting_response_ = false;
  ++consecutive_failures_;
  success_streak_ = 0;
  retries_.inc();
  count_error({ErrorDomain::kSync, ErrorCode::kTimeout, "sync response"});
  if (breaker_ == BreakerState::kHalfOpen) {
    // The probe died; back to open for another full backoff.
    breaker_ = BreakerState::kOpen;
    breaker_gauge_.set(static_cast<int64_t>(breaker_));
  } else if (breaker_ == BreakerState::kClosed &&
             consecutive_failures_ >= config_.breaker_failure_threshold) {
    breaker_ = BreakerState::kOpen;
    breaker_gauge_.set(static_cast<int64_t>(breaker_));
    breaker_opens_.inc();
    count_error({ErrorDomain::kSync, ErrorCode::kUnavailable,
                 "breaker open"});
  }
  // Back off exponentially (capped), jittered so a fleet of clients
  // does not re-converge on the recovering server in sync.
  next_poll_ = now + with_jitter(current_backoff());
}

SavedTable SyncClient::export_table() const {
  return SavedTable{mirror_.version(), clock_.now(), mirror_.live(),
                    mirror_.revoked()};
}

bool SyncClient::restore(const SavedTable& saved) {
  const util::Timestamp age =
      std::max<util::Timestamp>(0, clock_.now() - saved.saved_at);
  if (age > config_.restore_budget) {
    // Enforcing arbitrarily old revocation state is worse than an
    // empty table that fails open until the first snapshot lands.
    count_error({ErrorDomain::kSync, ErrorCode::kStale,
                 "restore checkpoint"});
    return false;
  }
  mirror_.reset(saved.version, saved.live, saved.revoked);
  publish();
  restored_active_ = true;
  restored_gauge_.set(1);
  restores_.inc();
  return true;
}

void SyncClient::on_datagram(util::BytesView datagram) {
  if (!started_) return;
  const auto message = decode_message(datagram);
  if (!message) {
    // The decoder tallied the failure; keep the typed detail for
    // operators and tests. A garbled response is not a success, but it
    // is also not a timeout — the timer decides that.
    last_error_ = message.error();
    return;
  }
  const util::Timestamp now = clock_.now();

  if (const auto* heartbeat = std::get_if<HeartbeatMessage>(&*message)) {
    server_version_ = std::max(server_version_, heartbeat->version);
    on_success(now);
    return;
  }
  if (const auto* snapshot = std::get_if<SnapshotMessage>(&*message)) {
    server_version_ = std::max(server_version_, snapshot->version);
    // A reordered older snapshot must not roll the table back.
    if (snapshot->version >= mirror_.version()) {
      mirror_.reset(snapshot->version, snapshot->live, snapshot->revoked);
      publish();
      snapshots_applied_.inc();
    }
    on_success(now);
    return;
  }
  if (const auto* delta = std::get_if<DeltaMessage>(&*message)) {
    server_version_ = std::max(server_version_, delta->to_version);
    const bool gap = delta->from_version > mirror_.version();
    if (delta->from_version == mirror_.version()) {
      bool changed = false;
      for (const Update& update : delta->updates) {
        changed = mirror_.apply(update) || changed;
      }
      if (changed) publish();
      deltas_applied_.inc();
    }
    if (delta->pushed) {
      // A push is not an answer: the poll in flight (if any) stays in
      // flight, and the heartbeat keeps its cadence. A gap means an
      // earlier push was lost: re-poll now instead of waiting out the
      // interval (a poll in flight already covers it — its answer
      // re-polls while the server is ahead).
      pushes_received_.inc();
      update_lag();
      if (gap && !awaiting_response_ && breaker_ == BreakerState::kClosed) {
        send_request(now);
      }
      return;
    }
    // from_version > applied: a gap (a response for a poll we since
    // superseded). from_version < applied: a duplicate. Either way the
    // channel is alive; on_success re-polls immediately when the
    // server is known to be ahead.
    on_success(now);
    return;
  }
  // A SyncRequest echoed at a client: not ours to answer.
}

void SyncClient::tick() {
  if (!started_) return;
  const util::Timestamp now = clock_.now();
  if (awaiting_response_ && now - last_request_ >= current_timeout_) {
    on_failure(now);
  }
  if (!awaiting_response_ && now >= next_poll_) {
    send_request(now);
  }
  const bool stale_now = now - last_success_ > config_.stale_grace;
  if (stale_now != stale_) {
    stale_ = stale_now;
    stale_gauge_.set(stale_ ? 1 : 0);
  }
}

util::Timestamp SyncClient::next_wakeup() const {
  if (!started_) return 0;
  if (awaiting_response_) return last_request_ + current_timeout_;
  return next_poll_;
}

}  // namespace nnn::controlplane
