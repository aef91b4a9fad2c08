// The program under test, assembled the way a deployment would run it:
// descriptor log + CookieServer + JsonApi (HTTP) + SyncServer (TCP sync)
// on one netio loop thread, which also drives the middlebox's SyncClient
// over TcpSyncTransport into a TablePublisher that a 2-worker
// runtime::Dataplane (descriptor affinity) verifies against.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "controlplane/descriptor_log.h"
#include "controlplane/epoch.h"
#include "controlplane/sync_client.h"
#include "controlplane/sync_server.h"
#include "dataplane/service_registry.h"
#include "netio/event_loop.h"
#include "netio/sync_transport.h"
#include "netio/transport.h"
#include "runtime/dataplane.h"
#include "server/cookie_server.h"
#include "server/json_api.h"
#include "trace.h"
#include "tracer.h"

namespace perfbench {

/// Steady clock rebased so that program time reads kRoundEpoch when the
/// program is created (see trace.h for why).
class RebasedClock final : public nnn::util::Clock {
 public:
  RebasedClock();
  nnn::util::Timestamp now() const override;

 private:
  nnn::util::Timestamp base_;
};

/// A descriptor-log append seen by the log observer (netio thread).
struct LogEvent {
  uint64_t version = 0;
  nnn::cookies::CookieId id = 0;
  bool revoke = false;
  int64_t at_ns = 0;
};

/// The SyncClient advanced the published table to `version`.
struct ApplyEvent {
  uint64_t version = 0;
  int64_t at_ns = 0;
};

class Program {
 public:
  /// Sets the program up (timed by the caller): install descriptors in
  /// the log, bind the HTTP and sync servers, start the netio thread,
  /// wait for the first sync to publish the table, start the dataplane.
  /// `tracer` may be null; `parent` is the set-up span to nest under.
  Program(const Trace& trace, uint64_t seed, Tracer* tracer, uint32_t parent);
  ~Program();
  Program(const Program&) = delete;
  Program& operator=(const Program&) = delete;

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

  RebasedClock& clock() { return clock_; }
  nnn::runtime::Dataplane& plane() { return *plane_; }
  nnn::controlplane::TablePublisher& publisher() { return *publisher_; }
  uint16_t http_port() const { return http_->port(); }

  /// Stop the netio thread (the SyncClient stops with it). Idempotent.
  void stop_control_plane();

  /// Drain events recorded on the netio thread since the last call.
  void take_events(std::vector<LogEvent>& log_events,
                   std::vector<ApplyEvent>& apply_events);

  // Counters of the netio thread; read after stop_control_plane().
  uint64_t polls() const { return polls_; }
  uint64_t retries() const { return client_->retries(); }
  std::vector<int64_t> apply_ns() const { return apply_ns_; }

 private:
  void drive_loop();

  RebasedClock clock_;
  Tracer* tracer_;
  bool ok_ = false;
  std::string error_;
  nnn::dataplane::ServiceRegistry registry_;
  std::unique_ptr<nnn::controlplane::DescriptorLog> log_;
  std::unique_ptr<nnn::server::CookieServer> server_;
  std::unique_ptr<nnn::server::JsonApi> api_;
  std::unique_ptr<nnn::controlplane::SyncServer> sync_server_;
  std::unique_ptr<nnn::netio::EventLoop> loop_;
  std::unique_ptr<nnn::netio::TcpServer> http_;
  std::unique_ptr<nnn::netio::TcpServer> sync_tcp_;
  std::unique_ptr<nnn::controlplane::TablePublisher> publisher_;
  std::unique_ptr<nnn::runtime::Dataplane> plane_;
  std::unique_ptr<nnn::netio::TcpSyncTransport> transport_;
  std::unique_ptr<nnn::controlplane::SyncClient> client_;
  uint64_t observer_token_ = 0;

  std::mutex events_mutex_;
  std::vector<LogEvent> log_events_;
  std::vector<ApplyEvent> apply_events_;

  std::atomic<uint64_t> applied_{0};
  std::atomic<bool> stop_{false};
  uint64_t polls_ = 0;                // netio thread only
  std::vector<int64_t> apply_ns_;     // netio thread only
  std::thread loop_thread_;           // last: joined before the rest go
};

}  // namespace perfbench
