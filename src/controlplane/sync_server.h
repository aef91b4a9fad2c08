// Server endpoint of the snapshot/delta sync protocol.
//
// Answers polls: a SyncRequest at the current version gets a
// Heartbeat, a servable gap gets a Delta, and anything else — fresh
// client, compacted-away history, or a gap bigger than
// config.max_delta_updates — gets a full Snapshot. The server remembers
// each client's last reported version (the regulator-facing lag
// signal). Transport-agnostic: handle() maps one request datagram to
// one response datagram; the caller moves the bytes (sim::Link, a real
// socket, or a plain function call in tests).
//
// Push. A transport that can send unasked (a TCP connection; a sim
// link) opens a push channel and passes its id to handle(). The server
// observes the DescriptorLog; once a channel has been answered, every
// log change past the last version sent on it posts ONE flush to the
// channel's own thread, and that flush sends a single Push (a Delta
// flagged pushed) from that version to the head. Appends made before
// the flush runs ride in the same Push — the coalescing needs no
// timer. A gap beyond max_delta_updates pushes nothing (the next poll
// gets its snapshot), and an injected sync outage silences pushes as
// it silences handle(). The client's poll stays the heartbeat, the
// lag report and the recovery path for a lost push.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>

#include "controlplane/descriptor_log.h"
#include "controlplane/messages.h"
#include "telemetry/metrics.h"
#include "util/bytes.h"
#include "util/clock.h"

namespace nnn::fault {
class Injector;
}

namespace nnn::controlplane {

class SyncServer {
 public:
  struct Config {
    /// Gaps larger than this are served as snapshots — shipping the
    /// whole table is cheaper than a delta that replays most of it.
    size_t max_delta_updates = 4096;
  };

  /// Where one channel's pushes go. `post` runs a task on the
  /// channel's own thread (EventLoop::post, a sim loop's after(0)) and
  /// must be callable from any thread; `send` writes one datagram and
  /// is only ever called from a posted task.
  struct PushSink {
    std::function<void(std::function<void()>)> post;
    std::function<void(util::Bytes)> send;
  };

  explicit SyncServer(DescriptorLog& log);
  SyncServer(DescriptorLog& log, Config config);
  ~SyncServer();
  SyncServer(const SyncServer&) = delete;
  SyncServer& operator=(const SyncServer&) = delete;

  /// Process one request datagram. nullopt when the datagram is not a
  /// well-formed SyncRequest (anything else is dropped, never answered
  /// — the client's timeout handles it). A nonzero `channel` (from
  /// open_channel) marks the reply's version as sent on that channel
  /// and arms it for pushes; call on the channel's thread.
  std::optional<util::Bytes> handle(util::BytesView datagram,
                                    uint64_t channel = 0);

  /// Register a push channel; returns its id (never 0). Thread-safe.
  uint64_t open_channel(PushSink sink);
  /// Unregister it. Call on the channel's thread: no push is sent on
  /// the channel after this returns (flushes already posted no-op).
  void close_channel(uint64_t channel);

  /// Hook the server into a fault injector (PR 5): during an injected
  /// sync outage handle() swallows every request — exactly the nullopt
  /// a malformed datagram gets, so clients exercise their real timeout
  /// and breaker paths — and no push goes out. Both pointers null-detach; `clock` is read
  /// only to evaluate the schedule and must outlive the server.
  void set_fault_injector(const fault::Injector* injector,
                          const util::Clock* clock) {
    injector_ = injector;
    fault_clock_ = clock;
  }

  /// Lowest version any known client has reported (the worst lag);
  /// nullopt before the first request.
  std::optional<uint64_t> min_client_version() const;

  uint64_t pushes_sent() const { return pushes_.value(); }

 private:
  /// One push channel. `answered`, `sent` and `flush_pending` are
  /// guarded by mutex_: the log observer reads them on the appending
  /// thread, handle() and flush() write them on the channel's thread.
  struct Channel {
    PushSink sink;
    bool answered = false;
    bool closed = false;
    bool flush_pending = false;
    uint64_t sent = 0;  // newest version sent on the channel
  };

  bool dark() const;
  /// Mark `version` sent on `channel`; returns the channel when a push
  /// must now be posted for it (the log is already past `version`).
  std::shared_ptr<Channel> record_sent(uint64_t channel, uint64_t version);
  /// Log observer: post a flush to every armed channel behind `version`.
  void on_append(uint64_t version);
  void post_flush(const std::shared_ptr<Channel>& channel);
  /// On the channel's thread: one Push from channel->sent to the head.
  void flush(const std::shared_ptr<Channel>& channel);
  void collect(telemetry::SampleBuilder& builder) const;

  DescriptorLog& log_;
  const Config config_;
  const fault::Injector* injector_ = nullptr;
  const util::Clock* fault_clock_ = nullptr;
  mutable std::mutex mutex_;
  std::map<uint64_t, uint64_t> client_versions_;
  std::map<uint64_t, std::shared_ptr<Channel>> channels_;
  uint64_t next_channel_ = 1;
  uint64_t log_token_ = 0;

  telemetry::Counter requests_;
  telemetry::Counter snapshots_served_;
  telemetry::Counter deltas_served_;
  telemetry::Counter heartbeats_served_;
  telemetry::Counter pushes_;
  telemetry::Gauge clients_;
  telemetry::Registration registration_;  // last: deregisters first
};

}  // namespace nnn::controlplane
