// netio subsystem tests: timer wheel semantics, event-loop plumbing,
// and real loopback TCP — sync convergence over sockets, HTTP
// keep-alive across split reads, poisoned-stream closes, accept-rate
// shedding, idle/handshake timeouts, and injected socket faults.
//
// Loopback tests run the EventLoop on a background thread against the
// SystemClock and poll with deadlines; every wait is bounded, nothing
// sleeps for a fixed "long enough".
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "controlplane/descriptor_log.h"
#include "controlplane/epoch.h"
#include "controlplane/sync_client.h"
#include "controlplane/sync_server.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "net/http.h"
#include "net/wire.h"
#include "netio/event_loop.h"
#include "netio/http_endpoint.h"
#include "netio/sync_endpoint.h"
#include "netio/sync_transport.h"
#include "netio/timer_wheel.h"
#include "netio/transport.h"
#include "server/cookie_server.h"
#include "server/json_api.h"
#include "telemetry/metrics.h"
#include "util/clock.h"

namespace nnn {
namespace {

using util::kMillisecond;
using util::kSecond;
using util::Timestamp;

// --- Timer wheel ----------------------------------------------------

TEST(TimerWheel, FiresAtDeadlineAndDropsExpired) {
  netio::TimerWheel wheel;
  std::vector<uint64_t> fired;
  wheel.insert(1, 25 * kMillisecond);
  wheel.insert(2, 500 * kMillisecond);
  wheel.advance(30 * kMillisecond, [&](uint64_t id, Timestamp) {
    fired.push_back(id);
    return Timestamp{0};
  });
  EXPECT_EQ(fired, std::vector<uint64_t>{1});
  EXPECT_EQ(wheel.size(), 1u);
  wheel.advance(600 * kMillisecond, [&](uint64_t id, Timestamp) {
    fired.push_back(id);
    return Timestamp{0};
  });
  EXPECT_EQ(fired, (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(wheel.size(), 0u);
}

TEST(TimerWheel, LazyRearmFiresAtAuthoritativeDeadline) {
  netio::TimerWheel wheel;
  wheel.insert(7, 20 * kMillisecond);
  int fires = 0;
  // The owner keeps moving the deadline: the callback reports the
  // authoritative one and the wheel re-files without complaint.
  Timestamp authoritative = 80 * kMillisecond;
  const auto cb = [&](uint64_t, Timestamp now) {
    if (now >= authoritative) {
      ++fires;
      return Timestamp{0};
    }
    return authoritative;
  };
  wheel.advance(25 * kMillisecond, cb);
  EXPECT_EQ(fires, 0);
  EXPECT_EQ(wheel.size(), 1u);
  wheel.advance(50 * kMillisecond, cb);
  EXPECT_EQ(fires, 0);
  wheel.advance(90 * kMillisecond, cb);
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(wheel.size(), 0u);
}

TEST(TimerWheel, EntryDueLaterInWalkedTickFiresNextTick) {
  netio::TimerWheel::Config config;
  config.tick = 10 * kMillisecond;
  config.slots = 8;  // 80 ms per revolution
  netio::TimerWheel wheel(config);
  wheel.insert(1, 18 * kMillisecond);
  int fires = 0;
  const auto cb = [&](uint64_t, Timestamp now) {
    if (now >= 18 * kMillisecond) {
      ++fires;
      return Timestamp{0};
    }
    return Timestamp{18 * kMillisecond};
  };
  // The walk covers the entry's slot before the entry is due: it must
  // be re-filed ahead of the cursor, not stranded in the walked slot
  // until the wheel comes around again (~80 ms later).
  wheel.advance(12 * kMillisecond, cb);
  EXPECT_EQ(fires, 0);
  EXPECT_EQ(wheel.size(), 1u);
  wheel.advance(22 * kMillisecond, cb);
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(wheel.size(), 0u);
}

TEST(TimerWheel, DeadlineBeyondOneRevolutionStillFires) {
  netio::TimerWheel::Config config;
  config.tick = 10 * kMillisecond;
  config.slots = 8;  // tiny wheel: 80 ms per revolution
  netio::TimerWheel wheel(config);
  wheel.insert(1, 1 * kSecond);
  int fires = 0;
  for (Timestamp t = 0; t <= 1100 * kMillisecond; t += 40 * kMillisecond) {
    wheel.advance(t, [&](uint64_t, Timestamp now) {
      if (now >= 1 * kSecond) {
        ++fires;
        return Timestamp{0};
      }
      return Timestamp{1 * kSecond};
    });
  }
  EXPECT_EQ(fires, 1);
}

// --- Event loop -----------------------------------------------------

TEST(EventLoop, PostedTasksRunOnLoopThread) {
  util::SystemClock clock;
  netio::EventLoop loop(clock);
  std::atomic<int> ran{0};
  std::thread t([&] { loop.run(); });
  for (int i = 0; i < 10; ++i) {
    loop.post([&] { ran.fetch_add(1); });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (ran.load() < 10 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  loop.stop();
  t.join();
  EXPECT_EQ(ran.load(), 10);
}

TEST(EventLoop, TimersFire) {
  util::SystemClock clock;
  netio::EventLoop loop(clock);
  std::atomic<bool> fired{false};
  loop.add_timer(clock.now() + 20 * kMillisecond, [&](Timestamp) {
    fired.store(true);
    return Timestamp{0};
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!fired.load() && std::chrono::steady_clock::now() < deadline) {
    loop.poll(10 * kMillisecond);
  }
  EXPECT_TRUE(fired.load());
}

// Regression: a timer handler that calls add_timer mid-dispatch (the
// reconnect/retry shape) inserts into the loop's timer map, which may
// rehash — dispatch must not hold an iterator across the call.
TEST(EventLoop, TimerHandlerMayAddTimersDuringDispatch) {
  util::ManualClock clock;
  netio::EventLoop loop(clock);
  std::atomic<int> fired{0};
  std::atomic<int> children{0};
  loop.add_timer(clock.now() + 10 * kMillisecond, [&](Timestamp now) {
    ++fired;
    // Burst of insertions to force a rehash while this handler's map
    // entry is the one being dispatched.
    for (int i = 0; i < 64; ++i) {
      loop.add_timer(now + 10 * kMillisecond, [&](Timestamp) {
        ++children;
        return Timestamp{0};
      });
    }
    return Timestamp{0};
  });
  clock.advance(15 * kMillisecond);
  loop.poll(0);
  EXPECT_EQ(fired.load(), 1);
  clock.advance(15 * kMillisecond);
  loop.poll(0);
  EXPECT_EQ(children.load(), 64);
}

// --- Loopback helpers -----------------------------------------------

/// Blocking client socket with a receive timeout, for driving servers
/// byte-by-byte from the test thread.
class BlockingClient {
 public:
  explicit BlockingClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
    timeval tv{5, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  ~BlockingClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }

  bool send_all(const void* data, size_t len) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    while (len > 0) {
      const ssize_t n = ::send(fd_, p, len, MSG_NOSIGNAL);
      if (n <= 0) return false;
      p += n;
      len -= static_cast<size_t>(n);
    }
    return true;
  }
  bool send_all(std::string_view s) { return send_all(s.data(), s.size()); }

  /// Read until `want` bytes arrive, the peer closes, or the timeout.
  std::string read_some(size_t want) {
    std::string out;
    char buf[4096];
    while (out.size() < want) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) break;
      out.append(buf, static_cast<size_t>(n));
    }
    return out;
  }

  /// True when the peer has terminated the connection within the
  /// timeout — a clean FIN (recv == 0) or an RST (ECONNRESET, which an
  /// injected reset produces when the server closes with unread data).
  bool peer_closed() {
    char buf[256];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n == 0) return true;
      if (n < 0) return errno == ECONNRESET || errno == EPIPE;
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

template <typename Pred>
bool wait_for(Pred pred, int timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

/// EventLoop on a background thread, started/joined RAII-style.
class LoopThread {
 public:
  explicit LoopThread(netio::EventLoop& loop) : loop_(loop) {
    thread_ = std::thread([this] { loop_.run(); });
  }
  ~LoopThread() { stop(); }
  void stop() {
    if (thread_.joinable()) {
      loop_.stop();
      thread_.join();
    }
  }

 private:
  netio::EventLoop& loop_;
  std::thread thread_;
};

// --- Sync over real sockets -----------------------------------------

TEST(NetioSync, ClientConvergesOverTcp) {
  telemetry::Registry registry;
  util::SystemClock clock;
  netio::EventLoop loop(clock);

  controlplane::DescriptorLog log;
  for (uint64_t i = 1; i <= 20; ++i) {
    cookies::CookieDescriptor d;
    d.cookie_id = i;
    d.key.assign(32, static_cast<uint8_t>(i));
    log.append_add(std::move(d));
  }
  controlplane::SyncServer server(log);

  netio::TcpServer::Config config;
  config.name = "sync-test";
  auto tcp = netio::TcpServer::create(loop, config,
                                      netio::sync_protocol(server),
                                      nullptr, registry);
  ASSERT_TRUE(tcp.has_value());
  const uint16_t port = (*tcp)->port();

  netio::TcpSyncTransport::Config tconfig;
  tconfig.port = port;
  netio::TcpSyncTransport transport(loop, tconfig);

  LoopThread driver(loop);

  controlplane::TablePublisher tables;
  controlplane::SyncClient::Config cconfig;
  cconfig.client_id = 42;
  cconfig.poll_interval = 10 * kMillisecond;
  cconfig.response_timeout = 100 * kMillisecond;
  controlplane::SyncClient client(clock, tables, cconfig,
                                  transport.send_fn());
  client.start();
  const bool converged = wait_for([&] {
    transport.poll([&](util::BytesView d) { client.on_datagram(d); });
    client.tick();
    return client.applied_version() == log.version();
  });
  EXPECT_TRUE(converged) << "applied=" << client.applied_version()
                         << " server=" << log.version();
  EXPECT_EQ(client.breaker_state(), controlplane::BreakerState::kClosed);

  // Live update propagates through the same socket.
  cookies::CookieDescriptor extra;
  extra.cookie_id = 99;
  extra.key.assign(32, 0x7f);
  log.append_add(std::move(extra));
  EXPECT_TRUE(wait_for([&] {
    transport.poll([&](util::BytesView d) { client.on_datagram(d); });
    client.tick();
    return client.applied_version() == log.version();
  }));

  const auto& metrics = (*tcp)->metrics();
  EXPECT_GE(metrics.accepts.value(), 1u);
  // The update usually lands as a push before the next poll; the
  // heartbeat poll keeps running on the same socket regardless.
  EXPECT_TRUE(wait_for([&] {
    transport.poll([&](util::BytesView d) { client.on_datagram(d); });
    client.tick();
    return metrics.frames.value() >= 2;
  }));

  driver.stop();
}

TEST(NetioSync, PushesFlowWhileAnotherThreadAppends) {
  // The log is written from a thread that is neither the loop nor the
  // client's: every append's observer posts to the loop, and the loop
  // writes coalesced Push frames. A 1 s poll keeps the heartbeat out of
  // the way, so the updates can only arrive by push.
  telemetry::Registry registry;
  util::SystemClock clock;
  netio::EventLoop loop(clock);
  controlplane::DescriptorLog log;
  for (uint64_t i = 1; i <= 10; ++i) {
    cookies::CookieDescriptor d;
    d.cookie_id = i;
    d.key.assign(32, static_cast<uint8_t>(i));
    log.append_add(std::move(d));
  }
  controlplane::SyncServer server(log);
  auto tcp = netio::TcpServer::create(loop, {}, netio::sync_protocol(server),
                                      nullptr, registry);
  ASSERT_TRUE(tcp.has_value());
  netio::TcpSyncTransport::Config tconfig;
  tconfig.port = (*tcp)->port();
  netio::TcpSyncTransport transport(loop, tconfig);
  LoopThread driver(loop);

  controlplane::TablePublisher tables;
  controlplane::SyncClient::Config cconfig;
  cconfig.client_id = 7;
  cconfig.poll_interval = kSecond;
  cconfig.response_timeout = 2 * kSecond;
  controlplane::SyncClient client(clock, tables, cconfig,
                                  transport.send_fn());
  client.start();
  const auto pump = [&] {
    transport.poll([&](util::BytesView d) { client.on_datagram(d); });
    client.tick();
  };
  ASSERT_TRUE(wait_for([&] {
    pump();
    return client.applied_version() == 10;
  }));

  constexpr uint64_t kUpdates = 400;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (uint64_t i = 0; i < kUpdates; ++i) {
      if (i % 2 == 0) {
        cookies::CookieDescriptor d;
        d.cookie_id = 100 + i;
        d.key.assign(32, static_cast<uint8_t>(i));
        log.append_add(std::move(d));
      } else {
        log.append_revoke(100 + i - 1);
      }
      if (i % 16 == 0) std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    done.store(true, std::memory_order_release);
  });
  // Pump while the writer runs, then until the client is at the head.
  while (!done.load(std::memory_order_acquire)) {
    pump();
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  writer.join();
  EXPECT_TRUE(wait_for([&] {
    pump();
    return client.applied_version() == log.version();
  }, 900));  // inside one poll interval: pushes, not the heartbeat

  EXPECT_EQ(client.applied_version(), 10 + kUpdates);
  EXPECT_GT(server.pushes_sent(), 0u);
  EXPECT_GT(client.pushes_received(), 0u);
  EXPECT_LE(server.pushes_sent(), kUpdates);
  EXPECT_EQ(client.retries(), 0u);
  const cookies::DescriptorTable* table = tables.peek();
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->version(), log.version());
  for (uint64_t i = 0; i < kUpdates; i += 2) {
    ASSERT_NE(table->find(100 + i), nullptr) << i;
    EXPECT_TRUE(table->find(100 + i)->revoked) << i;
  }
  driver.stop();
}

TEST(NetioSync, FirstPollSentWhileConnectingIsNotLost) {
  // The client's first poll is posted before the loop has resolved the
  // non-blocking connect (both posts are queued before the loop thread
  // starts). The transport must hold the datagram until the connect
  // completes, so the client converges on its first request with no
  // response timeout and no retry.
  telemetry::Registry registry;
  util::SystemClock clock;
  netio::EventLoop loop(clock);

  controlplane::DescriptorLog log;
  for (uint64_t i = 1; i <= 5; ++i) {
    cookies::CookieDescriptor d;
    d.cookie_id = i;
    d.key.assign(32, static_cast<uint8_t>(i));
    log.append_add(std::move(d));
  }
  controlplane::SyncServer server(log);
  auto tcp = netio::TcpServer::create(loop, {}, netio::sync_protocol(server),
                                      nullptr, registry);
  ASSERT_TRUE(tcp.has_value());

  netio::TcpSyncTransport::Config tconfig;
  tconfig.port = (*tcp)->port();
  netio::TcpSyncTransport transport(loop, tconfig);

  controlplane::TablePublisher tables;
  controlplane::SyncClient::Config cconfig;
  cconfig.client_id = 43;
  // Far above a loopback round trip: a retry here can only mean the
  // first request was lost.
  cconfig.response_timeout = 2 * kSecond;
  controlplane::SyncClient client(clock, tables, cconfig,
                                  transport.send_fn());
  client.start();  // queued behind the transport's connect

  LoopThread driver(loop);
  const bool converged = wait_for([&] {
    transport.poll([&](util::BytesView d) { client.on_datagram(d); });
    client.tick();
    return client.applied_version() == log.version();
  });
  EXPECT_TRUE(converged) << "applied=" << client.applied_version()
                         << " server=" << log.version();
  EXPECT_EQ(client.retries(), 0u);
  driver.stop();
}

TEST(NetioSync, MalformedFrameClosesConnection) {
  telemetry::Registry registry;
  util::SystemClock clock;
  netio::EventLoop loop(clock);
  controlplane::DescriptorLog log;
  controlplane::SyncServer server(log);
  auto tcp = netio::TcpServer::create(loop, {}, netio::sync_protocol(server),
                                      nullptr, registry);
  ASSERT_TRUE(tcp.has_value());
  LoopThread driver(loop);

  BlockingClient client((*tcp)->port());
  ASSERT_TRUE(client.connected());
  const char garbage[] = "GET / HTTP/1.1\r\n\r\n";  // not sync framing
  ASSERT_TRUE(client.send_all(garbage, sizeof(garbage) - 1));
  EXPECT_TRUE(client.peer_closed());
  EXPECT_TRUE(wait_for(
      [&] { return (*tcp)->metrics().closes.value() >= 1u; }));
  driver.stop();
}

TEST(NetioSync, OversizedFrameLengthRejectedBeforeBuffering) {
  telemetry::Registry registry;
  util::SystemClock clock;
  netio::EventLoop loop(clock);
  controlplane::DescriptorLog log;
  controlplane::SyncServer server(log);
  auto tcp = netio::TcpServer::create(loop, {}, netio::sync_protocol(server),
                                      nullptr, registry);
  ASSERT_TRUE(tcp.has_value());
  LoopThread driver(loop);

  BlockingClient client((*tcp)->port());
  ASSERT_TRUE(client.connected());
  // Valid magic/version, hostile length: 0xffffffff.
  const uint8_t evil[8] = {0x4e, 0x43, 0x01, 0x00, 0xff, 0xff, 0xff, 0xff};
  ASSERT_TRUE(client.send_all(evil, sizeof(evil)));
  EXPECT_TRUE(client.peer_closed());
  driver.stop();
}

// --- HTTP endpoint ---------------------------------------------------

TEST(NetioHttp, KeepAliveAcrossSplitReads) {
  telemetry::Registry registry;
  util::SystemClock clock;
  netio::EventLoop loop(clock);
  controlplane::DescriptorLog log;
  server::CookieServer cookie_server(clock, 1, &log);
  server::JsonApi api(cookie_server, registry);
  auto tcp = netio::TcpServer::create(loop, {}, netio::http_protocol(api),
                                      nullptr, registry);
  ASSERT_TRUE(tcp.has_value());
  LoopThread driver(loop);

  BlockingClient client((*tcp)->port());
  ASSERT_TRUE(client.connected());

  // Request 1, delivered in three fragments with pauses: the endpoint
  // must buffer across reads.
  ASSERT_TRUE(client.send_all("GET /metr"));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(client.send_all("ics HTTP/1.1\r\nHost: lo"));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(client.send_all("calhost\r\n\r\n"));

  std::string head = client.read_some(15);  // "HTTP/1.1 200 OK"
  ASSERT_GE(head.size(), 15u);
  EXPECT_EQ(head.substr(0, 15), "HTTP/1.1 200 OK");
  // Drain the rest of response 1 using its Content-Length.
  std::string rest = head;
  while (true) {
    const auto parsed = net::http::Response::parse(rest);
    if (parsed && parsed->header("Content-Length")) {
      const size_t cl = std::stoul(*parsed->header("Content-Length"));
      if (parsed->body.size() >= cl) break;
    }
    const std::string more = client.read_some(1);
    if (more.empty()) break;
    rest += more;
  }

  // Request 2 on the SAME connection (keep-alive): a POST with a split
  // body.
  const std::string body = R"({"method":"list_services"})";
  std::string post = "POST / HTTP/1.1\r\nHost: localhost\r\nContent-Length: " +
                     std::to_string(body.size()) + "\r\n\r\n";
  ASSERT_TRUE(client.send_all(post));
  ASSERT_TRUE(client.send_all(body.substr(0, 5)));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(client.send_all(body.substr(5)));
  const std::string second = client.read_some(15);
  ASSERT_GE(second.size(), 15u);
  EXPECT_EQ(second.substr(0, 15), "HTTP/1.1 200 OK");

  EXPECT_TRUE(wait_for(
      [&] { return (*tcp)->metrics().http_requests.value() >= 2u; }));
  // One connection served both requests.
  EXPECT_EQ((*tcp)->metrics().accepts.value(), 1u);
  driver.stop();
}

TEST(NetioHttp, BadRequestGets400AndClose) {
  telemetry::Registry registry;
  util::SystemClock clock;
  netio::EventLoop loop(clock);
  controlplane::DescriptorLog log;
  server::CookieServer cookie_server(clock, 1, &log);
  server::JsonApi api(cookie_server, registry);
  auto tcp = netio::TcpServer::create(loop, {}, netio::http_protocol(api),
                                      nullptr, registry);
  ASSERT_TRUE(tcp.has_value());
  LoopThread driver(loop);

  BlockingClient client((*tcp)->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_all("NOT AN HTTP LINE\r\n\r\n"));
  const std::string reply = client.read_some(12);
  ASSERT_GE(reply.size(), 12u);
  EXPECT_EQ(reply.substr(0, 12), "HTTP/1.1 400");
  EXPECT_TRUE(client.peer_closed());
  driver.stop();
}

// --- Admission control and timeouts ---------------------------------

TEST(NetioAdmission, ConnectionCeilingSheds) {
  telemetry::Registry registry;
  util::SystemClock clock;
  netio::EventLoop loop(clock);
  controlplane::DescriptorLog log;
  controlplane::SyncServer server(log);
  netio::TcpServer::Config config;
  config.max_connections = 2;
  auto tcp = netio::TcpServer::create(loop, config,
                                      netio::sync_protocol(server),
                                      nullptr, registry);
  ASSERT_TRUE(tcp.has_value());
  LoopThread driver(loop);

  std::vector<std::unique_ptr<BlockingClient>> clients;
  for (int i = 0; i < 5; ++i) {
    clients.push_back(std::make_unique<BlockingClient>((*tcp)->port()));
    ASSERT_TRUE(clients.back()->connected());
  }
  EXPECT_TRUE(wait_for([&] {
    const auto& m = (*tcp)->metrics();
    return m.accepts.value() + m.accept_shed.value() >= 5u;
  }));
  const auto& m = (*tcp)->metrics();
  EXPECT_EQ(m.accepts.value(), 2u);
  EXPECT_EQ(m.accept_shed.value(), 3u);
  driver.stop();
}

TEST(NetioAdmission, IdleTimeoutReclaims) {
  telemetry::Registry registry;
  util::SystemClock clock;
  netio::EventLoop loop(clock);
  controlplane::DescriptorLog log;
  controlplane::SyncServer server(log);
  netio::TcpServer::Config config;
  config.limits.handshake_timeout = 50 * kMillisecond;
  auto tcp = netio::TcpServer::create(loop, config,
                                      netio::sync_protocol(server),
                                      nullptr, registry);
  ASSERT_TRUE(tcp.has_value());
  LoopThread driver(loop);

  BlockingClient client((*tcp)->port());
  ASSERT_TRUE(client.connected());
  // Say nothing: the handshake deadline must reclaim the connection.
  EXPECT_TRUE(client.peer_closed());
  EXPECT_TRUE(wait_for(
      [&] { return (*tcp)->metrics().handshake_timeouts.value() >= 1u; }));
  driver.stop();
}

// --- Injected socket faults -----------------------------------------

TEST(NetioFaults, InjectedResetKillsConnections) {
  telemetry::Registry registry;
  util::SystemClock clock;
  netio::EventLoop loop(clock);
  controlplane::DescriptorLog log;
  controlplane::SyncServer server(log);

  fault::Injector injector(registry);
  fault::FaultPlan plan;
  fault::FaultEvent reset;
  reset.kind = fault::FaultKind::kConnReset;
  reset.start = clock.now();
  reset.duration = 60 * kSecond;  // covers the whole test
  reset.magnitude = 1.0;          // every connection dies
  plan.add(reset);
  injector.arm(plan, 1);

  auto tcp = netio::TcpServer::create(loop, {}, netio::sync_protocol(server),
                                      &injector, registry);
  ASSERT_TRUE(tcp.has_value());
  LoopThread driver(loop);

  BlockingClient client((*tcp)->port());
  ASSERT_TRUE(client.connected());
  util::Bytes frame;
  net::append_sync_frame(frame, 1, util::BytesView());
  ASSERT_TRUE(client.send_all(frame.data(), frame.size()));
  EXPECT_TRUE(client.peer_closed());
  EXPECT_TRUE(wait_for(
      [&] { return (*tcp)->metrics().resets.value() >= 1u; }));
  EXPECT_GE(injector.injected(fault::FaultKind::kConnReset), 1u);
  driver.stop();
}

TEST(NetioFaults, AcceptStallDefersAdmissionThenRecovers) {
  telemetry::Registry registry;
  util::SystemClock clock;
  netio::EventLoop loop(clock);
  controlplane::DescriptorLog log;
  controlplane::SyncServer server(log);

  fault::Injector injector(registry);
  fault::FaultPlan plan;
  fault::FaultEvent stall;
  stall.kind = fault::FaultKind::kAcceptStall;
  stall.start = 0;
  stall.duration = 200 * kMillisecond;
  const Timestamp t0 = clock.now();
  stall.start = t0;
  plan.add(stall);
  injector.arm(plan, 1);

  auto tcp = netio::TcpServer::create(loop, {}, netio::sync_protocol(server),
                                      &injector, registry);
  ASSERT_TRUE(tcp.has_value());
  LoopThread driver(loop);

  BlockingClient client((*tcp)->port());
  ASSERT_TRUE(client.connected());  // SYN queues in the kernel backlog
  // While the stall is active nothing is accepted...
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ((*tcp)->metrics().accepts.value(), 0u);
  // ...and after it lifts, the backlog drains.
  EXPECT_TRUE(wait_for(
      [&] { return (*tcp)->metrics().accepts.value() >= 1u; }));
  driver.stop();
}

}  // namespace
}  // namespace nnn
