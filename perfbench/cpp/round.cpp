#include "round.h"

#include <malloc.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <thread>
#include <unordered_map>

#include "cookies/cookie.h"
#include "cookies/transport.h"
#include "crypto/hmac.h"
#include "crypto/uuid.h"
#include "json/json.h"
#include "netio/socket.h"
#include "program.h"
#include "stats.h"
#include "util/rng.h"

namespace perfbench {

namespace nu = nnn::util;
using nnn::cookies::VerifyStatus;

namespace {

constexpr uint32_t kUserBit = 0x80000000u;
constexpr int64_t kHoldNs = 10'000'000;          // boosted user holds 10 ms
constexpr int64_t kSendEveryNs = 1'000'000;      // user packet every 1 ms
constexpr int64_t kTailBudgetNs = 3'000'000'000;  // users must finish by then
constexpr int64_t kServiceEveryNs = 20'000;      // open-loop service period
constexpr int64_t kHttpPollEveryNs = 50'000;
// Phase A keeps at most this many packets in flight (ingested, verdict
// not yet seen). The rings are sized to ride out host stalls in phase B;
// filled in phase A, they would queue a user's packet behind 100k others.
constexpr uint64_t kClosedLoopWindow = 4096;

/// Bytes the process holds through malloc, over all arenas. The program
/// maps no memory of its own, so this is all of its heap.
double heap_mib() {
  const struct mallinfo2 m = ::mallinfo2();
  return static_cast<double>(m.uordblks + m.hblkhd) / (1024.0 * 1024.0);
}

/// Minimal keep-alive HTTP/1.1 client on a non-blocking socket, polled
/// from the producer thread. Responses come back in request order.
class HttpClient {
 public:
  bool connect(uint16_t port) {
    auto fd = nnn::netio::connect_tcp("127.0.0.1", port);
    if (!fd) return false;
    fd_ = std::move(*fd);
    pollfd p{fd_.get(), POLLOUT, 0};
    if (::poll(&p, 1, 2000) != 1) return false;
    return nnn::netio::connect_result(fd_.get()).code == nnn::ErrorCode::kOk;
  }

  void post(const std::string& body) {
    out_ += "POST / HTTP/1.1\r\nHost: perfbench\r\n"
            "Content-Type: application/json\r\nContent-Length: ";
    out_ += std::to_string(body.size());
    out_ += "\r\n\r\n";
    out_ += body;
    flush();
  }

  template <class F>
  void poll(F&& on_body) {
    flush();
    char buf[16384];
    for (;;) {
      const ssize_t n = ::recv(fd_.get(), buf, sizeof(buf), MSG_DONTWAIT);
      if (n <= 0) break;
      in_.append(buf, static_cast<size_t>(n));
    }
    for (;;) {
      const size_t end = in_.find("\r\n\r\n");
      if (end == std::string::npos) return;
      size_t length = 0;
      std::string head = in_.substr(0, end);
      std::transform(head.begin(), head.end(), head.begin(), ::tolower);
      const size_t cl = head.find("content-length:");
      if (cl != std::string::npos) {
        length = std::strtoull(head.c_str() + cl + 15, nullptr, 10);
      }
      if (in_.size() < end + 4 + length) return;
      on_body(std::string_view(in_.data() + end + 4, length));
      in_.erase(0, end + 4 + length);
    }
  }

 private:
  void flush() {
    while (sent_ < out_.size()) {
      const ssize_t n = ::send(fd_.get(), out_.data() + sent_,
                               out_.size() - sent_, MSG_NOSIGNAL);
      if (n <= 0) break;
      sent_ += static_cast<size_t>(n);
    }
    if (sent_ == out_.size()) {
      out_.clear();
      sent_ = 0;
    }
  }

  nnn::netio::Fd fd_;
  std::string out_;
  size_t sent_ = 0;
  std::string in_;
};

enum class UserState : uint8_t {
  kScheduled,
  kAcquiring,
  kBoosting,
  kHolding,
  kRevoking,
  kDone,
  kFailed,
};

struct User {
  UserState state = UserState::kScheduled;
  int64_t due_ns = 0;  // acquire due (open-loop arrival)
  nnn::cookies::CookieId cookie_id = 0;
  nnn::crypto::HmacKeySchedule schedule;
  int64_t next_send_ns = 0;
  int64_t boosted_ns = 0;      // first kOk verdict visible
  int64_t revoke_due_ns = 0;
  int64_t revoke_sent_ns = 0;
  bool revoke_acked = false;
  int64_t denied_ns = 0;       // first non-kOk verdict after the revoke
  uint32_t packets = 0;
  uint32_t uid = 0;
};

struct UserPacket {
  uint32_t user = 0;
  int64_t sent_ns = 0;
  uint64_t table_version = 0;  // published table version at ingest
  bool ok = false;
};

struct UserVerdict {
  uint32_t packet = 0;
  int64_t at_ns = 0;
  VerifyStatus status = VerifyStatus::kUnknownId;
};

struct Pending {
  uint32_t user = 0;
  bool revoke = false;
  int64_t sent_ns = 0;
};

class Round {
 public:
  Round(const Trace& trace, uint64_t seed, uint32_t round, Tracer* tracer)
      : trace_(trace),
        spec_(trace.spec),
        seed_(seed),
        round_(round),
        tracer_(tracer),
        rng_(seed * 0x9e3779b97f4a7c15ull + round) {}

  RoundResult run();

 private:
  void drain_verdicts();
  void note_shed(size_t trace_index);
  void service(int64_t now, bool blocking);
  void user_tick(int64_t now, bool blocking);
  void send_user_packet(User& u, int64_t now, bool blocking);
  void on_response(std::string_view body, int64_t now);
  void on_user_verdict(const UserVerdict& v);
  bool users_finished() const;
  void check(bool ok, const std::string& what) {
    if (!ok) out_.failed_checks.push_back(what);
  }
  void finish_users();

  const Trace& trace_;
  const WorkloadSpec& spec_;
  const uint64_t seed_;
  const uint32_t round_;
  Tracer* tracer_;
  nu::Rng rng_;
  RoundResult out_;
  std::unique_ptr<Program> prog_;
  nnn::controlplane::TablePublisher::Reader reader_;
  HttpClient http_;

  // Producer-side books.
  uint64_t packets_attempted_ = 0;
  uint64_t packets_ingested_ = 0;  // not shed; each yields one verdict
  uint64_t requests_attempted_ = 0;
  uint64_t request_failures_ = 0;
  std::vector<User> users_;
  size_t next_arrival_ = 0;
  size_t users_total_ = 0;
  int64_t traffic_start_ns_ = 0;
  std::vector<uint32_t> active_;  // users currently sending
  std::vector<UserPacket> user_packets_;
  std::deque<Pending> pending_;
  std::vector<LogEvent> log_events_;
  std::vector<ApplyEvent> apply_events_;
  uint32_t phase_span_ = Tracer::kNoParent;
  int64_t last_http_poll_ns_ = 0;
  int64_t next_user_event_ns_ = 0;  // user_tick has nothing to do before

  // Verdict collection (producer thread).
  std::vector<nnn::runtime::VerdictRecord> verdict_batch_;
  uint64_t verdicts_seen_ = 0;
  int64_t phase_b_start_ns_ = 0;
  double period_ns_ = 0;
  std::vector<int64_t> latency_ns_;
  uint64_t trace_cookies_seen_ = 0;
  uint64_t trace_cookies_ok_ = 0;
  // Per QUIC connection: post-handshake verdicts, boosted ones, and
  // whether any of its packets was shed (fail-open: a shed handshake or
  // rotation marker legitimately leaves the connection unboosted).
  std::vector<uint32_t> conn_post_handshake_;
  std::vector<uint32_t> conn_survived_;
  std::vector<uint8_t> conn_shed_;
  uint64_t shed_trace_cookies_ = 0;
};

void Round::drain_verdicts() {
  verdict_batch_.clear();
  prog_->plane().drain_verdicts(verdict_batch_);
  if (verdict_batch_.empty()) return;
  verdicts_seen_ += verdict_batch_.size();
  const int64_t now = now_ns();
  for (const auto& v : verdict_batch_) {
    if (v.seq & kUserBit) {
      on_user_verdict(
          UserVerdict{v.seq & ~kUserBit, now,
                      v.verify_status.value_or(VerifyStatus::kUnknownId)});
      continue;
    }
    const TracePacket& p = trace_.packets[v.seq];
    if (p.cookie != kNone) {
      ++trace_cookies_seen_;
      if (v.verify_status == VerifyStatus::kOk) ++trace_cookies_ok_;
    }
    if (p.quic != kNone) {
      const QuicFields& q = trace_.quic[p.quic];
      if (trace_.quic_conn_has_cookie[q.conn] && !q.long_header) {
        ++conn_post_handshake_[q.conn];
        conn_survived_[q.conn] += v.has_action;
      }
    }
    if (v.seq >= trace_.phase_a_end) {
      const int64_t k = static_cast<int64_t>(v.seq) -
                        static_cast<int64_t>(trace_.phase_a_end);
      latency_ns_.push_back(now - phase_b_start_ns_ -
                            std::llround(static_cast<double>(k) * period_ns_));
    }
  }
}

void Round::note_shed(size_t index) {
  const TracePacket& p = trace_.packets[index];
  shed_trace_cookies_ += p.cookie != kNone;
  if (p.quic != kNone) conn_shed_[trace_.quic[p.quic].conn] = 1;
}

void Round::on_user_verdict(const UserVerdict& v) {
  UserPacket& p = user_packets_[v.packet];
  p.ok = v.status == VerifyStatus::kOk;
  User& u = users_[p.user];
  if (p.ok) {
    if (u.boosted_ns == 0) {
      u.boosted_ns = v.at_ns;
      if (u.state == UserState::kBoosting) {
        u.state = UserState::kHolding;
        u.revoke_due_ns = v.at_ns + kHoldNs;
        next_user_event_ns_ = std::min(next_user_event_ns_, u.revoke_due_ns);
      }
    }
  } else if (u.revoke_sent_ns != 0 && p.sent_ns >= u.revoke_sent_ns &&
             u.denied_ns == 0) {
    u.denied_ns = v.at_ns;
    if (u.state == UserState::kRevoking && u.revoke_acked) {
      u.state = UserState::kDone;
    }
  }
}

void Round::on_response(std::string_view body, int64_t now) {
  if (pending_.empty()) return;
  const Pending req = pending_.front();
  pending_.pop_front();
  User& u = users_[req.user];
  const auto parsed = nnn::json::parse(body);
  const bool ok = parsed && parsed->get_bool("ok");
  const double rtt_us = static_cast<double>(now - req.sent_ns) / 1e3;
  if (tracer_) {
    tracer_->add(req.revoke ? "server.revoke" : "server.acquire",
                 Tracer::kNoParent, u.uid, req.sent_ns, now);
  }
  if (!req.revoke) {
    out_.acquire_rtt_us.push_back(rtt_us);
    const nnn::json::Value* d = ok ? parsed->find("descriptor") : nullptr;
    const auto descriptor =
        d ? nnn::cookies::CookieDescriptor::from_json(*d) : std::nullopt;
    if (!descriptor) {
      ++request_failures_;
      u.state = UserState::kFailed;
      return;
    }
    u.cookie_id = descriptor->cookie_id;
    u.schedule = nnn::crypto::HmacKeySchedule(nu::BytesView(descriptor->key));
    u.state = UserState::kBoosting;
    u.next_send_ns = now;
    next_user_event_ns_ = now;
    active_.push_back(req.user);
    return;
  }
  out_.revoke_rtt_us.push_back(rtt_us);
  if (!ok) {
    ++request_failures_;
    u.state = UserState::kFailed;
    return;
  }
  u.revoke_acked = true;
  if (u.denied_ns != 0) u.state = UserState::kDone;
}

void Round::send_user_packet(User& u, int64_t now, bool blocking) {
  auto& plane = prog_->plane();
  nnn::runtime::PacketHandle h = plane.make_packet();
  while (!h && blocking) h = plane.make_packet();
  ++packets_attempted_;
  if (!h) {
    plane.ingest(std::move(h));  // counted as shed
    return;
  }
  nnn::net::Packet& p = *h;
  const uint32_t index = static_cast<uint32_t>(user_packets_.size());
  p.tuple.src_ip = nnn::net::IpAddress::v4(0x0ac80000u | (u.uid & 0xffff));
  p.tuple.dst_ip = nnn::net::IpAddress::v4(198, 51, 100, 7);
  p.tuple.src_port = static_cast<uint16_t>(1024 + (u.packets++ % 60000));
  p.tuple.dst_port = 443;
  p.tuple.proto = nnn::net::L4Proto::kUdp;
  // The user's cookie is minted here: its key only exists once the
  // acquire has returned, so it cannot be minted before the round.
  nnn::cookies::Cookie cookie;
  cookie.cookie_id = u.cookie_id;
  cookie.uuid = nnn::crypto::Uuid::generate(rng_);
  cookie.timestamp = nnn::cookies::to_cookie_time(prog_->clock().now());
  cookie.signature = cookie.compute_tag(u.schedule);
  nnn::cookies::attach(p, cookie, nnn::cookies::Transport::kUdpHeader);
  p.wire_size = spec_.wire_size;
  p.seq = kUserBit | index;
  const uint64_t version = reader_.acquire()->version();
  reader_.park();
  user_packets_.push_back(UserPacket{static_cast<uint32_t>(&u - users_.data()),
                                     now, version, false});
  if (blocking) {
    plane.ingest_blocking(std::move(h));
    ++packets_ingested_;
  } else if (plane.ingest(std::move(h))) {
    ++packets_ingested_;
  }
}

void Round::user_tick(int64_t now, bool blocking) {
  while (next_arrival_ < users_total_ && users_[next_arrival_].due_ns <= now) {
    User& u = users_[next_arrival_++];
    char body[128];
    std::snprintf(body, sizeof(body),
                  R"({"method":"acquire","service":"Boost","user":"r%u-u%u"})",
                  round_, u.uid);
    http_.post(body);
    u.state = UserState::kAcquiring;
    pending_.push_back(Pending{u.uid, false, now});
    ++requests_attempted_;
  }
  int64_t next = next_arrival_ < users_total_ ? users_[next_arrival_].due_ns
                                              : INT64_MAX;
  for (size_t i = 0; i < active_.size();) {
    User& u = users_[active_[i]];
    if (u.state == UserState::kHolding && now >= u.revoke_due_ns) {
      char body[128];
      std::snprintf(
          body, sizeof(body),
          R"({"method":"revoke","cookie_id":"%llu","reason":"perfbench"})",
          static_cast<unsigned long long>(u.cookie_id));
      http_.post(body);
      u.revoke_sent_ns = now;
      u.state = UserState::kRevoking;
      pending_.push_back(Pending{u.uid, true, now});
      ++requests_attempted_;
    }
    const bool sending = u.state == UserState::kBoosting ||
                         u.state == UserState::kHolding ||
                         (u.state == UserState::kRevoking && u.denied_ns == 0);
    if (!sending) {
      active_[i] = active_.back();
      active_.pop_back();
      continue;
    }
    if (now >= u.next_send_ns) {
      send_user_packet(u, now, blocking);
      u.next_send_ns += kSendEveryNs;
      if (u.next_send_ns < now) u.next_send_ns = now + kSendEveryNs;
    }
    next = std::min(next, u.next_send_ns);
    if (u.state == UserState::kHolding) next = std::min(next, u.revoke_due_ns);
    ++i;
  }
  next_user_event_ns_ = next;
}

void Round::service(int64_t now, bool blocking) {
  drain_verdicts();
  if (!pending_.empty() && now - last_http_poll_ns_ >= kHttpPollEveryNs) {
    last_http_poll_ns_ = now;
    http_.poll([&](std::string_view body) { on_response(body, now_ns()); });
  }
  if (now >= next_user_event_ns_) user_tick(now, blocking);
}

bool Round::users_finished() const {
  if (next_arrival_ < users_total_) return false;
  for (const User& u : users_) {
    if (u.state != UserState::kDone && u.state != UserState::kFailed) {
      return false;
    }
  }
  return true;
}

void Round::finish_users() {
  prog_->take_events(log_events_, apply_events_);
  std::unordered_map<nnn::cookies::CookieId, LogEvent> grants, revokes;
  for (const auto& e : log_events_) (e.revoke ? revokes : grants)[e.id] = e;
  // First time the published table reached a version.
  const auto applied_at = [&](uint64_t version) -> int64_t {
    for (const auto& a : apply_events_) {
      if (a.version >= version) return a.at_ns;
    }
    return 0;
  };
  const auto sync_wait = [&](const LogEvent& e, uint64_t uid) -> int64_t {
    const int64_t applied = applied_at(e.version);
    if (applied == 0) return 0;
    out_.sync_wait_ms.push_back(static_cast<double>(applied - e.at_ns) / 1e6);
    if (tracer_) {
      tracer_->add("controlplane.sync_wait", Tracer::kNoParent, uid, e.at_ns,
                   applied);
    }
    return applied;
  };
  uint64_t not_acquired = 0, never_boosted = 0, never_denied = 0;
  for (const User& u : users_) {
    if (u.cookie_id == 0) {
      ++not_acquired;
      continue;
    }
    if (u.boosted_ns == 0) {
      ++never_boosted;
      continue;
    }
    out_.boost_ms.push_back(static_cast<double>(u.boosted_ns - u.due_ns) / 1e6);
    if (u.denied_ns == 0 || !u.revoke_acked) {
      ++never_denied;
    } else {
      out_.revoke_ms.push_back(
          static_cast<double>(u.denied_ns - u.revoke_sent_ns) / 1e6);
    }
    if (tracer_) {
      tracer_->add("bench.user", Tracer::kNoParent, u.uid, u.due_ns,
                   std::max(u.denied_ns, u.boosted_ns));
    }
    const auto g = grants.find(u.cookie_id);
    if (g != grants.end()) {
      const int64_t applied = sync_wait(g->second, u.uid);
      if (applied != 0) {
        out_.publish_to_verdict_ms.push_back(
            static_cast<double>(u.boosted_ns - applied) / 1e6);
        if (tracer_) {
          tracer_->add("controlplane.publish_to_verdict", Tracer::kNoParent,
                       u.uid, applied, u.boosted_ns);
        }
      }
    }
    const auto r = revokes.find(u.cookie_id);
    if (r != revokes.end()) sync_wait(r->second, u.uid);
  }
  // No packet ingested after the revoke's version was published may be
  // boosted.
  uint64_t late_boosts = 0;
  for (const UserPacket& p : user_packets_) {
    const auto r = revokes.find(users_[p.user].cookie_id);
    if (r != revokes.end() && p.table_version >= r->second.version && p.ok) {
      ++late_boosts;
    }
  }
  check(request_failures_ == 0,
        "acquire/revoke refused or failed: " + std::to_string(request_failures_));
  check(not_acquired == 0, "users without a descriptor: " +
                               std::to_string(not_acquired) + " of " +
                               std::to_string(users_total_));
  check(never_boosted == 0,
        "acquired users never boosted: " + std::to_string(never_boosted));
  check(never_denied == 0,
        "revoked users never denied: " + std::to_string(never_denied));
  check(late_boosts == 0, "packets boosted after their revoke was applied: " +
                              std::to_string(late_boosts));
  out_.failed += not_acquired + never_boosted + never_denied;
}

RoundResult Round::run() {
  const double heap0 = heap_mib();
  uint32_t round_span = Tracer::kNoParent;
  uint32_t setup_span = Tracer::kNoParent;
  if (tracer_) {
    round_span = tracer_->open("bench.round");
    setup_span = tracer_->open("bench.setup", round_span);
  }
  const int64_t setup_start = now_ns();
  prog_ = std::make_unique<Program>(trace_, seed_, tracer_, setup_span);
  out_.setup_s = static_cast<double>(now_ns() - setup_start) / 1e9;
  if (tracer_) tracer_->close(setup_span);
  if (!prog_->ok()) {
    check(false, "program set-up: " + prog_->error());
    return out_;
  }
  auto& plane = prog_->plane();
  reader_ = prog_->publisher().register_reader();
  if (!http_.connect(prog_->http_port())) {
    check(false, "HTTP connect to the JSON API failed");
    return out_;
  }

  users_total_ = static_cast<size_t>(
      std::llround(spec_.user_rate * spec_.user_window_s));
  users_.resize(users_total_);
  const size_t phase_b_packets = trace_.packets.size() - trace_.phase_a_end;
  latency_ns_.reserve(phase_b_packets);
  period_ns_ = 1e9 / spec_.phase_b_rate;
  verdict_batch_.reserve(1 << 16);
  const size_t conns = trace_.quic_conn_has_cookie.size();
  conn_post_handshake_.assign(conns, 0);
  conn_survived_.assign(conns, 0);
  conn_shed_.assign(conns, 0);

  // Users arrive open loop at the workload's rate: user i at a point
  // drawn uniformly within the i-th 1/rate slot, so arrivals never
  // bunch up while their phase against the sync poll timer still mixes.
  traffic_start_ns_ = now_ns();
  for (size_t i = 0; i < users_total_; ++i) {
    users_[i].uid = static_cast<uint32_t>(i);
    users_[i].due_ns =
        traffic_start_ns_ +
        std::llround((static_cast<double>(i) + rng_.next_double()) * 1e9 /
                     spec_.user_rate);
  }
  const bool traced = tracer_ != nullptr;
  std::vector<int8_t> conn_worker;
  std::vector<uint8_t> conn_moved;
  if (traced) {
    conn_worker.assign(trace_.quic_conn_has_cookie.size(), -1);
    conn_moved.assign(trace_.quic_conn_has_cookie.size(), 0);
  }
  nnn::net::Packet scratch;
  const auto route_check = [&](size_t i) {
    const TracePacket& tp = trace_.packets[i];
    // Every eighth connection is followed, to bound the tracing cost.
    if (tp.quic == kNone || trace_.quic[tp.quic].conn % 8 != 0) return;
    scratch = nnn::net::Packet{};
    fill_packet(trace_, i, scratch);
    const auto worker = static_cast<int8_t>(plane.route(scratch));
    int8_t& seen = conn_worker[trace_.quic[tp.quic].conn];
    if (seen == -1) seen = worker;
    if (seen != worker) conn_moved[trace_.quic[tp.quic].conn] = 1;
  };

  // Phase A: closed loop, loss-free, fixed packet count.
  if (traced) phase_span_ = tracer_->open("bench.phase_a", round_span);
  const auto before_a = plane.snapshot().totals();
  const int64_t a_start = now_ns();
  // kPpsSlices equal slices, each timed from the producer reaching its
  // first packet to reaching the next slice's (the last one to the end of
  // the drain), and rated by the packets the workers delivered meanwhile.
  const size_t slice = trace_.phase_a_end / kPpsSlices;
  int64_t slice_start = a_start;
  uint64_t slice_processed = before_a.processed;
  const auto close_slice = [&] {
    const int64_t t = now_ns();
    const uint64_t processed = plane.snapshot().totals().processed;
    out_.pps_slices.push_back(
        static_cast<double>(processed - slice_processed) /
        (static_cast<double>(t - slice_start) / 1e9));
    slice_start = t;
    slice_processed = processed;
  };
  for (size_t i = 0; i < trace_.phase_a_end; ++i) {
    if ((i & 255) == 0) service(now_ns(), true);
    if (i != 0 && i % slice == 0 && out_.pps_slices.size() + 1 < kPpsSlices) {
      close_slice();
    }
    while (packets_ingested_ - verdicts_seen_ >= kClosedLoopWindow) {
      drain_verdicts();
    }
    const bool sample = traced && (i & 63) == 0;
    const int64_t t0 = sample ? now_ns() : 0;
    nnn::runtime::PacketHandle h = plane.make_packet();
    while (!h) h = plane.make_packet();  // workers are returning slots
    fill_packet(trace_, i, *h);
    plane.ingest_blocking(std::move(h));
    ++packets_ingested_;
    if (sample) tracer_->add("runtime.ingest", phase_span_, 0, t0, now_ns());
    if (traced) route_check(i);
  }
  packets_attempted_ += trace_.phase_a_end;
  plane.drain();
  close_slice();
  const int64_t a_end = now_ns();
  const auto after_a = plane.snapshot().totals();
  out_.pps = static_cast<double>(after_a.processed - before_a.processed) /
             (static_cast<double>(a_end - a_start) / 1e9);
  // Over the closed-loop phase: near 1 means the workers limit pps,
  // well below 1 that the producer does.
  out_.worker_busy_ratio =
      static_cast<double>(after_a.busy_micros - before_a.busy_micros) /
      (static_cast<double>(plane.worker_count()) *
       static_cast<double>(a_end - a_start) / 1e3);
  if (traced) tracer_->close(phase_span_);

  // Phase B: open loop at the workload's fixed rate, shed on full rings.
  if (traced) phase_span_ = tracer_->open("bench.phase_b", round_span);
  const int64_t b_start = now_ns() + 200'000;
  phase_b_start_ns_ = b_start;
  int64_t last_service = 0;
  if (traced) out_.late_us.reserve(phase_b_packets);
  for (size_t k = 0; k < phase_b_packets; ++k) {
    const size_t i = trace_.phase_a_end + k;
    const int64_t due =
        b_start + std::llround(static_cast<double>(k) * period_ns_);
    int64_t now = now_ns();
    while (now < due) {
      if (now - last_service >= kServiceEveryNs) {
        service(now, false);
        last_service = now;
      } else {
        drain_verdicts();
      }
      now = now_ns();
    }
    if (now - last_service >= kServiceEveryNs) {
      service(now, false);
      last_service = now;
    }
    const bool sample = traced && (k & 63) == 0;
    const int64_t t0 = sample ? now_ns() : 0;
    nnn::runtime::PacketHandle h = plane.make_packet();
    if (h) fill_packet(trace_, i, *h);
    if (!plane.ingest(std::move(h))) note_shed(i);
    ++packets_attempted_;
    if (sample) tracer_->add("runtime.ingest", phase_span_, 0, t0, now_ns());
    if (traced) {
      out_.late_us.push_back(static_cast<double>(now - due) / 1e3);
      route_check(i);
    }
  }
  if (traced) tracer_->close(phase_span_);

  // Tail: no more trace packets; users finish their boost/revoke cycle.
  if (traced) phase_span_ = tracer_->open("bench.tail", round_span);
  const int64_t tail_deadline = now_ns() + kTailBudgetNs;
  while (!users_finished() && now_ns() < tail_deadline) {
    service(now_ns(), false);
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  const nu::Timestamp program_end = prog_->clock().now();
  plane.drain();
  drain_verdicts();
  if (traced) tracer_->close(phase_span_);
  out_.mem_mib = heap_mib() - heap0;

  prog_->stop_control_plane();
  plane.stop();
  if (traced) tracer_->close(round_span);

  // ---- outputs and checks ----
  const auto snap = plane.snapshot();
  const auto totals = snap.totals();
  check(packets_attempted_ == totals.processed + totals.shed,
        "ledger: attempts " + std::to_string(packets_attempted_) +
            " != processed " + std::to_string(totals.processed) + " + shed " +
            std::to_string(totals.shed));
  check(plane.arena().outstanding() == 0,
        "arena slots outstanding after stop: " +
            std::to_string(plane.arena().outstanding()));
  check(program_end <= kFreshUntil,
        "round outlasted the trace cookies' freshness window");
  nnn::cookies::VerifierStats vs;
  for (size_t w = 0; w < plane.worker_count(); ++w) {
    const auto s = plane.verifier(w).stats();
    vs.verified += s.verified;
    vs.bad_signature += s.bad_signature;
    vs.replayed += s.replayed;
    vs.unknown_id += s.unknown_id;
    vs.stale_timestamp += s.stale_timestamp;
    vs.revoked += s.revoked;
    vs.expired += s.expired;
    vs.malformed += s.malformed;
    const auto& m = plane.middlebox(w);
    out_.flow_entries += m.flows().size();
    out_.flow_overload += m.flows().stats().overloads;
    const auto& v = plane.verifier(w);
    out_.hot_hits += v.hot_tier().hits();
    out_.hot_builds += v.hot_tier().rehydrations();
    out_.replay_entries += v.external_replay().size();
  }
  const uint64_t trace_cookies = trace_.cookies_phase_a + trace_.cookies_phase_b;
  check(totals.verdicts_dropped == 0,
        "verdict records dropped: " + std::to_string(totals.verdicts_dropped));
  // Shed packets are forwarded unverified (fail-open); every other
  // trace cookie must have been verified, and verified kOk.
  check(trace_cookies_seen_ + shed_trace_cookies_ == trace_cookies,
        "trace cookie verdicts " + std::to_string(trace_cookies_seen_) +
            " + shed " + std::to_string(shed_trace_cookies_) + " != " +
            std::to_string(trace_cookies));
  check(trace_cookies_ok_ == trace_cookies_seen_,
        "trace cookies verified kOk " + std::to_string(trace_cookies_ok_) +
            " of " + std::to_string(trace_cookies_seen_));
  check(vs.replayed == 0, "replay verdicts: " + std::to_string(vs.replayed));
  check(vs.bad_signature == 0,
        "bad-tag verdicts: " + std::to_string(vs.bad_signature));
  uint64_t user_ok = 0;
  for (const auto& p : user_packets_) user_ok += p.ok;
  check(vs.verified == trace_cookies_ok_ + user_ok,
        "kOk count " + std::to_string(vs.verified) + " != trace " +
            std::to_string(trace_cookies_ok_) + " + user " +
            std::to_string(user_ok));
  // Survival over connections none of whose packets was shed.
  uint64_t quic_post_handshake = 0, quic_survived = 0;
  for (size_t c = 0; c < conn_shed_.size(); ++c) {
    if (conn_shed_[c]) continue;
    quic_post_handshake += conn_post_handshake_[c];
    quic_survived += conn_survived_[c];
  }
  if (!trace_.quic.empty()) {
    check(quic_post_handshake > 0 && quic_survived == quic_post_handshake,
          "QUIC survival " + std::to_string(quic_survived) + " of " +
              std::to_string(quic_post_handshake));
  }
  finish_users();

  // ---- metrics ----
  out_.lat_p50_us = quantile(latency_ns_, 0.50) / 1e3;
  out_.lat_p99_us = quantile(latency_ns_, 0.99) / 1e3;
  out_.attempted = packets_attempted_ + requests_attempted_;
  out_.failed += totals.shed + (trace_cookies_seen_ - trace_cookies_ok_);
  out_.avg_batch = totals.avg_batch();
  out_.shed = totals.shed;
  out_.arena_alloc_failures = plane.arena().alloc_failures();
  out_.verdicts_dropped = totals.verdicts_dropped;
  out_.cookie_packets = vs.total();
  out_.cookies_ok = vs.verified;
  out_.quic_post_handshake = quic_post_handshake;
  out_.quic_survived = quic_survived;
  if (traced) {
    for (size_t c = 0; c < conn_worker.size(); ++c) {
      if (conn_worker[c] == -1) continue;
      ++out_.quic_conns_routed;
      out_.quic_conns_one_worker += conn_moved[c] == 0;
    }
  }
  out_.epoch_swaps = prog_->publisher().epoch();
  out_.polls = prog_->polls();
  out_.retries = prog_->retries();
  for (const int64_t ns : prog_->apply_ns()) {
    out_.apply_us.push_back(static_cast<double>(ns) / 1e3);
  }
  reader_ = {};
  prog_.reset();
  return out_;
}

}  // namespace

RoundResult run_round(const Trace& trace, uint64_t seed, uint32_t round,
                      Tracer* tracer) {
  Round r(trace, seed, round, tracer);
  return r.run();
}

}  // namespace perfbench
