#include "trace.h"

#include <cmath>

#include "cookies/cookie.h"
#include "cookies/transport.h"
#include "crypto/uuid.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "quic/workload.h"
#include "util/rng.h"

namespace perfbench {

namespace nu = nnn::util;

namespace {

// The open-loop rates are fixed numbers, about 25% of the median
// closed-loop rate per round that each workload reached at the build
// seed on the reference host (a 4-vCPU VM); at 40% that host's
// millisecond stalls pushed phase B into intermittent overload. See
// README.md.
const std::vector<WorkloadSpec>& specs() {
  static const std::vector<WorkloadSpec> all = {
      {.name = "campus",
       .descriptors = 10'000,
       .wire_size = 512,
       .packets_per_flow = 50,
       .quic_share = 0.25,
       .phase_a_packets = 2'000'000,
       .phase_b_rate = 600'000,
       .phase_b_seconds = 0.5,
       .user_rate = 100,
       .user_window_s = 0.9,
       .min_user_samples = 1000},
      {.name = "short_flows",
       .descriptors = 262'144,
       .wire_size = 64,
       .packets_per_flow = 1,
       .quic_share = 0,
       .phase_a_packets = 200'000,
       .phase_b_rate = 100'000,
       .phase_b_seconds = 2.0,
       .user_rate = 15,
       .user_window_s = 2.2,
       .min_user_samples = 150},
      {.name = "boost_churn",
       .descriptors = 10'000,
       .wire_size = 512,
       .packets_per_flow = 50,
       .quic_share = 0.25,
       .phase_a_packets = 2'000'000,
       .phase_b_rate = 300'000,
       .phase_b_seconds = 1.5,
       .user_rate = 250,
       .user_window_s = 1.8,
       .min_user_samples = 1000},
  };
  return all;
}

nnn::cookies::CookieDescriptor make_descriptor(nnn::cookies::CookieId id,
                                               nu::Rng& rng) {
  nnn::cookies::CookieDescriptor d;
  d.cookie_id = id;
  d.key.resize(32);
  for (auto& b : d.key) b = static_cast<uint8_t>(rng.next_u64());
  d.service_data = "Boost";
  return d;
}

uint32_t add_blob(Trace& trace, const nu::Bytes& bytes) {
  const auto index = static_cast<uint32_t>(trace.blob_offsets.size() - 1);
  trace.blob.insert(trace.blob.end(), bytes.begin(), bytes.end());
  trace.blob_offsets.push_back(static_cast<uint32_t>(trace.blob.size()));
  return index;
}

/// Plain (UDP, cookie in the payload shim) flows: the first packet of
/// each flow carries one freshly minted cookie.
class PlainFlows {
 public:
  PlainFlows(const Trace& trace, uint64_t seed, size_t concurrency)
      : trace_(trace), rng_(seed), concurrency_(concurrency) {}

  void emit(Trace& trace, TracePacket& out, nu::Timestamp now) {
    if (live_.size() < concurrency_) open();
    const size_t pick = rng_.next_u64(live_.size());
    Flow& flow = live_[pick];
    out.tuple = flow.tuple;
    if (flow.sent == 0) {
      const auto& d = trace_.descriptors[rng_.next_u64(
          trace_.descriptors.size())];
      nnn::cookies::Cookie cookie;
      cookie.cookie_id = d.cookie_id;
      cookie.uuid = nnn::crypto::Uuid::generate(rng_);
      cookie.timestamp = nnn::cookies::to_cookie_time(now);
      cookie.signature = cookie.compute_tag(nu::BytesView(d.key));
      nnn::net::Packet carrier;
      carrier.tuple = flow.tuple;
      nnn::cookies::attach(carrier, cookie,
                           nnn::cookies::Transport::kUdpHeader);
      out.cookie = add_blob(trace, carrier.payload);
    }
    if (++flow.sent >= trace_.spec.packets_per_flow) {
      live_[pick] = live_.back();
      live_.pop_back();
    }
  }

 private:
  struct Flow {
    nnn::net::FiveTuple tuple;
    uint32_t sent = 0;
  };

  void open() {
    const uint32_t id = next_id_++;
    Flow flow;
    flow.tuple.src_ip = nnn::net::IpAddress::v4(0x0a000000u | (id & 0xffffff));
    flow.tuple.dst_ip = nnn::net::IpAddress::v4(
        151, 101, static_cast<uint8_t>(id >> 8), static_cast<uint8_t>(id));
    flow.tuple.src_port = static_cast<uint16_t>(1024 + (id >> 24) * 997 +
                                                rng_.next_u64(50'000));
    flow.tuple.dst_port = 443;
    flow.tuple.proto = nnn::net::L4Proto::kUdp;
    live_.push_back(flow);
  }

  const Trace& trace_;
  nu::Rng rng_;
  size_t concurrency_;
  uint32_t next_id_ = 1;
  std::vector<Flow> live_;
};

}  // namespace

bool find_workload(const std::string& name, WorkloadSpec& out) {
  for (const auto& spec : specs()) {
    if (spec.name == name) {
      out = spec;
      return true;
    }
  }
  return false;
}

Trace build_trace(const WorkloadSpec& spec, uint64_t seed) {
  Trace trace;
  trace.spec = spec;
  const size_t phase_b_packets = static_cast<size_t>(
      std::llround(spec.phase_b_rate * spec.phase_b_seconds));
  const size_t total = spec.phase_a_packets + phase_b_packets;
  trace.phase_a_end = spec.phase_a_packets;
  trace.packets.resize(total);
  trace.blob_offsets.push_back(0);

  nu::ManualClock clock(kMintEpoch);
  const nu::Timestamp step =
      std::max<nu::Timestamp>(1, kTraceSpan / static_cast<nu::Timestamp>(total));
  nu::Rng rng(seed ^ 0x70657266ull);

  // QUIC connections: 50 packets each, CID rotation, NAT rebinds in two
  // windows of the trace's virtual time. Its descriptors are the
  // workload's descriptors, shared with the plain flows.
  const size_t quic_conns = static_cast<size_t>(std::llround(
      spec.quic_share * static_cast<double>(total) / spec.packets_per_flow));
  nnn::quic::QuicTraceGenerator::Config qcfg;
  qcfg.connections = quic_conns;
  qcfg.packets_per_connection = spec.packets_per_flow;
  qcfg.cookie_fraction = 1.0;
  qcfg.descriptors = spec.descriptors;
  qcfg.payload_bytes = 0;  // modeled, not materialised
  qcfg.wire_size = spec.wire_size;
  nnn::fault::Injector injector;
  nnn::fault::FaultPlan plan;
  plan.add({nnn::fault::FaultKind::kNatRebind, kMintEpoch + kTraceSpan * 3 / 10,
            kTraceSpan / 10, 1.0});
  plan.add({nnn::fault::FaultKind::kNatRebind, kMintEpoch + kTraceSpan * 13 / 20,
            kTraceSpan / 10, 1.0});
  injector.arm(plan, seed);

  std::unique_ptr<nnn::quic::QuicTraceGenerator> quic;
  if (quic_conns > 0) {
    quic = std::make_unique<nnn::quic::QuicTraceGenerator>(qcfg, clock, nullptr,
                                                          seed);
    quic->set_fault_injector(&injector);
    trace.descriptors = quic->descriptors();
    trace.quic_conn_has_cookie.resize(quic_conns);
    for (size_t c = 0; c < quic_conns; ++c) {
      trace.quic_conn_has_cookie[c] = quic->connection(c).has_cookie;
    }
  } else {
    trace.descriptors.reserve(spec.descriptors);
    for (size_t i = 0; i < spec.descriptors; ++i) {
      trace.descriptors.push_back(make_descriptor(i + 1, rng));
    }
  }

  PlainFlows plain(trace, rng.next_u64(), 64);
  size_t quic_left = quic ? quic->total_packets() : 0;
  nnn::net::Packet scratch;
  for (size_t i = 0; i < total; ++i) {
    TracePacket& out = trace.packets[i];
    const size_t left = total - i;
    if (quic_left > 0 && rng.next_u64(left) < quic_left) {
      scratch = nnn::net::Packet{};
      const uint32_t conn = quic->fill_next(scratch);
      --quic_left;
      QuicFields q;
      q.dcid = scratch.quic->dcid;
      q.scid = scratch.quic->scid;
      q.long_header = scratch.quic->long_header;
      q.has_prev = scratch.quic->prev_cid.has_value();
      q.prev_cid = scratch.quic->prev_cid.value_or(0);
      q.conn = conn;
      out.tuple = scratch.tuple;
      out.quic = static_cast<uint32_t>(trace.quic.size());
      trace.quic.push_back(q);
      if (!scratch.quic->tp_cookie.empty()) {
        out.cookie = add_blob(trace, scratch.quic->tp_cookie);
      }
    } else {
      plain.emit(trace, out, clock.now());
    }
    if (out.cookie != kNone) {
      ++(i < trace.phase_a_end ? trace.cookies_phase_a : trace.cookies_phase_b);
    }
    clock.advance(step);
  }
  if (quic) {
    for (size_t c = 0; c < quic_conns; ++c) {
      trace.quic_rotations += quic->connection(c).rotations;
      trace.quic_migrations += quic->connection(c).migrations;
    }
  }
  return trace;
}

void fill_packet(const Trace& trace, size_t index, nnn::net::Packet& out) {
  const TracePacket& in = trace.packets[index];
  out.tuple = in.tuple;
  out.seq = static_cast<uint32_t>(index);
  const uint8_t* cookie_begin = nullptr;
  const uint8_t* cookie_end = nullptr;
  if (in.cookie != kNone) {
    cookie_begin = trace.blob.data() + trace.blob_offsets[in.cookie];
    cookie_end = trace.blob.data() + trace.blob_offsets[in.cookie + 1];
  }
  if (in.quic != kNone) {
    const QuicFields& q = trace.quic[in.quic];
    nnn::net::QuicHeader& header = out.quic.emplace();
    header.long_header = q.long_header;
    header.dcid = q.dcid;
    header.scid = q.scid;
    if (q.has_prev) header.prev_cid = q.prev_cid;
    if (cookie_begin != nullptr) header.tp_cookie.assign(cookie_begin, cookie_end);
  } else if (cookie_begin != nullptr) {
    out.payload.assign(cookie_begin, cookie_end);
  }
  out.wire_size = trace.spec.wire_size;
}

}  // namespace perfbench
