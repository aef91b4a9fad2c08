// Workload inputs, generated from the seed before any program object
// exists. The program only ever sees what fill_packet() writes into an
// arena slot, plus the descriptors installed at set-up.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cookies/descriptor.h"
#include "net/five_tuple.h"
#include "net/packet.h"
#include "util/clock.h"

namespace perfbench {

/// Program time (microseconds) at the start of every round's set-up.
/// Each round runs a fresh program on a clock rebased to this value, so
/// the cookies minted once per run stay inside the verifier's
/// network-coherency window in every round.
inline constexpr nnn::util::Timestamp kRoundEpoch = 1000 * nnn::util::kSecond;
/// Trace cookies carry timestamps in [kMintEpoch, kMintEpoch + kTraceSpan].
inline constexpr nnn::util::Timestamp kMintEpoch =
    kRoundEpoch + 2 * nnn::util::kSecond;
inline constexpr nnn::util::Timestamp kTraceSpan = 2 * nnn::util::kSecond;
/// Last program time at which every trace cookie is still fresh
/// (|now - timestamp| <= 5 s at one-second resolution).
inline constexpr nnn::util::Timestamp kFreshUntil =
    kMintEpoch + 6 * nnn::util::kSecond - 1;

struct WorkloadSpec {
  std::string name;
  size_t descriptors = 0;
  uint32_t wire_size = 0;         // modeled on-wire bytes per packet
  uint32_t packets_per_flow = 0;  // plain (non-QUIC) flows
  double quic_share = 0;          // share of connections that are QUIC
  size_t phase_a_packets = 0;     // closed loop, sets pps
  double phase_b_rate = 0;        // open-loop offered packets/s
  double phase_b_seconds = 0;
  double user_rate = 0;           // user arrivals/s
  double user_window_s = 0;       // arrivals from traffic start, this long
  size_t min_user_samples = 0;    // rounds continue until this many users
};

/// Known workload by name; false when unknown.
bool find_workload(const std::string& name, WorkloadSpec& out);

inline constexpr uint32_t kNone = UINT32_MAX;

/// One packet, compact. Carrier bytes live in Trace::blob.
struct TracePacket {
  nnn::net::FiveTuple tuple;
  uint32_t cookie = kNone;  // blob index: UDP shim payload or QUIC tp
  uint32_t quic = kNone;    // index into Trace::quic
};

struct QuicFields {
  uint64_t dcid = 0;
  uint64_t scid = 0;
  uint64_t prev_cid = 0;
  uint32_t conn = 0;  // connection index
  bool long_header = false;
  bool has_prev = false;
};

struct Trace {
  WorkloadSpec spec;
  std::vector<nnn::cookies::CookieDescriptor> descriptors;
  std::vector<TracePacket> packets;  // [0, phase_a_end) then phase B
  size_t phase_a_end = 0;
  std::vector<QuicFields> quic;
  std::vector<uint8_t> quic_conn_has_cookie;  // per QUIC connection
  std::vector<uint8_t> blob;
  std::vector<uint32_t> blob_offsets;  // size = cookies + 1
  size_t cookies_phase_a = 0;
  size_t cookies_phase_b = 0;
  uint64_t quic_rotations = 0;
  uint64_t quic_migrations = 0;
};

Trace build_trace(const WorkloadSpec& spec, uint64_t seed);

/// Write trace packet `index` into a (recycled) packet slot. Sets seq to
/// the index so verdict records can be matched back to the trace.
void fill_packet(const Trace& trace, size_t index, nnn::net::Packet& out);

}  // namespace perfbench
