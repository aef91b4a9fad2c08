// One round: a fresh program is set up, driven through a closed-loop
// phase (pps), an open-loop phase at the workload's fixed rate (latency)
// and a user tail, with users acquiring, using and revoking a fast lane
// throughout; then it is stopped and its outputs are checked.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"
#include "tracer.h"

namespace perfbench {

/// Phase A is rated in this many equal slices; see main.cpp for how the
/// slices of all rounds make the run's pps.
inline constexpr size_t kPpsSlices = 16;

struct RoundResult {
  std::vector<std::string> failed_checks;

  // End-to-end (every round).
  double setup_s = 0;
  double mem_mib = 0;
  double pps = 0;  // phase A as a whole
  std::vector<double> pps_slices;  // per phase-A slice, kPpsSlices of them
  double lat_p50_us = 0;
  double lat_p99_us = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> boost_ms;   // per user
  std::vector<double> revoke_ms;  // per user

  // Per layer (filled in every round, reported from traced rounds).
  double worker_busy_ratio = 0;
  double avg_batch = 0;
  uint64_t shed = 0;
  uint64_t arena_alloc_failures = 0;
  uint64_t verdicts_dropped = 0;
  uint64_t flow_entries = 0;
  uint64_t flow_overload = 0;
  uint64_t cookie_packets = 0;
  uint64_t cookies_ok = 0;
  uint64_t hot_hits = 0;
  uint64_t hot_builds = 0;
  uint64_t replay_entries = 0;
  uint64_t quic_post_handshake = 0;
  uint64_t quic_survived = 0;
  uint64_t quic_conns_routed = 0;
  uint64_t quic_conns_one_worker = 0;
  uint64_t epoch_swaps = 0;
  uint64_t polls = 0;
  uint64_t retries = 0;
  std::vector<double> sync_wait_ms;
  std::vector<double> publish_to_verdict_ms;
  std::vector<double> acquire_rtt_us;
  std::vector<double> revoke_rtt_us;
  std::vector<double> apply_us;
  std::vector<double> late_us;  // open-loop lateness (traced rounds)
};

/// Runs one round. With a tracer, spans are recorded and the producer
/// also samples ingest spans, lateness and worker routing.
RoundResult run_round(const Trace& trace, uint64_t seed, uint32_t round,
                      Tracer* tracer);

}  // namespace perfbench
