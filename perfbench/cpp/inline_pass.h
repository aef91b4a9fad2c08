// The traced run's inline pass: each layer's call timed on the caller's
// thread over a sample of the workload's own packets, against fresh
// verifier and middlebox instances holding the same descriptors.
#pragma once

#include <cstddef>

#include "trace.h"
#include "tracer.h"

namespace perfbench {

struct InlineResult {
  double process_ns = 0;  // Middlebox::process_batch, per packet
  double verify_ns = 0;   // CookieVerifier::verify_batch, per cookie
  double self_ns = 0;     // process minus verify, per packet
  double tag_ns = 0;      // HMAC tag from a key schedule, per cookie
  double learn_ns = 0;    // quic::learn_steering, per QUIC packet
};

InlineResult run_inline_pass(const Trace& trace, Tracer& tracer,
                             size_t sample_packets);

}  // namespace perfbench
