#include "inline_pass.h"

#include <algorithm>
#include <span>
#include <unordered_map>

#include "controlplane/table_mirror.h"
#include "cookies/transport.h"
#include "cookies/verifier.h"
#include "crypto/hmac.h"
#include "dataplane/middlebox.h"
#include "dataplane/service_registry.h"
#include "quic/alias_table.h"

namespace perfbench {

namespace {

constexpr size_t kBurst = 32;
volatile uint64_t g_sink = 0;

/// Run `body(begin, end)` over [0, n) in bursts, one span per burst;
/// returns the summed burst time in ns.
template <class F>
int64_t timed_bursts(Tracer& tracer, const char* name, uint32_t parent,
                     size_t n, F&& body) {
  int64_t total = 0;
  for (size_t begin = 0; begin < n; begin += kBurst) {
    const size_t end = std::min(n, begin + kBurst);
    const int64_t t0 = now_ns();
    body(begin, end);
    const int64_t t1 = now_ns();
    tracer.add(name, parent, 0, t0, t1);
    total += t1 - t0;
  }
  return total;
}

}  // namespace

InlineResult run_inline_pass(const Trace& trace, Tracer& tracer,
                             size_t sample_packets) {
  InlineResult out;
  const size_t n = std::min(sample_packets, trace.packets.size());
  // Every trace cookie is fresh at this instant.
  nnn::util::ManualClock clock(kMintEpoch + nnn::util::kSecond);
  nnn::controlplane::TableMirror mirror;
  mirror.reset(1, trace.descriptors, {});
  const auto table = mirror.build();

  std::vector<nnn::net::Packet> packets(n);
  std::vector<nnn::cookies::Cookie> cookies;
  size_t quic_packets = 0;
  for (size_t i = 0; i < n; ++i) {
    fill_packet(trace, i, packets[i]);
    quic_packets += packets[i].is_quic();
    const auto extracted = nnn::cookies::extract(packets[i]);
    if (extracted && !extracted->stack.empty()) {
      cookies.push_back(extracted->stack.front());
    }
  }
  const uint32_t root = tracer.open("bench.inline");

  {
    nnn::cookies::CookieVerifier verifier(clock);
    verifier.set_external_table(table.get());
    std::vector<nnn::cookies::VerifyResult> results(kBurst);
    const int64_t ns = timed_bursts(
        tracer, "cookies.verify_batch", root, cookies.size(),
        [&](size_t b, size_t e) {
          verifier.verify_batch(
              std::span<const nnn::cookies::Cookie>(cookies.data() + b, e - b),
              std::span(results.data(), e - b));
        });
    out.verify_ns = cookies.empty() ? 0 : static_cast<double>(ns) /
                                              static_cast<double>(cookies.size());
    const int64_t verify_total_ns = ns;
    nnn::cookies::CookieVerifier fresh(clock);
    fresh.set_external_table(table.get());
    nnn::dataplane::ServiceRegistry registry;
    registry.bind("Boost", nnn::dataplane::PriorityAction{0});
    nnn::dataplane::Middlebox middlebox(clock, fresh, registry);
    std::vector<nnn::net::Packet*> ptrs(n);
    for (size_t i = 0; i < n; ++i) ptrs[i] = &packets[i];
    std::vector<nnn::dataplane::Verdict> verdicts(kBurst);
    const int64_t pns = timed_bursts(
        tracer, "dataplane.process_batch", root, n, [&](size_t b, size_t e) {
          middlebox.process_batch(
              std::span<nnn::net::Packet* const>(ptrs.data() + b, e - b),
              std::span(verdicts.data(), e - b));
        });
    out.process_ns = static_cast<double>(pns) / static_cast<double>(n);
    out.self_ns = static_cast<double>(pns - verify_total_ns) /
                  static_cast<double>(n);
  }
  {
    std::unordered_map<nnn::cookies::CookieId, nnn::crypto::HmacKeySchedule>
        schedules;
    for (const auto& d : trace.descriptors) {
      schedules.emplace(d.cookie_id, nnn::crypto::HmacKeySchedule(
                                         nnn::util::BytesView(d.key)));
    }
    std::vector<const nnn::crypto::HmacKeySchedule*> keyed(cookies.size());
    for (size_t i = 0; i < cookies.size(); ++i) {
      keyed[i] = &schedules.at(cookies[i].cookie_id);
    }
    uint64_t sink = 0;
    const int64_t ns = timed_bursts(
        tracer, "crypto.tag", root, cookies.size(), [&](size_t b, size_t e) {
          for (size_t i = b; i < e; ++i) {
            sink += cookies[i].compute_tag(*keyed[i])[0];
          }
        });
    g_sink = sink;  // keeps the tags observable
    out.tag_ns = cookies.empty() ? 0 : static_cast<double>(ns) /
                                           static_cast<double>(cookies.size());
  }
  {
    nnn::quic::CidAliasTable aliases;
    const int64_t ns = timed_bursts(
        tracer, "quic.learn_steering", root, n, [&](size_t b, size_t e) {
          for (size_t i = b; i < e; ++i) {
            nnn::quic::learn_steering(aliases, packets[i]);
          }
        });
    // Per QUIC packet; a trace without QUIC reports the per-packet cost
    // of the check itself.
    out.learn_ns = static_cast<double>(ns) /
                   static_cast<double>(quic_packets > 0 ? quic_packets : n);
  }
  tracer.close(root);
  return out;
}

}  // namespace perfbench
