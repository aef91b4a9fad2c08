// The threaded dataplane runtime (§4.6 executed, not modeled): ring
// semantics, per-flow ordering, concurrent double-spend under both
// dispatch policies, backpressure accounting, graceful lifecycle.
// This suite is the primary target of the TSan CI job.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "cookies/generator.h"
#include "cookies/transport.h"
#include "cookies/verifier.h"
#include "dataplane/middlebox.h"
#include "dataplane/service_registry.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "runtime/dataplane.h"
#include "runtime/mpsc_ring.h"
#include "runtime/spsc_ring.h"
#include "runtime/worker_pool.h"
#include "workload/packet_gen.h"
#include "telemetry/exposition.h"
#include "telemetry/metrics.h"
#include "util/clock.h"
#include "util/logging.h"

namespace nnn::runtime {
namespace {

using dataplane::DispatchPolicy;

// --- Ring semantics ------------------------------------------------

TEST(SpscRing, FifoAndCapacity) {
  SpscRing<int> ring(4);  // rounds to 4
  EXPECT_EQ(ring.capacity(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(int(i)));
  EXPECT_FALSE(ring.try_push(99));  // full
  int out = -1;
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, i);  // strict FIFO
  }
  EXPECT_FALSE(ring.try_pop(out));  // empty
}

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  SpscRing<int> ring(5);
  EXPECT_EQ(ring.capacity(), 8u);
  EXPECT_EQ(SpscRing<int>(1).capacity(), 2u);
}

TEST(SpscRing, BatchPopRespectsMaxAndOrder) {
  SpscRing<int> ring(16);
  for (int i = 0; i < 10; ++i) ring.try_push(int(i));
  int buf[4];
  EXPECT_EQ(ring.pop_batch(buf, 4), 4u);
  EXPECT_EQ(buf[0], 0);
  EXPECT_EQ(buf[3], 3);
  EXPECT_EQ(ring.pop_batch(buf, 4), 4u);
  EXPECT_EQ(ring.pop_batch(buf, 4), 2u);  // partial final burst
  EXPECT_EQ(buf[1], 9);
  EXPECT_EQ(ring.pop_batch(buf, 4), 0u);
}

TEST(SpscRing, MovesValuesThrough) {
  SpscRing<std::unique_ptr<int>> ring(4);
  ASSERT_TRUE(ring.try_push(std::make_unique<int>(7)));
  std::unique_ptr<int> out;
  ASSERT_TRUE(ring.try_pop(out));
  ASSERT_TRUE(out);
  EXPECT_EQ(*out, 7);
}

/// Two real threads across the ring; every value arrives exactly once
/// and in order. TSan validates the memory-order protocol.
TEST(SpscRing, CrossThreadFifo) {
  SpscRing<uint64_t> ring(256);
  constexpr uint64_t kCount = 200'000;
  std::thread producer([&] {
    for (uint64_t i = 0; i < kCount;) {
      if (ring.try_push(uint64_t(i))) {
        ++i;
      } else {
        std::this_thread::yield();
      }
    }
  });
  uint64_t expected = 0;
  uint64_t buf[32];
  while (expected < kCount) {
    const size_t n = ring.pop_batch(buf, 32);
    if (n == 0) {
      std::this_thread::yield();
      continue;
    }
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(buf[i], expected) << "out of order";
      ++expected;
    }
  }
  producer.join();
}

TEST(MpscRing, SingleThreadRoundTrip) {
  MpscRing<int> ring(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(ring.try_push(int(i)));
  EXPECT_FALSE(ring.try_push(99));  // full
  int out;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(ring.try_pop(out));
}

/// Four producers, one consumer: every value exactly once.
TEST(MpscRing, ConcurrentProducersDeliverEverything) {
  MpscRing<uint64_t> ring(512);
  constexpr uint64_t kPerProducer = 20'000;
  constexpr int kProducers = 4;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (uint64_t i = 0; i < kPerProducer;) {
        // Encode producer in the high bits for per-producer FIFO check.
        if (ring.try_push((uint64_t(p) << 32) | i)) {
          ++i;
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  std::vector<uint64_t> next(kProducers, 0);
  uint64_t received = 0;
  uint64_t buf[64];
  while (received < kPerProducer * kProducers) {
    const size_t n = ring.pop_batch(buf, 64);
    if (n == 0) {
      std::this_thread::yield();
      continue;
    }
    for (size_t i = 0; i < n; ++i) {
      const int p = static_cast<int>(buf[i] >> 32);
      const uint64_t seq = buf[i] & 0xffffffff;
      ASSERT_EQ(seq, next[p]) << "per-producer order violated";
      ++next[p];
    }
    received += n;
  }
  for (auto& t : producers) t.join();
}

// --- Fixtures ------------------------------------------------------

cookies::CookieDescriptor make_descriptor(cookies::CookieId id) {
  cookies::CookieDescriptor d;
  d.cookie_id = id;
  d.key.assign(32, static_cast<uint8_t>(0x40 + id));
  d.service_data = "Boost";
  return d;
}

net::Packet flow_packet(uint32_t flow_id, uint32_t seq) {
  net::Packet p;
  p.tuple.src_ip = net::IpAddress::v4(0x0a000000u | flow_id);
  p.tuple.dst_ip = net::IpAddress::v4(151, 101, 0, 1);
  p.tuple.src_port = static_cast<uint16_t>(1024 + flow_id);
  p.tuple.dst_port = 443;
  p.tuple.proto = net::L4Proto::kUdp;
  p.wire_size = 512;
  p.seq = seq;
  return p;
}

struct PoolFixture {
  util::SystemClock clock;  // safe for concurrent reads
  dataplane::ServiceRegistry registry;
  WorkerPool pool;

  explicit PoolFixture(WorkerPool::Config config)
      : pool(clock, registry, config) {
    registry.bind("Boost", dataplane::PriorityAction{0});
  }
};

struct PlaneFixture {
  util::SystemClock clock;  // safe for concurrent reads
  dataplane::ServiceRegistry registry;
  Dataplane plane;

  PlaneFixture(DispatchPolicy policy, WorkerPool::Config pool)
      : plane(clock, registry, {.pool = pool, .policy = policy}) {
    registry.bind("Boost", dataplane::PriorityAction{0});
  }
};

/// Build `packet` into an arena slot and ingest it closed-loop.
void ingest_blocking(Dataplane& plane, net::Packet packet) {
  PacketHandle h = plane.make_packet();
  while (!h) {  // transient exhaustion: workers are draining slots
    std::this_thread::yield();
    h = plane.make_packet();
  }
  *h = std::move(packet);
  plane.ingest_blocking(std::move(h));
}

/// Fail-open variant: false when the packet was shed.
bool ingest(Dataplane& plane, net::Packet packet) {
  PacketHandle h = plane.make_packet();
  if (h) *h = std::move(packet);
  return plane.ingest(std::move(h));
}

// --- Per-flow ordering ---------------------------------------------

/// All packets of one flow route to one worker (flow hash) and cross
/// one SPSC ring, so the runtime preserves per-flow order even with
/// many workers and interleaved flows.
TEST(Runtime, PerFlowOrderingPreserved) {
  PlaneFixture fx(DispatchPolicy::kFlowHash,
                  {.workers = 4,
                   .ring_capacity = 256,
                   .verdict_capacity = 1 << 15});
  fx.plane.start();

  constexpr uint32_t kFlows = 16;
  constexpr uint32_t kPacketsPerFlow = 500;
  for (uint32_t seq = 0; seq < kPacketsPerFlow; ++seq) {
    for (uint32_t flow = 0; flow < kFlows; ++flow) {
      ingest_blocking(fx.plane, flow_packet(flow, seq));
    }
  }
  fx.plane.drain();
  fx.plane.stop();

  std::vector<VerdictRecord> verdicts;
  fx.plane.drain_verdicts(verdicts);
  ASSERT_EQ(verdicts.size(), size_t{kFlows} * kPacketsPerFlow);

  std::map<net::FiveTuple, uint32_t> next_seq;
  std::map<net::FiveTuple, uint32_t> flow_worker;
  for (const auto& v : verdicts) {
    // Records from different workers interleave arbitrarily in the
    // MPSC ring; within one flow, sequence must be monotonic.
    auto [it, fresh] = next_seq.try_emplace(v.tuple, 0);
    EXPECT_EQ(v.seq, it->second) << "flow reordered";
    ++it->second;
    auto [wit, first] = flow_worker.try_emplace(v.tuple, v.worker);
    EXPECT_EQ(v.worker, wit->second) << "flow migrated between workers";
  }
  EXPECT_EQ(next_seq.size(), kFlows);
}

// --- Concurrent double-spend (§4.6) --------------------------------

/// Mint ONE cookie and replay it on flows spread across tuples, while
/// four workers run concurrently. Under descriptor affinity every copy
/// routes to the same worker, whose replay cache accepts exactly one.
TEST(Runtime, ConcurrentDoubleSpendRejectedUnderAffinity) {
  PlaneFixture fx(DispatchPolicy::kDescriptorAffinity, {.workers = 4});
  fx.plane.add_descriptor(make_descriptor(1));

  util::ManualClock mint_clock(fx.clock.now());  // same epoch as plane
  cookies::CookieGenerator gen(make_descriptor(1), mint_clock, 7);
  const cookies::Cookie cookie = gen.generate();

  fx.plane.start();
  constexpr uint32_t kCopies = 32;
  for (uint32_t i = 0; i < kCopies; ++i) {
    // Distinct flows so kFlowHash would spread them; the SAME cookie
    // (same uuid) on all of them.
    net::Packet packet = flow_packet(i, 0);
    cookies::attach(packet, cookie, cookies::Transport::kUdpHeader);
    ingest_blocking(fx.plane, std::move(packet));
  }
  fx.plane.drain();
  fx.plane.stop();

  const auto totals = fx.plane.snapshot().totals();
  EXPECT_EQ(totals.processed, kCopies);
  EXPECT_EQ(totals.shed, 0u);
  // The paper's fix: exactly one acceptance, everything else replayed.
  EXPECT_EQ(fx.plane.total_verified(), 1u);
  EXPECT_EQ(fx.plane.total_replays_detected(), kCopies - 1);

  // All copies landed on the worker the cookie id pins to.
  uint64_t workers_touched = 0;
  for (const auto& w : fx.plane.snapshot().workers) {
    if (w.cookie_packets > 0) ++workers_touched;
  }
  EXPECT_EQ(workers_touched, 1u);
}

/// Same scenario under kFlowHash: the replay caches are independent,
/// so the copied cookie is accepted once per worker it reaches — the
/// documented weakness that motivates descriptor affinity.
TEST(Runtime, FlowHashAcceptsOncePerWorker) {
  constexpr size_t kWorkers = 4;
  PlaneFixture fx(DispatchPolicy::kFlowHash, {.workers = kWorkers});
  fx.plane.add_descriptor(make_descriptor(1));

  util::ManualClock mint_clock(fx.clock.now());
  cookies::CookieGenerator gen(make_descriptor(1), mint_clock, 7);
  const cookies::Cookie cookie = gen.generate();

  // Pick one flow tuple per worker (route() is deterministic).
  std::vector<net::Packet> copies;
  std::vector<bool> covered(kWorkers, false);
  for (uint32_t flow = 0; copies.size() < kWorkers; ++flow) {
    ASSERT_LT(flow, 10'000u) << "flow hash never covered all workers";
    net::Packet packet = flow_packet(flow, 0);
    cookies::attach(packet, cookie, cookies::Transport::kUdpHeader);
    const size_t worker = fx.plane.route(packet);
    if (!covered[worker]) {
      covered[worker] = true;
      copies.push_back(std::move(packet));
    }
  }

  fx.plane.start();
  for (auto& copy : copies) ingest_blocking(fx.plane, std::move(copy));
  fx.plane.drain();
  fx.plane.stop();

  // One acceptance PER SHARD: the double-spend the paper warns about.
  EXPECT_EQ(fx.plane.total_verified(), uint64_t{kWorkers});
  EXPECT_EQ(fx.plane.total_replays_detected(), 0u);
}

// --- Sharding policy (§4.6): double-spend and balance --------------

net::Packet cookie_udp_packet(uint16_t src_port,
                              const cookies::Cookie& cookie) {
  net::Packet p;
  p.tuple.src_ip = net::IpAddress::v4(192, 168, 1, 10);
  p.tuple.dst_ip = net::IpAddress::v4(151, 101, 0, 10);
  p.tuple.src_port = src_port;
  p.tuple.dst_port = 443;
  p.tuple.proto = net::L4Proto::kUdp;
  cookies::attach(p, cookie, cookies::Transport::kUdpHeader);
  return p;
}

/// The §4.6 policy checks, run through the threaded plane: packets go
/// in with ingest_blocking(), drain() makes the per-worker verdicts and
/// counts exact, and the verdict ring reports what each packet got.
class ShardingTest : public ::testing::Test {
 protected:
  ShardingTest() : clock_(1000 * util::kSecond) {
    registry_.bind("Boost", dataplane::PriorityAction{0});
  }

  std::unique_ptr<Dataplane> make_plane(size_t workers,
                                        DispatchPolicy policy) {
    return std::make_unique<Dataplane>(
        clock_, registry_,
        Dataplane::Config{.pool = {.workers = workers,
                                   .verdict_capacity = 1024},
                          .policy = policy});
  }

  /// Ingest `packets` in order, drain, stop; the verdicts in order.
  static std::vector<VerdictRecord> run(Dataplane& plane,
                                        std::vector<net::Packet> packets) {
    plane.start();
    for (auto& p : packets) ingest_blocking(plane, std::move(p));
    plane.drain();
    plane.stop();
    std::vector<VerdictRecord> verdicts;
    plane.drain_verdicts(verdicts);
    EXPECT_EQ(verdicts.size(), packets.size());
    std::sort(verdicts.begin(), verdicts.end(),
              [](const VerdictRecord& a, const VerdictRecord& b) {
                return a.seq < b.seq;
              });
    return verdicts;
  }

  static uint64_t accepted(const std::vector<VerdictRecord>& verdicts) {
    return static_cast<uint64_t>(
        std::count_if(verdicts.begin(), verdicts.end(),
                      [](const VerdictRecord& v) { return v.has_action; }));
  }

  util::ManualClock clock_;  // never advanced while workers run
  dataplane::ServiceRegistry registry_;
};

TEST_F(ShardingTest, FlowHashAllowsDoubleSpend) {
  auto plane = make_plane(4, DispatchPolicy::kFlowHash);
  const auto descriptor = make_descriptor(1);
  plane->add_descriptor(descriptor);
  cookies::CookieGenerator generator(descriptor, clock_, 1);
  const cookies::Cookie cookie = generator.generate();

  // An attacker copies one cookie onto many flows; flow hashing
  // spreads them over shards whose replay caches are independent.
  std::vector<net::Packet> packets;
  for (uint16_t port = 40000; port < 40032; ++port) {
    packets.push_back(cookie_udp_packet(port, cookie));
  }
  const uint64_t n = accepted(run(*plane, std::move(packets)));
  // The same cookie was honored more than once: double-spent.
  EXPECT_GT(n, 1u);
  EXPECT_LE(n, plane->worker_count());
}

TEST_F(ShardingTest, DescriptorAffinityPreventsDoubleSpend) {
  auto plane = make_plane(4, DispatchPolicy::kDescriptorAffinity);
  const auto descriptor = make_descriptor(2);
  plane->add_descriptor(descriptor);
  cookies::CookieGenerator generator(descriptor, clock_, 2);
  const cookies::Cookie cookie = generator.generate();

  std::vector<net::Packet> packets;
  for (uint16_t port = 41000; port < 41032; ++port) {
    packets.push_back(cookie_udp_packet(port, cookie));
  }
  // Use-once holds across the whole plane: one accept, 31 replays.
  EXPECT_EQ(accepted(run(*plane, std::move(packets))), 1u);
  EXPECT_EQ(plane->total_replays_detected(), 31u);
}

TEST_F(ShardingTest, AffinityStillBalancesCookielessTraffic) {
  auto plane = make_plane(4, DispatchPolicy::kDescriptorAffinity);
  std::vector<net::Packet> packets;
  for (uint16_t port = 0; port < 256; ++port) {
    net::Packet p;
    p.tuple.src_port = port;
    p.tuple.dst_port = 80;
    p.wire_size = 500;
    packets.push_back(std::move(p));
  }
  run(*plane, std::move(packets));
  // Every worker saw a meaningful share (flow hashing for plain
  // packets).
  const auto snap = plane->snapshot();
  for (size_t i = 0; i < plane->worker_count(); ++i) {
    EXPECT_GT(snap.workers[i].packets, 256u / 10) << "worker " << i;
    EXPECT_EQ(snap.workers[i].cookie_packets, 0u) << "worker " << i;
  }
}

TEST_F(ShardingTest, DistinctDescriptorsSpreadOverShards) {
  auto plane = make_plane(4, DispatchPolicy::kDescriptorAffinity);
  std::vector<net::Packet> packets;
  std::set<size_t> used;
  for (cookies::CookieId id = 1; id <= 16; ++id) {
    const auto descriptor = make_descriptor(id);
    plane->add_descriptor(descriptor);
    cookies::CookieGenerator generator(descriptor, clock_, id);
    net::Packet p = cookie_udp_packet(static_cast<uint16_t>(42000 + id),
                                      generator.generate());
    p.seq = static_cast<uint32_t>(id);
    used.insert(plane->route(p));
    packets.push_back(std::move(p));
  }
  EXPECT_EQ(used.size(), 4u);  // ids 1..16 cover all workers
  const auto verdicts = run(*plane, std::move(packets));
  for (const auto& v : verdicts) {
    EXPECT_TRUE(v.has_action) << "descriptor " << v.seq;
  }
  EXPECT_EQ(plane->total_verified(), 16u);
}

TEST_F(ShardingTest, RevocationReachesAllShards) {
  auto plane = make_plane(3, DispatchPolicy::kFlowHash);
  const auto descriptor = make_descriptor(5);
  plane->add_descriptor(descriptor);
  plane->revoke(descriptor.cookie_id);
  cookies::CookieGenerator generator(descriptor, clock_, 5);
  std::vector<net::Packet> packets;
  std::set<size_t> used;
  for (uint16_t port = 43000; port < 43008; ++port) {
    packets.push_back(cookie_udp_packet(port, generator.generate()));
    used.insert(plane->route(packets.back()));
  }
  EXPECT_GT(used.size(), 1u) << "revocation must be checked on >1 worker";
  EXPECT_EQ(accepted(run(*plane, std::move(packets))), 0u);
}

// --- Backpressure accounting ---------------------------------------

/// Fill a deliberately tiny ring with the plane not yet started: the
/// overflow is shed (fail-open: forwarded best-effort), nothing is
/// lost, and the ledger attempts == processed + shed holds.
TEST(Runtime, BackpressureCountsAndForwardsBestEffort) {
  constexpr uint64_t kRing = 16;
  PlaneFixture fx(DispatchPolicy::kFlowHash,
                  {.workers = 1, .ring_capacity = kRing});

  constexpr uint64_t kOffered = 100;
  uint64_t queued = 0;
  for (uint32_t i = 0; i < kOffered; ++i) {
    if (ingest(fx.plane, flow_packet(i, i))) ++queued;
  }
  EXPECT_EQ(queued, kRing);
  const auto before = fx.plane.snapshot().totals();
  EXPECT_EQ(before.shed, kOffered - kRing);
  EXPECT_EQ(before.processed, 0u);

  // Late start still processes exactly what was queued.
  fx.plane.start();
  fx.plane.drain();
  fx.plane.stop();
  const auto after = fx.plane.snapshot().totals();
  EXPECT_EQ(after.packets, kRing);
  EXPECT_EQ(after.processed + after.shed, kOffered);  // never dropped
  EXPECT_EQ(fx.plane.arena().outstanding(), 0u) << "slots leaked";
}

// --- Lifecycle -----------------------------------------------------

TEST(Runtime, DrainGivesDeterministicCountsAndQuiescentReads) {
  PlaneFixture fx(DispatchPolicy::kDescriptorAffinity,
                  {.workers = 2, .ring_capacity = 4096});
  fx.plane.add_descriptor(make_descriptor(3));

  util::ManualClock mint_clock(fx.clock.now());
  cookies::CookieGenerator gen(make_descriptor(3), mint_clock, 11);

  fx.plane.start();
  constexpr uint32_t kFlows = 200;
  for (uint32_t flow = 0; flow < kFlows; ++flow) {
    // Keep mint time current so cookies stay inside the NCT window
    // even when the suite runs slowly (TSan, loaded CI machine).
    mint_clock.set(fx.clock.now());
    net::Packet first = flow_packet(flow, 0);
    cookies::attach(first, gen.generate(), cookies::Transport::kUdpHeader);
    ingest_blocking(fx.plane, std::move(first));
    for (uint32_t seq = 1; seq < 5; ++seq) {
      ingest_blocking(fx.plane, flow_packet(flow, seq));
    }
  }
  fx.plane.drain();

  // Quiescent: totals are exact and non-atomic state is readable.
  const auto totals = fx.plane.snapshot().totals();
  EXPECT_EQ(totals.packets, uint64_t{kFlows} * 5);
  EXPECT_EQ(totals.processed, totals.packets);
  EXPECT_EQ(fx.plane.total_verified(), kFlows);
  uint64_t middlebox_packets = 0;
  for (size_t w = 0; w < fx.plane.worker_count(); ++w) {
    middlebox_packets += fx.plane.middlebox(w).stats().packets;
  }
  EXPECT_EQ(middlebox_packets, totals.packets);

  fx.plane.stop();
  EXPECT_FALSE(fx.plane.running());
  // Counts unchanged by shutdown.
  EXPECT_EQ(fx.plane.snapshot().totals().packets, uint64_t{kFlows} * 5);
}

TEST(Runtime, StopWithoutDrainProcessesQueuedPackets) {
  PlaneFixture fx(DispatchPolicy::kFlowHash,
                  {.workers = 2, .ring_capacity = 1024});
  fx.plane.start();
  constexpr uint32_t kPackets = 400;
  for (uint32_t i = 0; i < kPackets; ++i) {
    ingest_blocking(fx.plane, flow_packet(i % 32, i));
  }
  // stop() without drain(): workers finish their rings before exiting.
  fx.plane.stop();
  EXPECT_EQ(fx.plane.snapshot().totals().packets, kPackets);
}

/// PR 5 satellite: the shed ledger must reconcile exactly with the
/// producer's enqueue totals even when stop() races an injected
/// queue-pressure burst and a worker pause — every submit attempt ends
/// up as processed or shed, never silently lost. Runs under TSan.
TEST(Runtime, ShedLedgerReconcilesWhenStopRacesQueuePressure) {
  WorkerPool::Config config;
  config.workers = 2;
  config.ring_capacity = 64;  // small on purpose: real ring-full sheds
  PoolFixture fx(config);

  fault::Injector injector;
  fault::FaultPlan plan;
  const util::Timestamp now = fx.clock.now();
  // Queue-pressure Bernoulli over the whole window, plus a pause that
  // wedges worker 0 across the stop() — its ring leftovers must be
  // reclaimed into shed.
  plan.add({fault::FaultKind::kQueuePressure, now, 10 * util::kSecond, 0.5,
            0, fault::kAllTargets});
  plan.add({fault::FaultKind::kPause, now + 2 * util::kMillisecond,
            10 * util::kSecond, 1.0, 0, 0});
  injector.arm(plan, 42);
  fx.pool.set_fault_injector(&injector);
  fx.pool.start();

  constexpr uint64_t kAttempts = 20000;
  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> rejected{0};
  std::thread producer([&] {
    for (uint64_t i = 0; i < kAttempts; ++i) {
      const size_t worker = i % 2;
      // One attempt per packet through the arena path: an exhausted
      // arena rides the empty handle into submit_handle, which counts
      // the shed — same ledger contract the retired copy-shim had.
      runtime::PacketHandle handle = fx.pool.arena().try_alloc();
      if (handle) {
        *handle = flow_packet(static_cast<uint32_t>(i % 64),
                              static_cast<uint32_t>(i));
      }
      if (fx.pool.submit_handle(worker, std::move(handle))) {
        accepted.fetch_add(1, std::memory_order_relaxed);
      } else {
        rejected.fetch_add(1, std::memory_order_relaxed);
      }
      if (i % 512 == 0) std::this_thread::yield();
    }
  });
  // Stop while the producer is (very likely) still submitting — the
  // race under test. Correctness must not depend on the timing.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  fx.pool.stop();
  producer.join();

  const auto totals = fx.pool.snapshot().totals();
  EXPECT_EQ(accepted.load() + rejected.load(), kAttempts);
  // The ledger: every attempt is processed or shed, exactly once.
  EXPECT_EQ(totals.processed + totals.shed, kAttempts);
  // Shed = refused at admission + reclaimed from rings at stop().
  EXPECT_EQ(totals.shed - rejected.load(), accepted.load() - totals.processed);
  // The pause + pressure made the valve actually operate.
  EXPECT_GT(totals.shed, 0u);
  EXPECT_GT(injector.injected(fault::FaultKind::kQueuePressure), 0u);
}

TEST(Runtime, LifecycleIsIdempotent) {
  WorkerPool::Config config;
  config.workers = 2;
  PoolFixture fx(config);
  fx.pool.stop();   // stop before start: no-op
  fx.pool.drain();  // drain before start: no-op (nothing submitted)
  fx.pool.start();
  fx.pool.start();  // double start: no-op
  fx.pool.stop();
  fx.pool.stop();  // double stop: no-op
  EXPECT_EQ(fx.pool.snapshot().totals().packets, 0u);
}

TEST(Runtime, DestructorJoinsRunningPool) {
  util::SystemClock clock;
  dataplane::ServiceRegistry registry;
  auto pool = std::make_unique<WorkerPool>(clock, registry,
                                           WorkerPool::Config{.workers = 2});
  pool->start();
  pool.reset();  // must join, not crash or leak threads
}

// --- Concurrent telemetry export (TSan target) ---------------------

/// Workers hammer their counters while a reader thread repeatedly
/// snapshots the global registry and renders both exporters — the
/// scrape-during-load case a /metrics endpoint lives in. TSan verifies
/// the relaxed-atomic cells and the registry mutex discipline.
TEST(Runtime, RegistrySnapshotsRaceFreeWithRunningPool) {
  PlaneFixture fx(DispatchPolicy::kFlowHash,
                  {.workers = 2, .ring_capacity = 1024});
  fx.plane.add_descriptor(make_descriptor(7));

  util::ManualClock mint_clock(fx.clock.now());
  cookies::CookieGenerator gen(make_descriptor(7), mint_clock, 3);

  fx.plane.start();
  std::atomic<bool> done{false};
  std::thread reader([&done] {
    uint64_t last_packets = 0;
    while (!done.load(std::memory_order_acquire)) {
      const auto snap = telemetry::Registry::global().snapshot();
      const uint64_t packets = snap.counter_total("nnn_pool_packets_total");
      EXPECT_GE(packets, last_packets) << "counter went backwards";
      last_packets = packets;
      // Render both exporters too: they read histogram buckets.
      telemetry::to_prometheus(snap);
      telemetry::to_json(snap);
    }
  });
  constexpr uint32_t kPackets = 20'000;
  for (uint32_t i = 0; i < kPackets; ++i) {
    if (i % 10 == 0) mint_clock.set(fx.clock.now());
    net::Packet p = flow_packet(i % 64, i);
    if (i % 4 == 0) {
      cookies::attach(p, gen.generate(), cookies::Transport::kUdpHeader);
    }
    ingest_blocking(fx.plane, std::move(p));
  }
  fx.plane.drain();
  done.store(true, std::memory_order_release);
  reader.join();
  fx.plane.stop();

  const auto totals = fx.plane.snapshot().totals();
  EXPECT_EQ(totals.packets, kPackets);
  // Quiescent now: the registry and the snapshot agree exactly.
  const auto snap = telemetry::Registry::global().snapshot();
  EXPECT_EQ(snap.counter_total("nnn_pool_packets_total"), totals.packets);
  EXPECT_EQ(snap.counter_total("nnn_pool_verify_total",
                               telemetry::LabelSet{{"status", "ok"}}),
            totals.verified);
  EXPECT_GE(snap.counter_total("nnn_pool_batches_total"), 1u);
}

// --- Thread-safe logger (satellite) --------------------------------

TEST(Runtime, LoggerIsThreadSafeUnderConcurrentLogsAndSinkSwaps) {
  auto& logger = util::Logger::instance();
  logger.set_level(util::LogLevel::kDebug);
  std::atomic<uint64_t> captured{0};
  logger.set_sink([&captured](util::LogLevel, std::string_view) {
    captured.fetch_add(1, std::memory_order_relaxed);
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < 500; ++i) {
        util::log_debug("worker {} message {}", t, i);
      }
    });
  }
  // Concurrent level changes exercise the atomic.
  logger.set_level(util::LogLevel::kDebug);
  for (auto& t : threads) t.join();
  EXPECT_EQ(captured.load(), 4u * 500);
  logger.set_sink(nullptr);
  logger.set_level(util::LogLevel::kWarn);
}

// --- Zero-copy dataplane (PR 8) -------------------------------------

/// Total order over every compared field, so two runs that produced
/// the same multiset of verdicts sort into identical sequences even
/// where (tuple, seq) ties (the generator stamps one seq per flow).
bool verdict_before(const VerdictRecord& a, const VerdictRecord& b) {
  if (a.tuple < b.tuple) return true;
  if (b.tuple < a.tuple) return false;
  auto key = [](const VerdictRecord& v) {
    return std::make_tuple(
        v.seq, v.worker, v.has_action, v.mapped_now,
        v.verify_status ? static_cast<int>(*v.verify_status) : -1);
  };
  return key(a) < key(b);
}

/// Differential test against a test-local oracle: route() plus one
/// dataplane::Middlebox per worker, run on this thread. The threaded
/// plane (make_packet + fill_next + ingest_blocking, packets built in
/// their arena slots) must produce the same VerdictRecord multiset for
/// the same seeded workload — same worker, same verify status, same
/// replay decisions — so a steering or verify divergence fails here.
TEST(Runtime, DataplaneMatchesInlineOracleVerdicts) {
  constexpr size_t kWorkers = 4;
  constexpr size_t kFlows = 200;
  constexpr uint64_t kSeed = 4242;
  workload::PacketGenerator::Config wl;
  wl.descriptors = 64;
  const size_t total = kFlows * wl.packets_per_flow;

  util::SystemClock clock;
  dataplane::ServiceRegistry registry;
  registry.bind("Boost", dataplane::PriorityAction{0});
  cookies::CookieVerifier plane_staging(clock);
  workload::PacketGenerator plane_gen(wl, clock, plane_staging, kSeed);
  cookies::CookieVerifier oracle_staging(clock);
  workload::PacketGenerator oracle_gen(wl, clock, oracle_staging, kSeed);

  Dataplane::Config config;
  config.pool.workers = kWorkers;
  config.pool.verdict_capacity = 1 << 15;
  Dataplane plane(clock, registry, config);
  for (const auto& d : plane_gen.descriptors()) plane.add_descriptor(d);

  // The oracle: one verifier + middlebox per worker, as the pool
  // builds them, fed in ingest order.
  std::deque<cookies::CookieVerifier> verifiers;
  std::deque<dataplane::Middlebox> middleboxes;
  for (size_t w = 0; w < kWorkers; ++w) {
    auto& verifier = verifiers.emplace_back(clock);
    for (const auto& d : oracle_gen.descriptors()) {
      verifier.add_descriptor(d);
    }
    middleboxes.emplace_back(clock, verifier, registry);
  }

  std::vector<VerdictRecord> oracle_verdicts;
  plane.start();
  for (size_t i = 0; i < total; ++i) {
    net::Packet packet;
    oracle_gen.fill_next(packet);
    const size_t worker = plane.route(packet);
    const dataplane::Verdict verdict = middleboxes[worker].process(packet);
    oracle_verdicts.push_back({.worker = static_cast<uint32_t>(worker),
                               .seq = packet.seq,
                               .tuple = packet.tuple,
                               .has_action = verdict.action.has_value(),
                               .mapped_now = verdict.mapped_now,
                               .verify_status = verdict.verify_status});

    PacketHandle h = plane.make_packet();
    while (!h) {  // transient exhaustion: workers are draining slots
      std::this_thread::yield();
      h = plane.make_packet();
    }
    plane_gen.fill_next(*h);
    plane.ingest_blocking(std::move(h));
  }
  plane.drain();
  plane.stop();
  std::vector<VerdictRecord> plane_verdicts;
  plane.drain_verdicts(plane_verdicts);
  EXPECT_EQ(plane.arena().outstanding(), 0u) << "arena leaked slots";

  ASSERT_EQ(oracle_verdicts.size(), total);
  ASSERT_EQ(plane_verdicts.size(), total);
  std::sort(oracle_verdicts.begin(), oracle_verdicts.end(), verdict_before);
  std::sort(plane_verdicts.begin(), plane_verdicts.end(), verdict_before);
  for (size_t i = 0; i < total; ++i) {
    const auto& o = oracle_verdicts[i];
    const auto& p = plane_verdicts[i];
    ASSERT_FALSE(verdict_before(o, p) || verdict_before(p, o))
        << "tuple/seq streams diverge at " << i;
    EXPECT_EQ(o.worker, p.worker) << "steering diverged at " << i;
    EXPECT_EQ(o.has_action, p.has_action) << i;
    EXPECT_EQ(o.mapped_now, p.mapped_now) << i;
    EXPECT_EQ(o.verify_status, p.verify_status) << i;
  }
}

/// Arena exhaustion is fail-open: with every slot held hostage,
/// make_packet() returns empty handles and ingest() sheds — it never
/// blocks and never loses a ledger entry. When the slots come back the
/// plane processes normally and the arena balances to zero.
TEST(Runtime, ArenaExhaustionShedsAndBalancesLedger) {
  util::SystemClock clock;
  dataplane::ServiceRegistry registry;
  registry.bind("Boost", dataplane::PriorityAction{0});
  Dataplane::Config config;
  config.pool.workers = 2;
  config.pool.arena_slots = 16;  // tiny on purpose
  Dataplane plane(clock, registry, config);

  // Drain the arena completely.
  std::vector<PacketHandle> hostages;
  for (;;) {
    PacketHandle h = plane.make_packet();
    if (!h) break;
    hostages.push_back(std::move(h));
  }
  EXPECT_EQ(hostages.size(), plane.arena().capacity());
  EXPECT_GE(plane.arena().alloc_failures(), 1u);

  // Exhausted ingest: empty handles shed immediately, no blocking
  // (the pool is not even started — nothing could unblock us).
  uint64_t attempts = 0;
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(plane.ingest(plane.make_packet()));
    ++attempts;
  }
  {
    auto totals = plane.snapshot().totals();
    EXPECT_EQ(totals.shed, attempts);
    EXPECT_EQ(totals.processed, 0u);
  }

  // Free the slots, run real traffic through, and reconcile.
  hostages.clear();
  plane.start();
  constexpr uint32_t kPackets = 500;
  for (uint32_t i = 0; i < kPackets; ++i) {
    PacketHandle h = plane.make_packet();
    while (!h) {
      std::this_thread::yield();
      h = plane.make_packet();
    }
    *h = flow_packet(i % 16, i);
    plane.ingest_blocking(std::move(h));
    ++attempts;
  }
  plane.drain();
  plane.stop();

  const auto totals = plane.snapshot().totals();
  EXPECT_EQ(totals.processed + totals.shed, attempts);
  EXPECT_EQ(totals.processed, kPackets);
  EXPECT_EQ(plane.arena().outstanding(), 0u) << "slots leaked";
}

/// TSan target: handles released by foreign threads race
/// Dataplane::stop()'s reclaim sweep and the workers' cache flushes.
/// Single ownership means the races are freelist CASes only; the books
/// must still balance once everyone is done.
TEST(Runtime, HandleReleaseRacingStopKeepsArenaBalanced) {
  util::SystemClock clock;
  dataplane::ServiceRegistry registry;
  registry.bind("Boost", dataplane::PriorityAction{0});
  Dataplane::Config config;
  config.pool.workers = 2;
  config.pool.ring_capacity = 64;
  Dataplane plane(clock, registry, config);
  plane.start();

  std::atomic<bool> done{false};
  std::vector<std::thread> holders;
  for (int t = 0; t < 3; ++t) {
    // Holders use arena().try_alloc() directly (MPMC-safe), NOT
    // make_packet() — that one is producer-thread-only by contract.
    holders.emplace_back([&plane, &done] {
      while (!done.load(std::memory_order_relaxed)) {
        PacketHandle h = plane.arena().try_alloc();
        if (h) h->seq = 1;  // touch the slot; released at scope end
        std::this_thread::yield();
      }
    });
  }

  uint64_t attempts = 0;
  for (uint32_t i = 0; i < 4000; ++i) {
    PacketHandle h = plane.make_packet();
    if (h) *h = flow_packet(i % 64, i);
    plane.ingest(std::move(h));  // sheds (empty handle/ring full) are fine
    ++attempts;
  }
  plane.stop();  // races the holders' release_raw calls
  done.store(true, std::memory_order_relaxed);
  for (auto& t : holders) t.join();

  const auto totals = plane.snapshot().totals();
  EXPECT_EQ(totals.processed + totals.shed, attempts);
  EXPECT_EQ(plane.arena().outstanding(), 0u) << "slots leaked";
}

}  // namespace
}  // namespace nnn::runtime
