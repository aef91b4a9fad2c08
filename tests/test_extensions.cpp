// Extension features from §4.3 / §4.6 / §6: delivery guarantees (ack
// cookies), the hardware pre-filter, and regulator compliance
// monitoring. Scale-out sharding and the double-spend problem are
// tested through runtime::Dataplane in test_runtime.cpp.
#include <gtest/gtest.h>

#include <vector>

#include "cookies/ack_monitor.h"
#include "cookies/generator.h"
#include "cookies/transport.h"
#include "dataplane/hw_filter.h"
#include "dataplane/middlebox.h"
#include "net/http.h"
#include "net/wire.h"
#include "server/compliance.h"
#include "util/clock.h"

namespace nnn {
namespace {

using util::kSecond;

cookies::CookieDescriptor make_descriptor(cookies::CookieId id) {
  cookies::CookieDescriptor d;
  d.cookie_id = id;
  d.key.assign(32, static_cast<uint8_t>(id * 3 + 1));
  d.service_data = "Boost";
  return d;
}

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

// --- delivery guarantees (§4.3) ---

class DeliveryGuaranteeTest : public ::testing::Test {
 protected:
  DeliveryGuaranteeTest()
      : clock_(1000 * kSecond), verifier_(clock_) {
    registry_.bind("Boost", dataplane::PriorityAction{0});
    descriptor_ = make_descriptor(7);
    descriptor_.attributes.delivery_guarantee = true;
    verifier_.add_descriptor(descriptor_);
    dataplane::Middlebox::Config config;
    config.delivery_guarantees = true;
    middlebox_.emplace(clock_, verifier_, registry_, config);
  }

  util::ManualClock clock_;
  cookies::CookieVerifier verifier_;
  dataplane::ServiceRegistry registry_;
  cookies::CookieDescriptor descriptor_;
  std::optional<dataplane::Middlebox> middlebox_;
};

TEST_F(DeliveryGuaranteeTest, AckCookieAttachedToReverseTraffic) {
  cookies::CookieGenerator generator(descriptor_, clock_, 7);
  cookies::AckMonitor monitor(clock_, 2 * kSecond);

  net::Packet request = cookie_udp_packet(45000, generator.generate());
  monitor.expect(request.tuple, descriptor_.cookie_id);
  ASSERT_TRUE(middlebox_->process(request).action.has_value());
  EXPECT_EQ(middlebox_->pending_acks(), 1u);

  // The server's response crosses the same box on the reverse path.
  net::Packet response;
  response.tuple = request.tuple.reversed();
  response.payload = {0x01};
  middlebox_->process(response);
  EXPECT_EQ(middlebox_->pending_acks(), 0u);

  // The client's monitor recognizes the ack.
  EXPECT_TRUE(monitor.on_packet(response));
  EXPECT_TRUE(monitor.acked(request.tuple));
  EXPECT_TRUE(monitor.overdue().empty());

  // The attached ack is a valid, fresh cookie from the descriptor.
  const auto extracted = cookies::extract(response);
  ASSERT_TRUE(extracted.has_value());
  EXPECT_TRUE(verifier_.verify(extracted->stack.front()).ok());
}

TEST_F(DeliveryGuaranteeTest, NoAckWithoutAttribute) {
  auto plain = make_descriptor(8);  // delivery_guarantee = false
  verifier_.add_descriptor(plain);
  cookies::CookieGenerator generator(plain, clock_, 8);
  net::Packet request = cookie_udp_packet(45001, generator.generate());
  middlebox_->process(request);
  EXPECT_EQ(middlebox_->pending_acks(), 0u);
  net::Packet response;
  response.tuple = request.tuple.reversed();
  middlebox_->process(response);
  EXPECT_FALSE(cookies::extract(response).has_value());
}

TEST_F(DeliveryGuaranteeTest, MissingAckBecomesOverdueAlert) {
  // The network loses state (the §4.3 motivation: "a temporary loss of
  // state in the network"): no ack ever arrives, the monitor alerts.
  cookies::CookieGenerator generator(descriptor_, clock_, 9);
  cookies::AckMonitor monitor(clock_, 2 * kSecond);
  net::Packet request = cookie_udp_packet(45002, generator.generate());
  monitor.expect(request.tuple, descriptor_.cookie_id);
  // (the request never reaches a cookie-enabled box)
  clock_.advance(3 * kSecond);
  const auto overdue = monitor.overdue();
  ASSERT_EQ(overdue.size(), 1u);
  EXPECT_EQ(overdue[0].cookie_id, descriptor_.cookie_id);
  EXPECT_FALSE(monitor.acked(request.tuple));
}

TEST_F(DeliveryGuaranteeTest, AckDebtSurvivesUncarryablePackets) {
  cookies::CookieGenerator generator(descriptor_, clock_, 10);
  net::Packet request = cookie_udp_packet(45003, generator.generate());
  middlebox_->process(request);

  // A TCP reverse packet with opaque payload can't carry the ack on
  // any transport; the debt persists to the next packet.
  net::Packet tcp_response;
  tcp_response.tuple = request.tuple.reversed();
  tcp_response.tuple.proto = net::L4Proto::kTcp;
  tcp_response.payload = {0x16, 0x03};
  middlebox_->process(tcp_response);
  EXPECT_FALSE(cookies::extract(tcp_response).has_value());
  EXPECT_EQ(middlebox_->pending_acks(), 1u);

  // The next UDP response carries it.
  net::Packet udp_response;
  udp_response.tuple = request.tuple.reversed();
  middlebox_->process(udp_response);
  EXPECT_TRUE(cookies::extract(udp_response).has_value());
  EXPECT_EQ(middlebox_->pending_acks(), 0u);
}

TEST_F(DeliveryGuaranteeTest, TcpFlowDebtClearsOnFirstReversePacket) {
  // A delivery-guarantee cookie on a TCP flow: the server's reverse
  // packets use the owed tuple but are neither HTTP requests nor
  // ClientHellos, so only the TCP-option carrier can take the ack.
  cookies::CookieGenerator generator(descriptor_, clock_, 12);
  cookies::AckMonitor monitor(clock_, 2 * kSecond);
  net::Packet request;
  request.tuple.src_ip = net::IpAddress::v4(192, 168, 1, 11);
  request.tuple.dst_ip = net::IpAddress::v4(151, 101, 0, 11);
  request.tuple.src_port = 45010;
  request.tuple.dst_port = 443;
  request.tuple.proto = net::L4Proto::kTcp;
  ASSERT_TRUE(cookies::attach(request, generator.generate(),
                              cookies::Transport::kTcpOption));
  monitor.expect(request.tuple, descriptor_.cookie_id);
  ASSERT_TRUE(middlebox_->process(request).action.has_value());
  ASSERT_EQ(middlebox_->pending_acks(), 1u);

  net::Packet response;
  response.tuple = request.tuple.reversed();
  response.payload = {0x17, 0x03, 0x03, 0x00, 0x01, 0xaa};  // app data
  middlebox_->process(response);
  EXPECT_EQ(middlebox_->pending_acks(), 0u);
  const auto extracted = cookies::extract(response);
  ASSERT_TRUE(extracted.has_value());
  EXPECT_EQ(extracted->transport, cookies::Transport::kTcpOption);
  EXPECT_TRUE(verifier_.verify(extracted->stack.front()).ok());
  EXPECT_TRUE(monitor.on_packet(response));
  EXPECT_TRUE(monitor.acked(request.tuple));

  // Later reverse packets owe nothing and carry nothing.
  net::Packet later;
  later.tuple = request.tuple.reversed();
  later.payload = {0x17, 0x03, 0x03, 0x00, 0x01, 0xbb};
  middlebox_->process(later);
  EXPECT_FALSE(cookies::extract(later).has_value());
  EXPECT_EQ(middlebox_->pending_acks(), 0u);
}

TEST_F(DeliveryGuaranteeTest, BurstMatchesOnePacketAtATime) {
  // Delivery-guarantee mode through process_batch: the ack debt a
  // cookie records must attach to the first reverse packet that can
  // carry it later in the SAME burst, exactly as with one process()
  // per packet. Both boxes share ack_seed, so they mint the same ack.
  cookies::CookieVerifier verifier_seq(clock_);
  verifier_seq.add_descriptor(descriptor_);
  dataplane::Middlebox::Config config;
  config.delivery_guarantees = true;
  dataplane::Middlebox sequential(clock_, verifier_seq, registry_, config);

  cookies::CookieGenerator generator(descriptor_, clock_, 11);
  std::vector<net::Packet> burst;
  burst.push_back(cookie_udp_packet(45004, generator.generate()));
  // Reverse addresses over TCP: not the flow that owes the ack, so
  // the debt must survive it untouched.
  net::Packet tcp_response;
  tcp_response.tuple = burst[0].tuple.reversed();
  tcp_response.tuple.proto = net::L4Proto::kTcp;
  tcp_response.payload = {0x16, 0x03};
  burst.push_back(tcp_response);
  net::Packet udp_response;  // reverse, carries the ack
  udp_response.tuple = burst[0].tuple.reversed();
  udp_response.payload = {0x01};
  burst.push_back(udp_response);
  net::Packet unrelated;
  unrelated.tuple = burst[0].tuple;
  unrelated.tuple.src_port = 45005;
  unrelated.payload = {0x02};
  burst.push_back(unrelated);

  std::vector<net::Packet> copy = burst;
  std::vector<dataplane::Verdict> expected;
  for (net::Packet& packet : copy) {
    expected.push_back(sequential.process(packet));
  }

  std::vector<net::Packet*> pointers;
  for (net::Packet& packet : burst) pointers.push_back(&packet);
  std::vector<dataplane::Verdict> batched(burst.size());
  middlebox_->process_batch(pointers, batched);

  for (size_t i = 0; i < burst.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(batched[i].action.has_value(), expected[i].action.has_value());
    EXPECT_EQ(batched[i].service_data, expected[i].service_data);
    EXPECT_EQ(batched[i].mapped_now, expected[i].mapped_now);
    EXPECT_EQ(batched[i].verify_status, expected[i].verify_status);
  }
  EXPECT_TRUE(batched[0].mapped_now);
  EXPECT_EQ(middlebox_->pending_acks(), sequential.pending_acks());
  EXPECT_EQ(middlebox_->pending_acks(), 0u);

  // The reverse packets come out byte-identical: the TCP one without
  // a cookie, the UDP one carrying the same ack cookie.
  for (size_t i = 0; i < burst.size(); ++i) {
    EXPECT_EQ(net::serialize(burst[i]), net::serialize(copy[i]))
        << "packet " << i;
  }
  EXPECT_FALSE(cookies::extract(burst[1]).has_value());
  const auto ack = cookies::extract(burst[2]);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->stack, cookies::extract(copy[2])->stack);
}

TEST(AckMonitor, IgnoresWrongDescriptorAndWrongFlow) {
  util::ManualClock clock(1000 * kSecond);
  cookies::AckMonitor monitor(clock, kSecond);
  net::FiveTuple flow;
  flow.src_port = 1;
  flow.dst_port = 2;
  flow.proto = net::L4Proto::kUdp;
  monitor.expect(flow, 42);

  auto other_descriptor = make_descriptor(99);
  cookies::CookieGenerator generator(other_descriptor, clock, 99);
  net::Packet wrong_id;
  wrong_id.tuple = flow.reversed();
  cookies::attach(wrong_id, generator.generate(),
                  cookies::Transport::kUdpHeader);
  EXPECT_FALSE(monitor.on_packet(wrong_id));

  net::Packet wrong_flow;
  wrong_flow.tuple = flow;  // not reversed
  cookies::attach(wrong_flow, generator.generate(),
                  cookies::Transport::kUdpHeader);
  EXPECT_FALSE(monitor.on_packet(wrong_flow));
  EXPECT_EQ(monitor.pending(), 1u);
}

// --- hardware pre-filter (§4.6) ---

class HwFilterTest : public ::testing::Test {
 protected:
  HwFilterTest()
      : clock_(1000 * kSecond),
        filter_(clock_, cookies::kNetworkCoherencyTime, {}) {
    descriptor_ = make_descriptor(11);
    filter_.learn_id(descriptor_.cookie_id);
  }

  util::ManualClock clock_;
  dataplane::HardwareFilter filter_;
  cookies::CookieDescriptor descriptor_;
};

TEST_F(HwFilterTest, PlainPacketsTakeTheFastPath) {
  net::Packet p;
  p.tuple.src_port = 1;
  p.wire_size = 700;
  EXPECT_EQ(filter_.classify(p), dataplane::HwDecision::kFastPath);
  net::Packet opaque;
  opaque.payload = {0x17, 0x03, 0x03};
  EXPECT_EQ(filter_.classify(opaque), dataplane::HwDecision::kFastPath);
  EXPECT_EQ(filter_.stats().fast_path, 2u);
}

TEST_F(HwFilterTest, KnownFreshCookieGoesToSoftware) {
  cookies::CookieGenerator generator(descriptor_, clock_, 11);
  net::Packet p = cookie_udp_packet(47000, generator.generate());
  EXPECT_EQ(filter_.classify(p), dataplane::HwDecision::kToSoftware);
}

TEST_F(HwFilterTest, UnknownIdRejectedWithoutSoftware) {
  auto rogue = make_descriptor(999);
  cookies::CookieGenerator generator(rogue, clock_, 12);
  net::Packet p = cookie_udp_packet(47001, generator.generate());
  EXPECT_EQ(filter_.classify(p),
            dataplane::HwDecision::kRejectUnknownId);
}

TEST_F(HwFilterTest, StaleTimestampRejected) {
  cookies::CookieGenerator generator(descriptor_, clock_, 13);
  const auto cookie = generator.generate();
  clock_.advance(10 * kSecond);  // well past the 5 s NCT
  net::Packet p = cookie_udp_packet(47002, cookie);
  EXPECT_EQ(filter_.classify(p), dataplane::HwDecision::kRejectStale);
}

TEST_F(HwFilterTest, TcpOptionCarrierDetected) {
  cookies::CookieGenerator generator(descriptor_, clock_, 14);
  net::Packet p;
  p.tuple.src_port = 47003;
  p.tuple.proto = net::L4Proto::kTcp;
  cookies::attach(p, generator.generate(),
                  cookies::Transport::kTcpOption);
  EXPECT_EQ(filter_.classify(p), dataplane::HwDecision::kToSoftware);
}

TEST_F(HwFilterTest, HttpCarrierRespectsTextParsingConfig) {
  cookies::CookieGenerator generator(descriptor_, clock_, 15);
  net::Packet p;
  p.tuple.proto = net::L4Proto::kTcp;
  net::http::Request r("GET", "/", "x.example");
  const std::string text = r.serialize();
  p.payload.assign(text.begin(), text.end());
  cookies::attach(p, generator.generate(),
                  cookies::Transport::kHttpHeader);

  EXPECT_EQ(filter_.classify(p), dataplane::HwDecision::kToSoftware);

  dataplane::HardwareFilter conservative(
      clock_, cookies::kNetworkCoherencyTime,
      {.check_id = true, .check_timestamp = true,
       .parse_text_carriers = false});
  conservative.learn_id(descriptor_.cookie_id);
  // Without text parsing the hardware can't see this cookie: the
  // packet takes the fast path and software sniffing must catch it.
  EXPECT_EQ(conservative.classify(p), dataplane::HwDecision::kFastPath);
}

TEST_F(HwFilterTest, FilterAgreesWithSoftwareVerifier) {
  // Property: hardware never rejects a cookie software would accept.
  cookies::CookieVerifier verifier(clock_);
  verifier.add_descriptor(descriptor_);
  cookies::CookieGenerator generator(descriptor_, clock_, 16);
  for (int i = 0; i < 200; ++i) {
    net::Packet p = cookie_udp_packet(
        static_cast<uint16_t>(48000 + i), generator.generate());
    const auto decision = filter_.classify(p);
    const auto extracted = cookies::extract(p);
    const bool software_ok =
        verifier.verify(extracted->stack.front()).ok();
    if (software_ok) {
      EXPECT_EQ(decision, dataplane::HwDecision::kToSoftware);
    }
  }
}

// --- compliance (§6) ---

constexpr util::Timestamp kDay = 24LL * 3600 * kSecond;

TEST(Compliance, GrantWithinDeadlineIsClean) {
  server::ComplianceMonitor monitor;  // 3-day rule
  monitor.record_request("somafm.example", "MusicFreedom", 0);
  EXPECT_TRUE(monitor.record_grant("somafm.example", "MusicFreedom",
                                   2 * kDay));
  EXPECT_TRUE(monitor.violations(100 * kDay).empty());
}

TEST(Compliance, LateGrantIsAViolation) {
  // The SomaFM story: 18 months from request to grant.
  server::ComplianceMonitor monitor;
  monitor.record_request("somafm.example", "MusicFreedom", 0);
  monitor.record_grant("somafm.example", "MusicFreedom", 540 * kDay);
  const auto violations = monitor.violations(600 * kDay);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].request.provider, "somafm.example");
  EXPECT_EQ(violations[0].overdue_by, 537 * kDay);
}

TEST(Compliance, PendingPastDeadlineIsAViolation) {
  // The RockRadio.gr story: "after three e-mails ... and several
  // months we heard no reply".
  server::ComplianceMonitor monitor;
  monitor.record_request("rockradio.example", "MusicFreedom", 0);
  EXPECT_TRUE(monitor.violations(90 * kDay).size() == 1);
  EXPECT_EQ(monitor.pending(90 * kDay).size(), 1u);
  // Not yet due: no violation on day 2.
  server::ComplianceMonitor fresh;
  fresh.record_request("x", "P", 0);
  EXPECT_TRUE(fresh.violations(2 * kDay).empty());
}

TEST(Compliance, GrantWithoutRequestRefused) {
  server::ComplianceMonitor monitor;
  EXPECT_FALSE(monitor.record_grant("ghost.example", "P", kDay));
}

TEST(Compliance, PublicDatabaseExports) {
  server::ComplianceMonitor monitor;
  monitor.record_request("a.example", "P", 1 * kDay);
  monitor.record_request("b.example", "P", 2 * kDay);
  monitor.record_grant("a.example", "P", 3 * kDay);
  const auto exported = monitor.to_json();
  ASSERT_TRUE(exported.is_array());
  ASSERT_EQ(exported.as_array().size(), 2u);
  EXPECT_EQ(exported.as_array()[0].get_string("provider"), "a.example");
  EXPECT_TRUE(exported.as_array()[1].find("granted_at")->is_null());
}

}  // namespace
}  // namespace nnn
