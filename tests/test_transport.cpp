// Cookie transports: attach/extract across all four carriers.
#include <gtest/gtest.h>

#include "cookies/generator.h"
#include "cookies/transport.h"
#include "net/http.h"
#include "net/tls.h"
#include "util/clock.h"

namespace nnn::cookies {
namespace {

CookieDescriptor make_descriptor() {
  CookieDescriptor d;
  d.cookie_id = 0xc0ffee;
  d.key.assign(32, 0x5a);
  d.service_data = "Boost";
  return d;
}

class TransportTest : public ::testing::Test {
 protected:
  TransportTest()
      : clock_(100 * util::kSecond),
        generator_(make_descriptor(), clock_, 99) {}

  net::Packet http_packet() {
    net::Packet p;
    p.tuple.proto = net::L4Proto::kTcp;
    p.tuple.dst_port = 80;
    net::http::Request r("GET", "/page", "cnn.com");
    const std::string text = r.serialize();
    p.payload.assign(text.begin(), text.end());
    return p;
  }

  net::Packet tls_packet() {
    net::Packet p;
    p.tuple.proto = net::L4Proto::kTcp;
    p.tuple.dst_port = 443;
    net::tls::ClientHello hello;
    hello.set_server_name("cnn.com");
    p.payload = hello.serialize_record();
    return p;
  }

  net::Packet udp_packet() {
    net::Packet p;
    p.tuple.proto = net::L4Proto::kUdp;
    p.payload = {1, 2, 3};
    return p;
  }

  net::Packet tcp_packet() {
    net::Packet p;
    p.tuple.proto = net::L4Proto::kTcp;
    p.tuple.dst_port = 443;
    p.payload = {0xde, 0xad};  // opaque application bytes
    return p;
  }

  net::Packet ipv6_packet() {
    net::Packet p;
    p.ipv6 = true;
    p.tuple.proto = net::L4Proto::kTcp;
    return p;
  }

  net::Packet quic_packet(bool long_header = true) {
    net::Packet p;
    p.tuple.proto = net::L4Proto::kUdp;
    p.tuple.dst_port = 443;
    net::QuicHeader q;
    q.long_header = long_header;
    q.scid = 0xc1d0;
    q.dcid = 0xc1d1;
    p.quic = q;
    p.payload = {9, 9, 9};  // opaque ciphertext stand-in
    return p;
  }

  util::ManualClock clock_;
  CookieGenerator generator_;
};

TEST_F(TransportTest, HttpHeaderCarriesCookie) {
  net::Packet p = http_packet();
  const Cookie c = generator_.generate();
  ASSERT_TRUE(attach(p, c, Transport::kHttpHeader));
  const auto extracted = extract(p);
  ASSERT_TRUE(extracted.has_value());
  EXPECT_EQ(extracted->transport, Transport::kHttpHeader);
  EXPECT_EQ(extracted->stack.front(), c);
  // The header is real HTTP: the request still parses and keeps Host.
  const auto request = net::http::Request::parse(
      std::string(p.payload.begin(), p.payload.end()));
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->host(), "cnn.com");
  EXPECT_TRUE(request->header(net::http::kCookieHeader).has_value());
}

TEST_F(TransportTest, TlsExtensionCarriesCookie) {
  net::Packet p = tls_packet();
  const Cookie c = generator_.generate();
  ASSERT_TRUE(attach(p, c, Transport::kTlsExtension));
  const auto extracted = extract(p);
  ASSERT_TRUE(extracted.has_value());
  EXPECT_EQ(extracted->transport, Transport::kTlsExtension);
  EXPECT_EQ(extracted->stack.front(), c);
  // SNI intact.
  const auto hello =
      net::tls::ClientHello::parse_record(util::BytesView(p.payload));
  ASSERT_TRUE(hello.has_value());
  EXPECT_EQ(hello->server_name().value(), "cnn.com");
}

TEST_F(TransportTest, Ipv6OptionCarriesCookie) {
  net::Packet p = ipv6_packet();
  const Cookie c = generator_.generate();
  ASSERT_TRUE(attach(p, c, Transport::kIpv6Extension));
  const auto extracted = extract(p);
  ASSERT_TRUE(extracted.has_value());
  EXPECT_EQ(extracted->transport, Transport::kIpv6Extension);
  EXPECT_EQ(extracted->stack.front(), c);
}

TEST_F(TransportTest, UdpShimCarriesCookieAndPreservesPayload) {
  net::Packet p = udp_packet();
  const Cookie c = generator_.generate();
  ASSERT_TRUE(attach(p, c, Transport::kUdpHeader));
  const auto extracted = extract(p);
  ASSERT_TRUE(extracted.has_value());
  EXPECT_EQ(extracted->transport, Transport::kUdpHeader);
  EXPECT_EQ(extracted->stack.front(), c);
  // Stripping restores the original payload exactly.
  EXPECT_TRUE(strip(p));
  EXPECT_EQ(p.payload, (util::Bytes{1, 2, 3}));
}

TEST_F(TransportTest, TcpOptionCarriesCookie) {
  net::Packet p = tcp_packet();
  const Cookie c = generator_.generate();
  ASSERT_TRUE(attach(p, c, Transport::kTcpOption));
  const auto extracted = extract(p);
  ASSERT_TRUE(extracted.has_value());
  EXPECT_EQ(extracted->transport, Transport::kTcpOption);
  EXPECT_EQ(extracted->stack.front(), c);
  // The payload is untouched: the cookie lives in the header.
  EXPECT_EQ(p.payload, (util::Bytes{0xde, 0xad}));
  EXPECT_TRUE(strip(p));
  EXPECT_FALSE(extract(p).has_value());
}

TEST_F(TransportTest, TcpOptionRefusedOnUdp) {
  net::Packet p = udp_packet();
  EXPECT_FALSE(attach(p, generator_.generate(), Transport::kTcpOption));
}

TEST_F(TransportTest, QuicTransportParamCarriesCookie) {
  net::Packet p = quic_packet();
  const Cookie c = generator_.generate();
  ASSERT_TRUE(attach(p, c, Transport::kQuicTransportParam));
  const auto extracted = extract(p);
  ASSERT_TRUE(extracted.has_value());
  EXPECT_EQ(extracted->transport, Transport::kQuicTransportParam);
  EXPECT_EQ(extracted->stack.front(), c);
  // The ciphertext payload is untouched: the cookie is handshake
  // metadata, not payload.
  EXPECT_EQ(p.payload, (util::Bytes{9, 9, 9}));
  EXPECT_TRUE(strip(p));
  EXPECT_FALSE(extract(p).has_value());
}

TEST_F(TransportTest, QuicTransportParamRefusedPastHandshake) {
  // Transport parameters exist only in the handshake flight: a
  // short-header packet cannot carry one, and a non-QUIC packet has
  // nowhere to put one.
  net::Packet short_header = quic_packet(/*long_header=*/false);
  EXPECT_FALSE(attach(short_header, generator_.generate(),
                      Transport::kQuicTransportParam));
  net::Packet plain = udp_packet();
  EXPECT_FALSE(
      attach(plain, generator_.generate(), Transport::kQuicTransportParam));
}

TEST_F(TransportTest, CarrierMismatchLeavesPacketUntouched) {
  net::Packet p = udp_packet();
  const auto original = p.payload;
  EXPECT_FALSE(attach(p, generator_.generate(), Transport::kHttpHeader));
  EXPECT_FALSE(attach(p, generator_.generate(), Transport::kTlsExtension));
  EXPECT_FALSE(attach(p, generator_.generate(), Transport::kIpv6Extension));
  EXPECT_EQ(p.payload, original);

  net::Packet v4_tcp = http_packet();
  EXPECT_FALSE(
      attach(v4_tcp, generator_.generate(), Transport::kUdpHeader));
  EXPECT_FALSE(
      attach(v4_tcp, generator_.generate(), Transport::kIpv6Extension));
}

TEST_F(TransportTest, EmptyStackRefused) {
  net::Packet p = udp_packet();
  EXPECT_FALSE(attach(p, std::vector<Cookie>{}, Transport::kUdpHeader));
}

TEST_F(TransportTest, ExtractFindsNothingOnPlainTraffic) {
  net::Packet plain_http = http_packet();
  EXPECT_FALSE(extract(plain_http).has_value());
  net::Packet plain_tls = tls_packet();
  EXPECT_FALSE(extract(plain_tls).has_value());
  net::Packet plain_udp = udp_packet();
  EXPECT_FALSE(extract(plain_udp).has_value());
  net::Packet empty;
  EXPECT_FALSE(extract(empty).has_value());
}

TEST_F(TransportTest, ReattachReplacesExistingCookie) {
  net::Packet p = http_packet();
  const Cookie first = generator_.generate();
  const Cookie second = generator_.generate();
  attach(p, first, Transport::kHttpHeader);
  attach(p, second, Transport::kHttpHeader);
  const auto extracted = extract(p);
  ASSERT_TRUE(extracted.has_value());
  ASSERT_EQ(extracted->stack.size(), 1u);
  EXPECT_EQ(extracted->stack.front(), second);
}

TEST_F(TransportTest, StackOfCookiesRoundTripsOnEveryCarrier) {
  const std::vector<Cookie> stack = {generator_.generate(),
                                     generator_.generate()};
  struct Case {
    net::Packet packet;
    Transport transport;
  };
  std::vector<Case> cases;
  cases.push_back({http_packet(), Transport::kHttpHeader});
  cases.push_back({tls_packet(), Transport::kTlsExtension});
  cases.push_back({ipv6_packet(), Transport::kIpv6Extension});
  cases.push_back({udp_packet(), Transport::kUdpHeader});
  cases.push_back({tcp_packet(), Transport::kTcpOption});
  for (auto& [packet, transport] : cases) {
    ASSERT_TRUE(attach(packet, stack, transport));
    const auto extracted = extract(packet);
    ASSERT_TRUE(extracted.has_value());
    EXPECT_EQ(extracted->transport, transport);
    EXPECT_EQ(extracted->stack, stack);
  }
}

TEST_F(TransportTest, StripRemovesEveryCarrier) {
  net::Packet http = http_packet();
  attach(http, generator_.generate(), Transport::kHttpHeader);
  EXPECT_TRUE(strip(http));
  EXPECT_FALSE(extract(http).has_value());

  net::Packet tls = tls_packet();
  attach(tls, generator_.generate(), Transport::kTlsExtension);
  EXPECT_TRUE(strip(tls));
  EXPECT_FALSE(extract(tls).has_value());

  net::Packet v6 = ipv6_packet();
  attach(v6, generator_.generate(), Transport::kIpv6Extension);
  EXPECT_TRUE(strip(v6));
  EXPECT_FALSE(extract(v6).has_value());

  net::Packet plain = udp_packet();
  EXPECT_FALSE(strip(plain));
}

// --- Packet::cookie_bytes — the unified carrier accessor (PR 8) -----

/// Every carrier surfaces the SAME encoded stack bytes through
/// cookie_bytes(), tagged with where they rode, and the no-HMAC
/// cookie-id peek the RX demux steers by works on all of them.
TEST_F(TransportTest, CookieBytesFindsEveryCarrier) {
  const Cookie c = generator_.generate();
  const util::Bytes encoded = encode_stack({c});
  struct Case {
    net::Packet packet;
    Transport transport;
    net::CookieCarrier carrier;
  };
  std::vector<Case> cases;
  cases.push_back(
      {ipv6_packet(), Transport::kIpv6Extension, net::CookieCarrier::kIpv6Option});
  cases.push_back(
      {tcp_packet(), Transport::kTcpOption, net::CookieCarrier::kTcpOption});
  cases.push_back(
      {udp_packet(), Transport::kUdpHeader, net::CookieCarrier::kUdpShim});
  cases.push_back(
      {tls_packet(), Transport::kTlsExtension, net::CookieCarrier::kTlsExtension});
  cases.push_back(
      {http_packet(), Transport::kHttpHeader, net::CookieCarrier::kHttpHeader});
  cases.push_back({quic_packet(), Transport::kQuicTransportParam,
                   net::CookieCarrier::kQuicTransportParam});
  for (auto& [packet, transport, carrier] : cases) {
    ASSERT_TRUE(attach(packet, c, transport));
    const auto raw = packet.cookie_bytes();
    ASSERT_TRUE(raw.has_value())
        << "carrier " << static_cast<int>(carrier) << " not found";
    EXPECT_EQ(raw->carrier, carrier);
    EXPECT_TRUE(util::equal(raw->bytes(), util::BytesView(encoded)))
        << "carrier bytes differ from encode_stack";
    EXPECT_EQ(peek_cookie_id(raw->bytes()), c.cookie_id);
  }
  net::Packet plain = udp_packet();
  EXPECT_FALSE(plain.cookie_bytes().has_value());
}

/// Extraction precedence is fixed: cheapest carrier first. A packet
/// wearing several cookies answers with the binary fixed-offset one
/// before anything that needs a payload parse.
TEST_F(TransportTest, CookieBytesPrecedenceOrder) {
  const Cookie c = generator_.generate();

  // l3 beats l4: an IPv6+TCP packet with both answers kIpv6Option.
  net::Packet v6 = ipv6_packet();
  ASSERT_TRUE(attach(v6, c, Transport::kIpv6Extension));
  ASSERT_TRUE(attach(v6, c, Transport::kTcpOption));
  ASSERT_EQ(v6.cookie_bytes()->carrier, net::CookieCarrier::kIpv6Option);
  v6.l3_cookie.reset();
  ASSERT_EQ(v6.cookie_bytes()->carrier, net::CookieCarrier::kTcpOption);

  // TLS payload + TCP option: the header option wins (no parse needed).
  net::Packet tls = tls_packet();
  ASSERT_TRUE(attach(tls, c, Transport::kTlsExtension));
  ASSERT_TRUE(attach(tls, c, Transport::kTcpOption));
  ASSERT_EQ(tls.cookie_bytes()->carrier, net::CookieCarrier::kTcpOption);
  tls.l4_cookie.reset();
  ASSERT_EQ(tls.cookie_bytes()->carrier, net::CookieCarrier::kTlsExtension);

  // QUIC transport parameter sits with the binary carriers: it beats
  // the UDP shim (fixed payload offset) on the same handshake packet,
  // and the l4 direct field would beat it if a QUIC packet could have
  // one. With the parameter gone the shim is found again.
  net::Packet quic = quic_packet();
  ASSERT_TRUE(attach(quic, c, Transport::kQuicTransportParam));
  ASSERT_TRUE(attach(quic, c, Transport::kUdpHeader));
  ASSERT_EQ(quic.cookie_bytes()->carrier,
            net::CookieCarrier::kQuicTransportParam);
  quic.quic->tp_cookie.clear();
  ASSERT_EQ(quic.cookie_bytes()->carrier, net::CookieCarrier::kUdpShim);
}

/// The text carriers must copy out (TLS extension body, base64-decoded
/// HTTP header): their view is backed by RawCookie::storage, not the
/// payload, so it stays valid if the payload reallocates.
TEST_F(TransportTest, CookieBytesTextCarriersAreStorageBacked) {
  const Cookie c = generator_.generate();
  for (net::Packet p : {tls_packet(), http_packet()}) {
    const Transport t = p.tuple.dst_port == 443 ? Transport::kTlsExtension
                                                : Transport::kHttpHeader;
    ASSERT_TRUE(attach(p, c, t));
    const auto raw = p.cookie_bytes();
    ASSERT_TRUE(raw.has_value());
    ASSERT_FALSE(raw->storage.empty());
    EXPECT_EQ(raw->bytes().data(), raw->storage.data());
    // And the storage holds a decodable stack.
    const auto stack = decode_stack(raw->bytes());
    ASSERT_TRUE(stack.has_value());
    EXPECT_EQ(stack->front(), c);
  }
}

TEST_F(TransportTest, MalformedCookieBlobIgnored) {
  // An X-Network-Cookie header with junk does not yield a cookie.
  net::Packet p = http_packet();
  net::http::Request r("GET", "/", "cnn.com");
  r.add_header(std::string(net::http::kCookieHeader), "not-base64!!");
  const std::string text = r.serialize();
  p.payload.assign(text.begin(), text.end());
  EXPECT_FALSE(extract(p).has_value());
}

}  // namespace
}  // namespace nnn::cookies
