// CookieVerifier: the four checks of §4.2 plus revocation/expiry.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "controlplane/table_mirror.h"
#include "cookies/generator.h"
#include "cookies/verifier.h"
#include "util/clock.h"

namespace nnn::cookies {
namespace {

CookieDescriptor make_descriptor(CookieId id) {
  CookieDescriptor d;
  d.cookie_id = id;
  d.key.assign(32, static_cast<uint8_t>(id * 11 + 1));
  d.service_data = "Boost";
  return d;
}

/// Where the verifier under test reads its descriptors from.
enum class Source { kOwnedStore, kPublishedTable };

/// Every test body runs once per descriptor source: the verifier's own
/// store (add_descriptor/revoke/remove) and a table published from a
/// TableMirror (set_external_table). Edits go through the fixture, so
/// one body drives both. Either way the mirror records the current
/// descriptor state, which twin() replays into a second verifier.
class VerifierTest : public ::testing::Test {
 protected:
  static constexpr util::Timestamp kStart = 1'000'000 * util::kSecond;

  VerifierTest() : clock_(kStart) { reset(Source::kOwnedStore); }

  /// Fresh verifier, mirror and clock reading from `source`.
  void reset(Source source) {
    source_ = source;
    clock_.set(kStart);
    verifier_ = std::make_unique<CookieVerifier>(clock_);
    mirror_ = controlplane::TableMirror();
    table_.reset();
    epoch_ = 0;
    if (source == Source::kPublishedTable) publish(++epoch_);
  }

  /// Runs `body` once per source, each on a fresh verifier.
  template <class Body>
  void for_each_source(Body&& body) {
    for (const Source source : {Source::kOwnedStore, Source::kPublishedTable}) {
      SCOPED_TRACE(source == Source::kOwnedStore ? "owned store"
                                                 : "published table");
      reset(source);
      body();
    }
  }

  /// Build an immutable table from the mirror, stamped like the
  /// publisher would, and hand it to the verifier.
  void publish(uint64_t epoch) {
    auto table = mirror_.build();
    table->set_epoch(epoch);
    verifier_->set_external_table(table.get());
    table_ = std::move(table);
  }

  void edit(controlplane::UpdateOp op, CookieId id,
            const CookieDescriptor& descriptor = {}) {
    ASSERT_TRUE(mirror_.apply(
        controlplane::Update{mirror_.version() + 1, op, id, descriptor}));
    if (source_ == Source::kPublishedTable) publish(++epoch_);
  }

  void add(const CookieDescriptor& descriptor) {
    if (source_ == Source::kOwnedStore) verifier_->add_descriptor(descriptor);
    edit(controlplane::UpdateOp::kAdd, descriptor.cookie_id, descriptor);
  }

  /// Returns whether `id` was known, like CookieVerifier::revoke.
  bool revoke(CookieId id) {
    const bool known = verifier_->knows(id);
    if (source_ == Source::kOwnedStore) {
      EXPECT_EQ(verifier_->revoke(id), known);
    }
    edit(controlplane::UpdateOp::kRevoke, id);
    return known;
  }

  /// Returns whether `id` was present, like CookieVerifier::remove.
  bool remove(CookieId id) {
    const bool known = verifier_->knows(id);
    if (source_ == Source::kOwnedStore) {
      EXPECT_EQ(verifier_->remove(id), known);
    }
    edit(controlplane::UpdateOp::kRemove, id);
    return known;
  }

  CookieGenerator install(CookieId id) {
    auto descriptor = make_descriptor(id);
    add(descriptor);
    return CookieGenerator(descriptor, clock_, id);
  }

  /// A second verifier over the same descriptors and source, for
  /// differential tests.
  std::unique_ptr<CookieVerifier> twin() {
    auto twin = std::make_unique<CookieVerifier>(clock_);
    if (source_ == Source::kPublishedTable) {
      twin->set_external_table(table_.get());
      return twin;
    }
    for (const auto& descriptor : mirror_.live()) {
      twin->add_descriptor(descriptor);
    }
    for (const CookieId id : mirror_.revoked()) twin->revoke(id);
    return twin;
  }

  util::ManualClock clock_;
  Source source_ = Source::kOwnedStore;
  std::unique_ptr<CookieVerifier> verifier_;
  controlplane::TableMirror mirror_;
  std::unique_ptr<DescriptorTable> table_;
  uint64_t epoch_ = 0;
};

TEST_F(VerifierTest, ValidCookieVerifies) {
  for_each_source([&] {
    auto gen = install(1);
    const auto result = verifier_->verify(gen.generate());
    EXPECT_TRUE(result.ok());
    ASSERT_NE(result.descriptor, nullptr);
    EXPECT_EQ(result.descriptor->service_data, "Boost");
    EXPECT_EQ(verifier_->stats().verified, 1u);
  });
}

TEST_F(VerifierTest, UnknownIdRejected) {
  for_each_source([&] {
    auto gen = install(2);
    Cookie c = gen.generate();
    c.cookie_id = 999;
    EXPECT_EQ(verifier_->verify(c).status, VerifyStatus::kUnknownId);
    EXPECT_EQ(verifier_->stats().unknown_id, 1u);
  });
}

TEST_F(VerifierTest, ForgedSignatureRejected) {
  for_each_source([&] {
    auto gen = install(3);
    Cookie c = gen.generate();
    c.signature[5] ^= 0x01;
    EXPECT_EQ(verifier_->verify(c).status, VerifyStatus::kBadSignature);
  });
}

TEST_F(VerifierTest, WrongKeyRejected) {
  for_each_source([&] {
    auto descriptor = make_descriptor(4);
    add(descriptor);
    auto other = descriptor;
    other.key.assign(32, 0xEE);
    CookieGenerator rogue(other, clock_, 4);
    EXPECT_EQ(verifier_->verify(rogue.generate()).status,
              VerifyStatus::kBadSignature);
  });
}

TEST_F(VerifierTest, ReplayRejected) {
  for_each_source([&] {
    auto gen = install(5);
    const Cookie c = gen.generate();
    EXPECT_TRUE(verifier_->verify(c).ok());
    EXPECT_EQ(verifier_->verify(c).status, VerifyStatus::kReplayed);
    EXPECT_EQ(verifier_->stats().replayed, 1u);
  });
}

TEST_F(VerifierTest, ReplayScopeIsVerifierWideAcrossDescriptors) {
  // ONE uuid-keyed replay cache across descriptors (uuids are 128-bit
  // randoms, so a cross-descriptor collision is adversarial reuse).
  // Re-signing a seen uuid under a different descriptor's key must
  // still be caught.
  for_each_source([&] {
    auto gen = install(12);
    install(13);
    const Cookie first = gen.generate();
    EXPECT_TRUE(verifier_->verify(first).ok());

    Cookie cross = first;
    cross.cookie_id = 13;
    cross.signature =
        cross.compute_tag(util::BytesView(make_descriptor(13).key));
    EXPECT_EQ(verifier_->verify(cross).status, VerifyStatus::kReplayed);
    EXPECT_EQ(verifier_->external_replay().size(), 1u);
  });
}

TEST_F(VerifierTest, NctWindowBoundaries) {
  for_each_source([&] {
    auto gen = install(6);
    // Exactly NCT old: still accepted (Listing 3 rejects only > NCT).
    Cookie c = gen.generate();
    clock_.advance(kNetworkCoherencyTime);
    EXPECT_TRUE(verifier_->verify(c).ok());
    // One second past NCT: stale.
    Cookie late = gen.generate();
    clock_.advance(kNetworkCoherencyTime + util::kSecond);
    EXPECT_EQ(verifier_->verify(late).status, VerifyStatus::kStaleTimestamp);
  });
}

TEST_F(VerifierTest, FutureTimestampRejected) {
  for_each_source([&] {
    auto gen = install(7);
    Cookie c = gen.generate();
    c.timestamp += 100;  // forged future time
    c.signature = c.compute_tag(util::BytesView(make_descriptor(7).key));
    EXPECT_EQ(verifier_->verify(c).status, VerifyStatus::kStaleTimestamp);
  });
}

TEST_F(VerifierTest, RevocationTombstones) {
  for_each_source([&] {
    auto gen = install(8);
    EXPECT_TRUE(verifier_->verify(gen.generate()).ok());
    EXPECT_TRUE(revoke(8));
    EXPECT_EQ(verifier_->verify(gen.generate()).status,
              VerifyStatus::kDescriptorRevoked);
    // An unknown id reports false, but still gets a tombstone (see
    // RevokeBeforeAddVerifiesAsRevoked).
    EXPECT_FALSE(revoke(999));
    // find() hides revoked descriptors.
    EXPECT_EQ(verifier_->find(8), nullptr);
    // Re-adding reinstates service.
    add(make_descriptor(8));
    EXPECT_TRUE(verifier_->verify(gen.generate()).ok());
  });
}

TEST_F(VerifierTest, RevokeBeforeAddVerifiesAsRevoked) {
  // A revocation can overtake its grant (revoke-before-sync): the id
  // is unknown, yet its cookies must read as revoked, not unknown.
  for_each_source([&] {
    EXPECT_FALSE(revoke(999));
    EXPECT_TRUE(verifier_->knows(999));
    EXPECT_EQ(verifier_->find(999), nullptr);
    CookieGenerator gen(make_descriptor(999), clock_, 999);
    EXPECT_EQ(verifier_->verify(gen.generate()).status,
              VerifyStatus::kDescriptorRevoked);
  });
}

TEST_F(VerifierTest, ExpiredDescriptorRejected) {
  for_each_source([&] {
    auto descriptor = make_descriptor(9);
    descriptor.attributes.expires_at = clock_.now() + 10 * util::kSecond;
    add(descriptor);
    CookieGenerator gen(descriptor, clock_, 9);
    EXPECT_TRUE(verifier_->verify(gen.generate()).ok());
    clock_.advance(11 * util::kSecond);
    EXPECT_EQ(verifier_->verify(gen.generate()).status,
              VerifyStatus::kDescriptorExpired);
  });
}

TEST_F(VerifierTest, RemoveForgetsEntirely) {
  for_each_source([&] {
    auto gen = install(10);
    EXPECT_TRUE(verifier_->verify(gen.generate()).ok());
    EXPECT_TRUE(remove(10));
    EXPECT_FALSE(verifier_->knows(10));
    EXPECT_EQ(verifier_->verify(gen.generate()).status,
              VerifyStatus::kUnknownId);
    EXPECT_FALSE(remove(10));
  });
}

TEST_F(VerifierTest, WireAndTextVerification) {
  for_each_source([&] {
    auto gen = install(11);
    EXPECT_TRUE(
        verifier_->verify_wire(util::BytesView(gen.generate().encode()))
            .ok());
    EXPECT_TRUE(verifier_->verify_text(gen.generate().encode_text()).ok());
    // A blob that does not decode is malformed, not an unknown
    // descriptor — fuzz noise and never-issued ids stay
    // distinguishable.
    EXPECT_EQ(verifier_->verify_text("garbage").status,
              VerifyStatus::kMalformed);
    EXPECT_EQ(verifier_->stats().malformed, 1u);
    EXPECT_EQ(verifier_->stats().unknown_id, 0u);
  });
}

TEST_F(VerifierTest, StatsTotalsAdd) {
  for_each_source([&] {
    auto gen = install(14);
    const Cookie c = gen.generate();
    verifier_->verify(c);
    verifier_->verify(c);
    Cookie bad = gen.generate();
    bad.signature[0] ^= 1;
    verifier_->verify(bad);
    EXPECT_EQ(verifier_->stats().total(), 3u);
    verifier_->reset_stats();
    EXPECT_EQ(verifier_->stats().total(), 0u);
  });
}

TEST_F(VerifierTest, BatchMatchesSequentialOnMixedBurst) {
  // Differential: verify_batch against a reference verifier fed the
  // same burst one cookie at a time. Same descriptors, same clock —
  // results and stats must be bit-identical, including the
  // order-sensitive outcomes (replay, stale).
  for_each_source([&] {
    std::vector<CookieGenerator> gens;
    for (const CookieId id : {20u, 21u, 22u}) gens.push_back(install(id));
    const auto reference = twin();

    // An old cookie that will be stale once the burst runs...
    const Cookie stale = gens[0].generate();
    clock_.advance(kNetworkCoherencyTime + 2 * util::kSecond);

    std::vector<Cookie> burst;
    for (int round = 0; round < 3; ++round) {
      for (auto& gen : gens) burst.push_back(gen.generate());
    }
    burst.push_back(burst[1]);  // replay of an earlier in-burst cookie
    burst.push_back(stale);
    Cookie forged = gens[1].generate();
    forged.signature[3] ^= 0x40;
    burst.push_back(forged);
    Cookie unknown = gens[2].generate();
    unknown.cookie_id = 404;
    burst.push_back(unknown);
    burst.push_back(burst[4]);  // second replay, different descriptor

    std::vector<VerifyResult> batched(burst.size());
    verifier_->verify_batch(burst, batched);
    for (size_t i = 0; i < burst.size(); ++i) {
      const VerifyResult expected = reference->verify(burst[i]);
      EXPECT_EQ(batched[i].status, expected.status) << "cookie " << i;
      // Descriptor pointers come from different verifiers; compare
      // what they point at.
      ASSERT_EQ(batched[i].descriptor != nullptr,
                expected.descriptor != nullptr)
          << "cookie " << i;
      if (expected.descriptor != nullptr) {
        EXPECT_EQ(batched[i].descriptor->cookie_id,
                  expected.descriptor->cookie_id);
      }
    }
    EXPECT_EQ(verifier_->stats(), reference->stats());
    EXPECT_EQ(verifier_->stats().replayed, 2u);
    EXPECT_EQ(verifier_->stats().stale_timestamp, 1u);
    EXPECT_EQ(verifier_->stats().bad_signature, 1u);
    EXPECT_EQ(verifier_->stats().unknown_id, 1u);
  });
}

TEST_F(VerifierTest, BatchSeesEarlierCookiesInSameBurst) {
  // A uuid used twice within one burst: the first is fresh, the second
  // must already be a replay — the batch path may not defer replay
  // bookkeeping past the burst.
  for_each_source([&] {
    auto gen = install(30);
    const Cookie c = gen.generate();
    std::vector<Cookie> burst = {c, c, c};
    std::vector<VerifyResult> results(burst.size());
    verifier_->verify_batch(burst, results);
    EXPECT_EQ(results[0].status, VerifyStatus::kOk);
    EXPECT_EQ(results[1].status, VerifyStatus::kReplayed);
    EXPECT_EQ(results[2].status, VerifyStatus::kReplayed);
  });
}

TEST_F(VerifierTest, BatchScratchReuseAcrossCalls) {
  // Back-to-back bursts reuse the verifier's sort scratch; results
  // must not leak between calls (and the empty burst is a no-op).
  for_each_source([&] {
    auto gen = install(31);
    std::vector<VerifyResult> empty_results;
    verifier_->verify_batch({}, empty_results);
    EXPECT_EQ(verifier_->stats().total(), 0u);
    for (int round = 0; round < 3; ++round) {
      std::vector<Cookie> burst = {gen.generate(), gen.generate()};
      std::vector<VerifyResult> results(burst.size());
      verifier_->verify_batch(burst, results);
      EXPECT_EQ(results[0].status, VerifyStatus::kOk) << "round " << round;
      EXPECT_EQ(results[1].status, VerifyStatus::kOk) << "round " << round;
    }
    EXPECT_EQ(verifier_->stats().verified, 6u);
  });
}

TEST_F(VerifierTest, ExternalSwitchDropsOwnedMidstates) {
  // The own table's epochs and a publisher's are unrelated counters:
  // here both read 1. A midstate built for key A under the own table
  // must not serve the published table's key B for the same id.
  auto key_a = make_descriptor(1);
  verifier_->add_descriptor(key_a);
  CookieGenerator gen_a(key_a, clock_, 1);
  EXPECT_TRUE(verifier_->verify(gen_a.generate()).ok());

  auto key_b = make_descriptor(1);
  key_b.key.assign(32, 0xB0);
  controlplane::TableMirror mirror;
  mirror.reset(1, {key_b}, {});
  auto table = mirror.build();
  table->set_epoch(1);
  verifier_->set_external_table(table.get());

  EXPECT_EQ(verifier_->verify(gen_a.generate()).status,
            VerifyStatus::kBadSignature);
  CookieGenerator gen_b(key_b, clock_, 2);
  EXPECT_EQ(verifier_->verify(gen_b.generate()).status, VerifyStatus::kOk);
}

TEST(VerifierStandalone, FailOpenSemantics) {
  // A failed verification must never be an error path: it returns a
  // result the caller maps to best-effort, it does not throw.
  util::ManualClock clock(0);
  CookieVerifier verifier(clock);
  Cookie junk;
  junk.cookie_id = 1234;
  EXPECT_NO_THROW({
    const auto result = verifier.verify(junk);
    EXPECT_FALSE(result.ok());
  });
}

// --- Published tables: hot/cold tiering ----------------------------

/// Published tables with explicit epochs: the tests below call
/// mirror_.reset/apply and publish() directly.
class ExternalVerifierTest : public VerifierTest {
 protected:
  /// `salt` picks a distinct uuid stream: the replay cache is
  /// verifier-wide, so two generators for the same descriptor must not
  /// replay each other's uuids.
  CookieGenerator generator(const CookieDescriptor& descriptor,
                            uint64_t salt = 0) {
    return CookieGenerator(descriptor, clock_,
                           descriptor.cookie_id + (salt << 32));
  }
};

TEST_F(ExternalVerifierTest, ColdHitRehydratesThenStaysHot) {
  mirror_.reset(1, {make_descriptor(1)}, {});
  publish(1);
  auto gen = generator(make_descriptor(1));

  EXPECT_EQ(verifier_->hot_tier().resident(), 0u);
  EXPECT_TRUE(verifier_->verify(gen.generate()).ok());
  // First sight built the key schedule from the 64-byte cold record.
  EXPECT_EQ(verifier_->hot_tier().resident(), 1u);
  EXPECT_EQ(verifier_->hot_tier().rehydrations(), 1u);
  // Subsequent cookies ride the midstate cache: no further rebuilds.
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(verifier_->verify(gen.generate()).ok());
  }
  EXPECT_EQ(verifier_->hot_tier().rehydrations(), 1u);
  EXPECT_GE(verifier_->hot_tier().hits(), 10u);
}

TEST_F(ExternalVerifierTest, TableSwapRevalidatesWithoutRekeying) {
  mirror_.reset(1, {make_descriptor(1)}, {});
  publish(1);
  auto gen = generator(make_descriptor(1));
  EXPECT_TRUE(verifier_->verify(gen.generate()).ok());
  ASSERT_EQ(verifier_->hot_tier().rehydrations(), 1u);

  // Swap to a new epoch with the same key: the entry revalidates, the
  // schedule survives.
  publish(2);
  EXPECT_TRUE(verifier_->verify(gen.generate()).ok());
  EXPECT_EQ(verifier_->hot_tier().rehydrations(), 1u);

  // Rotate the key and swap again: old-key cookies die, new-key
  // cookies verify, and the schedule was rebuilt exactly once.
  auto rotated = make_descriptor(1);
  rotated.key.assign(32, 0xCD);
  ASSERT_TRUE(mirror_.apply(controlplane::Update{2, controlplane::UpdateOp::kAdd, 1, rotated}));
  publish(3);
  EXPECT_EQ(verifier_->verify(gen.generate()).status,
            VerifyStatus::kBadSignature);
  auto rotated_gen = generator(rotated, /*salt=*/1);
  EXPECT_EQ(verifier_->verify(rotated_gen.generate()).status,
            VerifyStatus::kOk);
  EXPECT_EQ(verifier_->hot_tier().rehydrations(), 2u);
}

TEST_F(ExternalVerifierTest, SwapRevalidatesOnlyTheChangedShard) {
  // Enough ids that several share each store shard.
  constexpr CookieId kIds = 1024;
  std::vector<CookieDescriptor> live;
  for (CookieId id = 1; id <= kIds; ++id) live.push_back(make_descriptor(id));
  mirror_.reset(1, live, {});
  publish(1);
  for (CookieId id = 1; id <= kIds; ++id) {
    auto gen = generator(make_descriptor(id));
    ASSERT_TRUE(verifier_->verify(gen.generate()).ok());
  }
  ASSERT_EQ(verifier_->hot_tier().rehydrations(), kIds);
  const DescriptorStore before = table_->store();

  // A one-update delta restamps one shard; entries elsewhere stay hits
  // across the swap, entries in that shard revalidate (same key, so no
  // schedule rebuild).
  ASSERT_TRUE(mirror_.apply(
      controlplane::Update{2, controlplane::UpdateOp::kRevoke, 1, {}}));
  publish(2);
  uint64_t unchanged = 0;
  for (CookieId id = 2; id <= kIds; ++id) {
    if (table_->store().stamp_of(id) == before.stamp_of(id)) ++unchanged;
  }
  ASSERT_GT(unchanged, 0u);
  ASSERT_LT(unchanged, kIds - 1) << "no other id shares the revoked id's shard";
  const uint64_t hits_before = verifier_->hot_tier().hits();
  for (CookieId id = 2; id <= kIds; ++id) {
    auto gen = generator(make_descriptor(id), /*salt=*/1);
    ASSERT_TRUE(verifier_->verify(gen.generate()).ok());
  }
  EXPECT_EQ(verifier_->hot_tier().hits() - hits_before, unchanged);
  EXPECT_EQ(verifier_->hot_tier().rehydrations(), kIds);
  auto revoked = generator(make_descriptor(1), /*salt=*/1);
  EXPECT_EQ(verifier_->verify(revoked.generate()).status,
            VerifyStatus::kDescriptorRevoked);
}

TEST_F(ExternalVerifierTest, RevokedRecordShortCircuitsWithoutAdmission) {
  mirror_.reset(1, {make_descriptor(1)}, {});
  publish(1);
  auto gen = generator(make_descriptor(1));
  EXPECT_TRUE(verifier_->verify(gen.generate()).ok());

  ASSERT_TRUE(mirror_.apply(controlplane::Update{2, controlplane::UpdateOp::kRevoke, 1, {}}));
  publish(2);
  EXPECT_EQ(verifier_->verify(gen.generate()).status,
            VerifyStatus::kDescriptorRevoked);
  EXPECT_TRUE(verifier_->knows(1));
  EXPECT_EQ(verifier_->find(1), nullptr);
  // The stale entry was never re-admitted; nothing holds midstates
  // valid for the revoked descriptor's shard in the current table.
  EXPECT_EQ(verifier_->hot_tier().peek(1, table_->store().stamp_of(1)),
            nullptr);
}

TEST_F(ExternalVerifierTest, HotBudgetEvictsColdDescriptors) {
  std::vector<CookieDescriptor> live;
  for (CookieId id = 1; id <= 8; ++id) live.push_back(make_descriptor(id));
  mirror_.reset(1, live, {});
  publish(1);
  verifier_->set_hot_budget(2);
  for (CookieId id = 1; id <= 8; ++id) {
    auto gen = generator(make_descriptor(id));
    EXPECT_TRUE(verifier_->verify(gen.generate()).ok());
  }
  EXPECT_LE(verifier_->hot_tier().resident(), 2u);
  EXPECT_GE(verifier_->hot_tier().evictions(), 6u);
  // Evicted descriptors still verify — they just pay rehydration.
  auto gen = generator(make_descriptor(1), /*salt=*/1);
  EXPECT_EQ(verifier_->verify(gen.generate()).status, VerifyStatus::kOk);
}

TEST_F(ExternalVerifierTest, ConfiguredReplayCapacityClampsFlood) {
  mirror_.reset(1, {make_descriptor(1)}, {});
  publish(1);
  verifier_->configure_external_replay(4);
  auto gen = generator(make_descriptor(1));
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(verifier_->verify(gen.generate()).ok());
  }
  EXPECT_EQ(verifier_->external_replay().size(), 4u);
  EXPECT_EQ(verifier_->external_replay().capacity_evictions(), 6u);
}

TEST_F(ExternalVerifierTest, BatchMatchesSequentialInExternalMode) {
  const auto d1 = make_descriptor(1);
  const auto d2 = make_descriptor(2);
  mirror_.reset(1, {d1, d2}, {});
  publish(1);

  auto gen1 = generator(d1);
  auto gen2 = generator(d2);
  std::vector<Cookie> burst;
  for (int i = 0; i < 8; ++i) {
    burst.push_back(i % 2 == 0 ? gen1.generate() : gen2.generate());
  }
  burst.push_back(burst[0]);  // replay within the burst
  Cookie forged = gen1.generate();
  forged.signature[0] ^= 1;
  burst.push_back(forged);

  // Sequential twin run on a fresh verifier over the same table.
  CookieVerifier sequential(clock_);
  sequential.set_external_table(table_.get());
  std::vector<VerifyResult> expected;
  for (const Cookie& c : burst) expected.push_back(sequential.verify(c));

  std::vector<VerifyResult> results(burst.size());
  verifier_->verify_batch(burst, results);
  for (size_t i = 0; i < burst.size(); ++i) {
    EXPECT_EQ(results[i].status, expected[i].status) << "cookie " << i;
  }
  EXPECT_EQ(verifier_->stats(), sequential.stats());
}

}  // namespace
}  // namespace nnn::cookies
