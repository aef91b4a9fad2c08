// Compact descriptor storage for ISP-scale tables.
//
// A full CookieDescriptor is a control-plane object: ~200+ bytes of
// strings, vectors and maps, most of it identical across the millions
// of descriptors a cookie server mints for one service tier. Storing
// it per-entry (as the old unordered_map<CookieId, TableEntry> did,
// plus a 72-byte HMAC key schedule each) blows the per-descriptor
// memory budget and drags cold heap nodes through the verify path.
//
// DescriptorStore splits the descriptor into what the hot path needs
// per id and what can be shared:
//
//   Record (one 64-byte cache line per descriptor): id, the 32-byte
//   HMAC key inline (longer keys spill to a side table), expiry,
//   revocation tombstone flag, and a profile index.
//
//   Profile (interned): service_data + attributes minus expires_at,
//   deduplicated by serialized identity. A million "Boost" descriptors
//   share one profile entry.
//
// HMAC key schedules are deliberately NOT stored per record — that is
// the hot/cold tiering boundary. The verifier keeps midstates only for
// descriptors that are actually hit (cookies::HotTier); a cold hit
// rehydrates from the record's raw key (two SHA-256 compressions).
//
// Copy-on-write shards. Records are split by the top bits of their id
// hash into kShardCount shards, each a dense record vector (insertion
// order, erase swap-removes) behind its own state::FlatTable of u32
// handles. Shards are reference-counted and shared between copies: a
// copy of the store copies kShardCount pointers, not records, and the
// first write to a shared shard clones only that shard. That is what
// makes a table publication cost the delta — TableMirror mutates its
// working copy, build() hands the immutable DescriptorTable a sharing
// copy, and a one-update publish clones one shard. Lookup is one shard
// pointer load, one flat probe and one cache-line read.
//
// Every write to a shard gives it a fresh process-unique stamp, so
// "same stamp" means "same contents": the hot tier validates a
// resident entry against its shard's stamp and survives a swap that
// did not touch that shard (see hot_tier.h).
//
// Threading: a store is a value with one writer. Shards reachable from
// a published table are never written (a write clones first), so any
// number of readers may share them. The gauge cache behind stats() is
// filled lazily on the calling thread; call stats() from the writer's
// (control) thread only.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cookies/descriptor.h"
#include "state/flat_table.h"
#include "util/bytes.h"
#include "util/clock.h"

namespace nnn::cookies {

class DescriptorStore {
 public:
  static constexpr size_t kInlineKeyBytes = 32;
  static constexpr uint32_t kNoProfile =
      std::numeric_limits<uint32_t>::max();
  static constexpr uint32_t kNoSpill = std::numeric_limits<uint32_t>::max();
  /// 256 shards, picked with ablation_controlplane's one-update
  /// publish rows (median µs at 10k / 262,144 descriptors, 4-vCPU VM):
  /// 64 shards 5 / 92, 128 shards 5 / 50, 256 shards 5 / 20-27,
  /// 512 shards 12 / 23, 1024 shards 15-23 / 26-29. Fewer shards clone
  /// more records per write; more shards copy more pointers per build.
  static constexpr unsigned kShardBits = 8;
  static constexpr size_t kShardCount = size_t{1} << kShardBits;

  struct Record {
    CookieId id = 0;
    /// Valid only when has_expiry (std::optional would cost 8 bytes).
    util::Timestamp expires_at = 0;
    uint32_t profile = kNoProfile;
    uint32_t spill = kNoSpill;
    uint8_t key[kInlineKeyBytes] = {};
    uint8_t key_len = 0;  // inline length; spilled keys keep 0 here
    bool revoked = false;
    bool has_expiry = false;

    bool expired(util::Timestamp now) const {
      return has_expiry && now >= expires_at;
    }
  };

  /// The nnn_state_descriptor_* gauges, summed over per-shard caches.
  struct Stats {
    size_t entries = 0;
    /// Bytes held by records, indexes, interned profiles, spill keys.
    size_t bytes = 0;
    /// Index occupancy in percent (live entries over slots; max ~87).
    unsigned load_pct = 0;
    /// Exact probe lengths over every record.
    state::ProbeStats probes;
  };

  DescriptorStore();

  /// Insert or replace the descriptor for its id; clears any
  /// revocation tombstone.
  void upsert(const CookieDescriptor& descriptor);

  /// Mark `id` revoked, inserting a bare tombstone if unknown.
  void revoke(CookieId id);

  /// Remove entirely (descriptor and tombstone). Returns whether the
  /// id was present.
  bool erase(CookieId id);

  const Record* find(CookieId id) const;

  /// Stamp of the shard holding `id`; changes whenever any record in
  /// that shard does, and is never reused by another shard version.
  uint64_t stamp_of(CookieId id) const {
    return shards_[shard_of(hash_id(id))]->stamp;
  }

  /// The record's HMAC key bytes (inline or spilled).
  util::BytesView key_of(const Record& record) const;

  /// Reconstruct the full control-plane descriptor (checkpointing,
  /// hot-tier admission, find()). Exact round trip of what upsert saw.
  CookieDescriptor materialize(const Record& record) const;

  /// Visit every record: shard by shard, insertion order within a
  /// shard (erase perturbs order by swap-remove, deterministically).
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (const auto& shard : shards_) {
      for (const Record& record : shard->records) fn(record);
    }
  }

  void clear();
  void reserve(size_t n);
  size_t size() const { return size_; }
  size_t profile_count() const { return profiles_->list.size(); }

  size_t memory_bytes() const { return stats().bytes; }
  /// Gauges for a publish: O(kShardCount) plus a re-scan of the shards
  /// written since their last stats() call.
  Stats stats() const;

 private:
  struct Profile {
    std::string service_data;
    Attributes attributes;  // expires_at always nullopt here
  };

  /// Interned profiles, shared between copies like a shard (they are
  /// append-only, and a copy clones them before adding one).
  struct Profiles {
    std::vector<Profile> list;
    /// Serialized profile identity -> list slot. Never shrinks: a
    /// profile outlives the records that reference it (the dedup set
    /// is tiny next to the record array).
    state::FlatMap<std::string, uint32_t> intern;
  };

  struct Shard {
    std::vector<Record> records;
    state::FlatTable<uint32_t> index;  // record slot by CookieId
    std::vector<util::Bytes> spill_keys;
    std::vector<uint32_t> spill_free;
    uint64_t stamp = 0;
    /// Gauge cache, valid while stats_fresh (see stats()).
    mutable bool stats_fresh = false;
    mutable size_t bytes = 0;
    mutable state::ProbeHistogram probes;

    auto matcher(CookieId id) const {
      return [this, id](const uint32_t& slot) {
        return records[slot].id == id;
      };
    }
    auto hasher() const {
      return [this](const uint32_t& slot) {
        return hash_id(records[slot].id);
      };
    }
    void refresh_stats() const;
  };

  static uint64_t hash_id(CookieId id) {
    return state::mix_hash(static_cast<uint64_t>(id));
  }
  /// Top hash bits pick the shard; the shard's FlatTable uses the low
  /// bits (H2 and group), so the two never correlate.
  static size_t shard_of(uint64_t hash) { return hash >> (64 - kShardBits); }

  /// The shard for `hash`, made exclusive (cloned if shared) and
  /// re-stamped: every write goes through here.
  Shard& write_shard(uint64_t hash);
  Record* find_mut(Shard& shard, CookieId id);
  Record& insert_record(Shard& shard, CookieId id);
  void set_key(Shard& shard, Record& record, util::BytesView key);
  static void release_spill(Shard& shard, Record& record);
  uint32_t intern_profile(const CookieDescriptor& descriptor);

  std::array<std::shared_ptr<Shard>, kShardCount> shards_;
  std::shared_ptr<Profiles> profiles_;
  size_t size_ = 0;
};

}  // namespace nnn::cookies
