#include "cookies/descriptor_store.h"

#include <atomic>
#include <cstring>
#include <utility>

namespace nnn::cookies {

namespace {

/// Process-wide so a stamp names one shard version in any store: a
/// verifier switching tables can never match a stale entry by accident.
std::atomic<uint64_t> next_shard_stamp{1};

}  // namespace

DescriptorStore::DescriptorStore() { clear(); }

void DescriptorStore::clear() {
  // Every store starts on the same immutable empty shard and profile
  // set (stamp 0, gauges precomputed): construction allocates nothing,
  // and the first write to a shard clones it like any shared shard.
  static const std::shared_ptr<Shard> empty_shard = [] {
    auto shard = std::make_shared<Shard>();
    shard->stats_fresh = true;
    shard->bytes = sizeof(Shard);
    return shard;
  }();
  static const std::shared_ptr<Profiles> empty_profiles =
      std::make_shared<Profiles>();
  shards_.fill(empty_shard);
  profiles_ = empty_profiles;
  size_ = 0;
}

void DescriptorStore::reserve(size_t n) {
  // Spread evenly, with headroom for the binomial spread across shards
  // so a bulk load does not rehash each index on the way up.
  const size_t per_shard = n / kShardCount;
  if (per_shard == 0) return;
  const size_t target = per_shard + per_shard / 8 + 4;
  for (size_t i = 0; i < kShardCount; ++i) {
    Shard& shard = write_shard(static_cast<uint64_t>(i) << (64 - kShardBits));
    shard.records.reserve(target);
    shard.index.reserve(target, shard.hasher());
  }
}

DescriptorStore::Shard& DescriptorStore::write_shard(uint64_t hash) {
  std::shared_ptr<Shard>& shard = shards_[shard_of(hash)];
  // use_count is exact here: only the store's owning thread copies or
  // drops references to the store's shards.
  if (shard.use_count() != 1) shard = std::make_shared<Shard>(*shard);
  shard->stamp = next_shard_stamp.fetch_add(1, std::memory_order_relaxed);
  shard->stats_fresh = false;
  return *shard;
}

void DescriptorStore::upsert(const CookieDescriptor& descriptor) {
  const uint32_t profile = intern_profile(descriptor);
  Shard& shard = write_shard(hash_id(descriptor.cookie_id));
  Record& record = insert_record(shard, descriptor.cookie_id);
  set_key(shard, record, util::BytesView(descriptor.key));
  record.profile = profile;
  if (descriptor.attributes.expires_at.has_value()) {
    record.has_expiry = true;
    record.expires_at = *descriptor.attributes.expires_at;
  } else {
    record.has_expiry = false;
    record.expires_at = 0;
  }
  record.revoked = false;
}

void DescriptorStore::revoke(CookieId id) {
  Shard& shard = write_shard(hash_id(id));
  if (Record* record = find_mut(shard, id)) {
    record->revoked = true;
    return;
  }
  // Revoke-before-sync tombstone: no key, no profile — the id just
  // verifies as revoked rather than unknown.
  insert_record(shard, id).revoked = true;
}

bool DescriptorStore::erase(CookieId id) {
  const uint64_t hash = hash_id(id);
  if (find(id) == nullptr) return false;  // absent: leave the shard shared
  Shard& shard = write_shard(hash);
  uint32_t* slot_entry = shard.index.find(hash, shard.matcher(id));
  const uint32_t slot = *slot_entry;
  release_spill(shard, shard.records[slot]);
  shard.index.erase_element(slot_entry);
  const uint32_t last = static_cast<uint32_t>(shard.records.size() - 1);
  if (slot != last) {
    shard.records[slot] = std::move(shard.records[last]);
    // Re-point the moved record's index entry at its new slot.
    const CookieId moved_id = shard.records[slot].id;
    *shard.index.find(hash_id(moved_id), shard.matcher(moved_id)) = slot;
  }
  shard.records.pop_back();
  --size_;
  return true;
}

const DescriptorStore::Record* DescriptorStore::find(CookieId id) const {
  const uint64_t hash = hash_id(id);
  const Shard& shard = *shards_[shard_of(hash)];
  const uint32_t* slot = shard.index.find(hash, shard.matcher(id));
  return slot == nullptr ? nullptr : &shard.records[*slot];
}

DescriptorStore::Record* DescriptorStore::find_mut(Shard& shard,
                                                   CookieId id) {
  uint32_t* slot = shard.index.find(hash_id(id), shard.matcher(id));
  return slot == nullptr ? nullptr : &shard.records[*slot];
}

util::BytesView DescriptorStore::key_of(const Record& record) const {
  if (record.spill != kNoSpill) {
    const Shard& shard = *shards_[shard_of(hash_id(record.id))];
    return util::BytesView(shard.spill_keys[record.spill]);
  }
  return util::BytesView(record.key, record.key_len);
}

CookieDescriptor DescriptorStore::materialize(const Record& record) const {
  CookieDescriptor descriptor;
  descriptor.cookie_id = record.id;
  const util::BytesView key = key_of(record);
  descriptor.key.assign(key.begin(), key.end());
  if (record.profile != kNoProfile) {
    const Profile& profile = profiles_->list[record.profile];
    descriptor.service_data = profile.service_data;
    descriptor.attributes = profile.attributes;
  }
  if (record.has_expiry) {
    descriptor.attributes.expires_at = record.expires_at;
  }
  return descriptor;
}

void DescriptorStore::Shard::refresh_stats() const {
  bytes = sizeof(Shard) + records.capacity() * sizeof(Record) +
          index.memory_bytes() +
          spill_keys.capacity() * sizeof(util::Bytes) +
          spill_free.capacity() * sizeof(uint32_t);
  for (const util::Bytes& key : spill_keys) bytes += key.capacity();
  probes = state::ProbeHistogram{};
  index.for_each_probe_length(hasher(),
                              [this](uint32_t n) { probes.add(n); });
  stats_fresh = true;
}

DescriptorStore::Stats DescriptorStore::stats() const {
  Stats out;
  out.entries = size_;
  size_t index_entries = 0;
  size_t index_slots = 0;
  state::ProbeHistogram probes;
  for (const auto& shard : shards_) {
    if (!shard->stats_fresh) shard->refresh_stats();
    out.bytes += shard->bytes;
    index_entries += shard->index.size();
    index_slots += shard->index.slot_count();
    probes.merge(shard->probes);
  }
  out.load_pct = index_slots == 0
                     ? 0
                     : static_cast<unsigned>(index_entries * 100 / index_slots);
  out.probes = probes.stats();
  // Interned profiles: count the string payloads, attribute vectors
  // and extras approximately (they are shared across all records).
  out.bytes += profiles_->intern.memory_bytes();
  for (const Profile& profile : profiles_->list) {
    out.bytes += sizeof(Profile) + profile.service_data.capacity() +
                 profile.attributes.transports.capacity() * sizeof(Transport);
    for (const auto& [k, v] : profile.attributes.extra) {
      out.bytes += k.capacity() + v.capacity() + 64;
    }
  }
  return out;
}

DescriptorStore::Record& DescriptorStore::insert_record(Shard& shard,
                                                        CookieId id) {
  const auto [slot_entry, inserted] = shard.index.find_or_insert(
      hash_id(id), shard.matcher(id), shard.hasher(), [&] {
        shard.records.emplace_back();
        return static_cast<uint32_t>(shard.records.size() - 1);
      });
  Record& record = shard.records[*slot_entry];
  if (inserted) {
    ++size_;
  } else {
    // Replacing in place: drop old spill before the caller overwrites.
    release_spill(shard, record);
    record = Record{};
  }
  record.id = id;
  return record;
}

void DescriptorStore::set_key(Shard& shard, Record& record,
                              util::BytesView key) {
  if (key.size() <= kInlineKeyBytes) {
    std::memcpy(record.key, key.data(), key.size());
    record.key_len = static_cast<uint8_t>(key.size());
    record.spill = kNoSpill;
    return;
  }
  record.key_len = 0;
  if (!shard.spill_free.empty()) {
    record.spill = shard.spill_free.back();
    shard.spill_free.pop_back();
  } else {
    record.spill = static_cast<uint32_t>(shard.spill_keys.size());
    shard.spill_keys.emplace_back();
  }
  shard.spill_keys[record.spill].assign(key.begin(), key.end());
}

void DescriptorStore::release_spill(Shard& shard, Record& record) {
  if (record.spill == kNoSpill) return;
  shard.spill_keys[record.spill].clear();
  shard.spill_free.push_back(record.spill);
  record.spill = kNoSpill;
}

uint32_t DescriptorStore::intern_profile(const CookieDescriptor& descriptor) {
  // Identity = service_data + attributes with expires_at stripped
  // (expiry lives per record). The serialized form is deterministic
  // (json::Object is an ordered map).
  Attributes shared = descriptor.attributes;
  shared.expires_at.reset();
  std::string identity = descriptor.service_data;
  identity.push_back('\0');
  identity += shared.to_json().dump();
  if (const uint32_t* known = profiles_->intern.find(identity)) return *known;
  // A new profile: clone the set first if another copy shares it.
  if (profiles_.use_count() != 1) {
    profiles_ = std::make_shared<Profiles>(*profiles_);
  }
  profiles_->list.push_back(Profile{descriptor.service_data, std::move(shared)});
  const auto slot = static_cast<uint32_t>(profiles_->list.size() - 1);
  profiles_->intern.try_emplace(identity).first->value = slot;
  return slot;
}

}  // namespace nnn::cookies
