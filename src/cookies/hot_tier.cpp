#include "cookies/hot_tier.h"

#include <cassert>

#include "util/bytes.h"

namespace nnn::cookies {

void HotTier::begin_burst() {
  if (limbo_.empty()) return;
  free_.insert(free_.end(), limbo_.begin(), limbo_.end());
  limbo_.clear();
}

const HotTier::Entry* HotTier::lookup(CookieId id, uint64_t stamp) {
  uint32_t probes = 0;
  const uint32_t* slot =
      index_.find(hash_id(id), index_matcher(id), &probes);
  sample_probe(probes);
  if (slot == nullptr) return nullptr;
  Entry& entry = pool_[*slot];
  if (entry.stamp != stamp) return nullptr;  // shard changed: revalidate
  entry.referenced = true;
  ++hits_;
  return &entry;
}

const HotTier::Entry* HotTier::admit(const DescriptorStore::Record& record,
                                     const DescriptorStore& store,
                                     uint64_t stamp) {
  assert(!record.revoked && "revoked records are never admitted");
  const util::BytesView key = store.key_of(record);
  if (uint32_t* slot = index_.find(hash_id(record.id),
                                   index_matcher(record.id))) {
    // Present but stamped with an older shard version: revalidate. The
    // descriptor metadata is re-materialized (profile or expiry may
    // have changed); the schedule survives unless the key rotated.
    Entry& entry = pool_[*slot];
    const bool same_key = util::equal(util::BytesView(entry.descriptor.key),
                                      key);
    entry.descriptor = store.materialize(record);
    if (!same_key) {
      entry.schedule = crypto::HmacKeySchedule{key};
      ++rehydrations_;
    }
    entry.stamp = stamp;
    entry.referenced = true;
    return &entry;
  }
  if (live_count_ >= budget_) evict_one();
  const uint32_t slot = acquire_slot();
  Entry& entry = pool_[slot];
  entry.descriptor = store.materialize(record);
  entry.schedule = crypto::HmacKeySchedule{key};
  entry.id = record.id;
  entry.stamp = stamp;
  entry.referenced = true;
  entry.live = true;
  ++rehydrations_;
  ++live_count_;
  index_.find_or_insert(
      hash_id(record.id), [](const uint32_t&) { return false; },
      index_hasher(), [&] { return slot; });
  return &entry;
}

size_t HotTier::memory_bytes() const {
  size_t bytes = pool_.size() * sizeof(Entry) + index_.memory_bytes() +
                 (free_.capacity() + limbo_.capacity()) * sizeof(uint32_t);
  for (const Entry& entry : pool_) {
    if (!entry.live) continue;
    bytes += entry.descriptor.key.capacity() +
             entry.descriptor.service_data.capacity();
  }
  return bytes;
}

uint32_t HotTier::acquire_slot() {
  if (!free_.empty()) {
    const uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  // Mid-burst evictions park slots in limbo, so the pool can crest the
  // budget by at most one burst's distinct admissions; begin_burst
  // folds limbo back into the free list.
  pool_.emplace_back();
  return static_cast<uint32_t>(pool_.size() - 1);
}

void HotTier::evict_one() {
  assert(live_count_ > 0);
  // CLOCK: first lap strips referenced bits, second lap must find a
  // victim.
  for (;;) {
    clock_hand_ =
        (clock_hand_ + 1) % static_cast<uint32_t>(pool_.size());
    Entry& entry = pool_[clock_hand_];
    if (!entry.live) continue;
    if (entry.referenced) {
      entry.referenced = false;
      continue;
    }
    index_.erase(hash_id(entry.id), index_matcher(entry.id));
    entry.live = false;
    limbo_.push_back(clock_hand_);
    --live_count_;
    ++evictions_;
    return;
  }
}

}  // namespace nnn::cookies
