// The middlebox's working copy of the descriptor table.
//
// A SyncClient feeds snapshots and deltas into a TableMirror; build()
// materializes an immutable cookies::DescriptorTable ready for
// TablePublisher. The mirror keeps state in a cookies::DescriptorStore
// — compact 64-byte records behind open-addressing indexes, profiles
// interned — so a million-descriptor mirror costs table bytes, not
// materialized descriptors. The store is sharded copy-on-write:
// build() shares every shard with the new table (a pointer copy per
// shard), and the next apply() clones only the shard it writes, so a
// publish costs the delta, not the table. HMAC key schedules are NOT
// precomputed here anymore: they
// are a verifier-local working set (cookies::HotTier) built lazily for
// descriptors traffic actually hits. The mirror itself is plain
// single-threaded state owned by the client's control thread.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "controlplane/descriptor_log.h"
#include "cookies/descriptor.h"
#include "cookies/descriptor_store.h"
#include "cookies/descriptor_table.h"

namespace nnn::controlplane {

class TableMirror {
 public:
  /// Replace everything with a snapshot's contents.
  void reset(uint64_t version,
             std::vector<cookies::CookieDescriptor> live,
             const std::vector<cookies::CookieId>& revoked);

  /// Apply one update; the caller has already checked version
  /// continuity. Returns false (and leaves the mirror unchanged) on an
  /// out-of-order version.
  bool apply(const Update& update);

  uint64_t version() const { return version_; }
  size_t size() const { return store_.size(); }

  /// Current contents for checkpointing (SyncClient cold-start
  /// restore): live descriptors and revoked ids, order unspecified.
  /// Feeding them back through reset() reproduces this mirror.
  std::vector<cookies::CookieDescriptor> live() const;
  std::vector<cookies::CookieId> revoked() const;

  /// Materialize the current state as an immutable table that shares
  /// the mirror's shards (O(DescriptorStore::kShardCount), independent
  /// of the table size).
  std::unique_ptr<cookies::DescriptorTable> build() const;

 private:
  uint64_t version_ = 0;
  cookies::DescriptorStore store_;
};

}  // namespace nnn::controlplane
