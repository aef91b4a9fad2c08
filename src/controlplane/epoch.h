// Epoch-based table publication: lock-free reads, safe reclamation.
//
// The packet path must never take a lock (§4.6 — verify_batch is the
// per-core budget), yet descriptor tables change underneath it. The
// contract here:
//
//   publisher (one control thread)          readers (worker threads)
//   ------------------------------          ------------------------
//   build DescriptorTable off hot path      t = reader.acquire()
//   stamp epoch, atomic swap current        verify a burst against t
//   retire previous table                   ... next burst: re-acquire
//   reclaim when no reader announces it     park() when idle/stopping
//
// Reader::acquire() announces the table it is about to use in a
// per-reader hazard slot and re-validates that the announced table is
// still current (the announce/validate loop closes the race where the
// publisher swaps and scans between a reader's load and its store).
// A worker passes a quiescent point by either announcing a *newer*
// table (its next acquire) or parking; the publisher frees a retired
// table once no slot announces it. Swap cost on the reader side is
// two seq_cst operations per *burst*, amortized to well under a
// nanosecond per packet at batch 32 — the "within 5% of steady state"
// acceptance bar comes from this shape.
//
// Threading: publish()/try_reclaim() are single-threaded (one control
// thread — the SyncClient's driver or the pool's owner);
// register_reader() may race with publishes but not with reclaim;
// acquire()/park() run on the reader's own thread. The publisher must
// outlive its readers' last acquire/park.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "cookies/descriptor_table.h"
#include "telemetry/metrics.h"

namespace nnn::controlplane {

class TablePublisher {
  struct Slot;

 public:
  /// A worker thread's handle into the publisher. Default-constructed
  /// readers are detached (acquire() returns nullptr); attach with
  /// TablePublisher::register_reader(). Copyable like a pointer — all
  /// copies share the one hazard slot, so only one thread may use them.
  class Reader {
   public:
    Reader() = default;

    bool attached() const { return slot_ != nullptr; }

    /// Pin and return the current table (nullptr before the first
    /// publish, or when detached). The table stays valid until the
    /// next acquire() or park() on this reader.
    const cookies::DescriptorTable* acquire() {
      if (slot_ == nullptr) return nullptr;
      const cookies::DescriptorTable* table =
          publisher_->current_.load(std::memory_order_seq_cst);
      // Announce-then-revalidate: if the publisher swapped (and maybe
      // scanned) between our load and our store, loop and re-announce.
      while (true) {
        slot_->hazard.store(table, std::memory_order_seq_cst);
        const cookies::DescriptorTable* again =
            publisher_->current_.load(std::memory_order_seq_cst);
        if (again == table) return table;
        table = again;
      }
    }

    /// Quiescent point: this reader holds no table. Call before
    /// blocking, idling, or thread exit.
    void park() {
      if (slot_ != nullptr) {
        slot_->hazard.store(nullptr, std::memory_order_seq_cst);
      }
    }

   private:
    friend class TablePublisher;
    Reader(TablePublisher* publisher, Slot* slot)
        : publisher_(publisher), slot_(slot) {}

    TablePublisher* publisher_ = nullptr;
    Slot* slot_ = nullptr;
  };

  TablePublisher();
  TablePublisher(const TablePublisher&) = delete;
  TablePublisher& operator=(const TablePublisher&) = delete;
  ~TablePublisher();

  /// Allocate a hazard slot for one reader thread. Slots are never
  /// recycled (a pool registers its workers once at bind time).
  Reader register_reader();

  /// Swap `table` in as current (stamping its epoch), retire the
  /// previous table, and opportunistically reclaim retired tables no
  /// reader still announces. Single control thread only.
  void publish(std::unique_ptr<cookies::DescriptorTable> table);

  /// Sweep retired tables again (publish() already does); exposed so a
  /// driver can reclaim after workers parked. Returns tables freed.
  size_t try_reclaim();

  /// Current table without pinning — for control-path inspection only
  /// (version display, tests); never verify against this.
  const cookies::DescriptorTable* peek() const {
    return current_.load(std::memory_order_seq_cst);
  }

  uint64_t epoch() const { return epoch_.load(std::memory_order_relaxed); }
  size_t retired_count() const;

 private:
  /// One reader's hazard announcement, padded so neighbouring readers
  /// never share a cache line.
  struct alignas(64) Slot {
    std::atomic<const cookies::DescriptorTable*> hazard{nullptr};
  };

  void collect(telemetry::SampleBuilder& builder) const;

  std::atomic<const cookies::DescriptorTable*> current_{nullptr};
  /// Ownership of the table current_ points at.
  std::unique_ptr<const cookies::DescriptorTable> current_owner_;
  /// Swapped-out tables awaiting proof of quiescence.
  std::vector<std::unique_ptr<const cookies::DescriptorTable>> retired_;
  std::atomic<uint64_t> epoch_{0};

  /// Hazard slots; deque gives stable addresses as readers register.
  mutable std::mutex slots_mutex_;
  std::deque<Slot> slots_;

  telemetry::Counter swaps_;
  telemetry::Counter swap_stalls_;
  telemetry::Gauge retired_gauge_;
  telemetry::Gauge table_version_;
  /// Published-table state gauges, computed on the control thread in
  /// publish() just before the swap from the store's per-shard caches
  /// (only shards written since the last publish are re-scanned).
  telemetry::Gauge table_entries_;
  telemetry::Gauge table_bytes_;
  telemetry::Gauge table_load_pct_;
  telemetry::Gauge table_probe_p99_;
  telemetry::Registration registration_;  // last: deregisters first
};

}  // namespace nnn::controlplane
