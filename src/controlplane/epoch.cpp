#include "controlplane/epoch.h"

#include <algorithm>

namespace nnn::controlplane {

TablePublisher::TablePublisher() {
  registration_ = telemetry::Registry::global().add_collector(
      [this](telemetry::SampleBuilder& builder) { collect(builder); });
}

TablePublisher::~TablePublisher() {
  // Readers are gone by contract; retired_ and current_owner_ free here.
}

void TablePublisher::collect(telemetry::SampleBuilder& builder) const {
  builder.counter("nnn_controlplane_swaps_total",
                  "Descriptor tables published (epoch swaps)", {},
                  swaps_.value());
  builder.counter("nnn_controlplane_swap_stalls_total",
                  "Reclaim sweeps that found a retired table still pinned",
                  {}, swap_stalls_.value());
  builder.gauge("nnn_controlplane_retired_tables",
                "Swapped-out tables awaiting reader quiescence", {},
                retired_gauge_.value());
  builder.gauge("nnn_controlplane_table_version",
                "DescriptorLog version of the currently published table",
                {}, table_version_.value());
  builder.gauge("nnn_state_descriptor_entries",
                "Descriptor records in the published table", {},
                table_entries_.value());
  builder.gauge("nnn_state_descriptor_bytes",
                "Bytes held by the published table's descriptor store", {},
                table_bytes_.value());
  builder.gauge("nnn_state_descriptor_load_pct",
                "Published table index occupancy in percent", {},
                table_load_pct_.value());
  builder.gauge("nnn_state_descriptor_probe_p99",
                "p99 probe length (group steps) in the published "
                "table index",
                {}, table_probe_p99_.value());
}

TablePublisher::Reader TablePublisher::register_reader() {
  const std::lock_guard<std::mutex> lock(slots_mutex_);
  slots_.emplace_back();
  return Reader(this, &slots_.back());
}

void TablePublisher::publish(std::unique_ptr<cookies::DescriptorTable> table) {
  const uint64_t epoch = epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
  table->set_epoch(epoch);
  table_version_.set(static_cast<int64_t>(table->version()));
  const cookies::DescriptorStore::Stats stats = table->store().stats();
  table_entries_.set(static_cast<int64_t>(stats.entries));
  table_bytes_.set(static_cast<int64_t>(stats.bytes));
  table_load_pct_.set(static_cast<int64_t>(stats.load_pct));
  table_probe_p99_.set(static_cast<int64_t>(stats.probes.p99));
  const cookies::DescriptorTable* raw = table.get();
  // seq_cst store pairs with the readers' announce/revalidate loop.
  current_.store(raw, std::memory_order_seq_cst);
  swaps_.inc();
  if (current_owner_ != nullptr) {
    const std::lock_guard<std::mutex> lock(slots_mutex_);
    retired_.push_back(std::move(current_owner_));
  }
  current_owner_ = std::move(table);
  try_reclaim();
}

size_t TablePublisher::try_reclaim() {
  const std::lock_guard<std::mutex> lock(slots_mutex_);
  size_t freed = 0;
  bool stalled = false;
  auto pinned = [this](const cookies::DescriptorTable* table) {
    for (const Slot& slot : slots_) {
      if (slot.hazard.load(std::memory_order_seq_cst) == table) return true;
    }
    return false;
  };
  for (auto it = retired_.begin(); it != retired_.end();) {
    if (pinned(it->get())) {
      stalled = true;
      ++it;
    } else {
      it = retired_.erase(it);
      ++freed;
    }
  }
  if (stalled) swap_stalls_.inc();
  retired_gauge_.set(static_cast<int64_t>(retired_.size()));
  return freed;
}

size_t TablePublisher::retired_count() const {
  const std::lock_guard<std::mutex> lock(slots_mutex_);
  return retired_.size();
}

}  // namespace nnn::controlplane
