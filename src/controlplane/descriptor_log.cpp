#include "controlplane/descriptor_log.h"

#include <utility>

namespace nnn::controlplane {

DescriptorLog::DescriptorLog() {
  registration_ = telemetry::Registry::global().add_collector(
      [this](telemetry::SampleBuilder& builder) { collect(builder); });
}

void DescriptorLog::collect(telemetry::SampleBuilder& builder) const {
  builder.gauge("nnn_controlplane_log_version",
                "Latest version assigned by the descriptor log", {},
                version_gauge_.value());
  builder.gauge("nnn_controlplane_log_live",
                "Live (unrevoked, unremoved) descriptors in the log", {},
                live_gauge_.value());
  builder.counter("nnn_controlplane_updates_total",
                  "Descriptor log updates by operation", {{"op", "add"}},
                  adds_.value());
  builder.counter("nnn_controlplane_updates_total",
                  "Descriptor log updates by operation", {{"op", "revoke"}},
                  revokes_.value());
  builder.counter("nnn_controlplane_updates_total",
                  "Descriptor log updates by operation", {{"op", "remove"}},
                  removes_.value());
}

uint64_t DescriptorLog::version() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return version_;
}

uint64_t DescriptorLog::append(UpdateOp op, cookies::CookieId id,
                               cookies::CookieDescriptor descriptor) {
  Update update;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    update.version = ++version_;
    update.op = op;
    update.id = id;
    switch (op) {
      case UpdateOp::kAdd:
        live_[id] = descriptor;
        revoked_.erase(id);
        update.descriptor = std::move(descriptor);
        adds_.inc();
        break;
      case UpdateOp::kRevoke:
        live_.erase(id);
        revoked_.insert(id);
        revokes_.inc();
        break;
      case UpdateOp::kRemove:
        live_.erase(id);
        revoked_.erase(id);
        removes_.inc();
        break;
    }
    updates_.push_back(update);
    version_gauge_.set(static_cast<int64_t>(version_));
    live_gauge_.set(static_cast<int64_t>(live_.size()));
  }
  notify(update);
  return update.version;
}

uint64_t DescriptorLog::append_add(cookies::CookieDescriptor descriptor) {
  const cookies::CookieId id = descriptor.cookie_id;
  return append(UpdateOp::kAdd, id, std::move(descriptor));
}

uint64_t DescriptorLog::append_revoke(cookies::CookieId id) {
  return append(UpdateOp::kRevoke, id, {});
}

uint64_t DescriptorLog::append_remove(cookies::CookieId id) {
  return append(UpdateOp::kRemove, id, {});
}

size_t DescriptorLog::expire_due(util::Timestamp now) {
  std::vector<cookies::CookieId> due;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [id, descriptor] : live_) {
      if (descriptor.expired(now)) due.push_back(id);
    }
  }
  for (const cookies::CookieId id : due) append_remove(id);
  return due.size();
}

Snapshot DescriptorLog::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Snapshot snap;
  snap.version = version_;
  snap.live.reserve(live_.size());
  for (const auto& [id, descriptor] : live_) snap.live.push_back(descriptor);
  snap.revoked.assign(revoked_.begin(), revoked_.end());
  return snap;
}

std::optional<std::vector<Update>> DescriptorLog::delta_since(
    uint64_t from) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (from > version_) return std::nullopt;  // future version: nonsense
  if (from < tail_start_version_) return std::nullopt;  // compacted away
  // updates_ holds versions (tail_start_version_, version_] densely,
  // so the first update after `from` sits at a fixed offset: the copy
  // costs the delta, not the retained tail.
  const auto first = updates_.begin() +
                     static_cast<std::ptrdiff_t>(from - tail_start_version_);
  return std::vector<Update>(first, updates_.end());
}

void DescriptorLog::compact(size_t keep_updates) {
  const std::lock_guard<std::mutex> lock(mutex_);
  while (updates_.size() > keep_updates) {
    tail_start_version_ = updates_.front().version;
    updates_.pop_front();
  }
}

uint64_t DescriptorLog::subscribe(Observer observer) {
  const std::lock_guard<std::mutex> lock(observers_mutex_);
  const uint64_t token = next_token_++;
  observers_.emplace(token, std::move(observer));
  return token;
}

void DescriptorLog::unsubscribe(uint64_t token) {
  const std::lock_guard<std::mutex> lock(observers_mutex_);
  observers_.erase(token);
}

void DescriptorLog::notify(const Update& update) {
  // Copy the observer list so an observer may (un)subscribe reentrantly.
  std::vector<Observer> observers;
  {
    const std::lock_guard<std::mutex> lock(observers_mutex_);
    observers.reserve(observers_.size());
    for (const auto& [token, observer] : observers_) {
      observers.push_back(observer);
    }
  }
  for (const auto& observer : observers) observer(update);
}

size_t DescriptorLog::live_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return live_.size();
}

size_t DescriptorLog::retained_updates() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return updates_.size();
}

}  // namespace nnn::controlplane
