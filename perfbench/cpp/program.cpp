#include "program.h"

#include <chrono>

#include "netio/http_endpoint.h"
#include "netio/sync_endpoint.h"

namespace perfbench {

namespace nu = nnn::util;

RebasedClock::RebasedClock()
    : base_(now_ns() / 1000 - kRoundEpoch) {}

nu::Timestamp RebasedClock::now() const { return now_ns() / 1000 - base_; }

namespace {

/// Span helper that tolerates a null tracer.
struct Step {
  Step(Tracer* tracer, const char* name, uint32_t parent)
      : tracer_(tracer),
        id_(tracer ? tracer->open(name, parent) : Tracer::kNoParent) {}
  ~Step() {
    if (tracer_) tracer_->close(id_);
  }
  Tracer* tracer_;
  uint32_t id_;
};

}  // namespace

Program::Program(const Trace& trace, uint64_t seed, Tracer* tracer,
                 uint32_t parent)
    : tracer_(tracer) {
  registry_.bind("Boost", nnn::dataplane::PriorityAction{0});
  {
    const Step step(tracer, "controlplane.install", parent);
    log_ = std::make_unique<nnn::controlplane::DescriptorLog>();
    for (const auto& d : trace.descriptors) log_->append_add(d);
    server_ = std::make_unique<nnn::server::CookieServer>(clock_, seed,
                                                          log_.get());
    nnn::server::ServiceOffer offer;
    offer.name = "Boost";
    offer.description = "fast lane";
    offer.service_data = "Boost";
    offer.auth = nnn::server::AuthPolicy::kOpen;
    server_->add_service(offer);
    api_ = std::make_unique<nnn::server::JsonApi>(*server_);
    sync_server_ = std::make_unique<nnn::controlplane::SyncServer>(*log_);
    observer_token_ = log_->subscribe([this](const nnn::controlplane::Update& u) {
      const std::lock_guard<std::mutex> lock(events_mutex_);
      log_events_.push_back(LogEvent{u.version, u.id,
                                     u.op == nnn::controlplane::UpdateOp::kRevoke,
                                     now_ns()});
    });
  }
  {
    const Step step(tracer, "netio.bind", parent);
    loop_ = std::make_unique<nnn::netio::EventLoop>(clock_);
    auto http = nnn::netio::TcpServer::create(*loop_, {},
                                              nnn::netio::http_protocol(*api_));
    // A full snapshot is one frame; the write queue must hold it (a
    // 262,144-descriptor snapshot is about 17 MiB).
    nnn::netio::TcpServer::Config sync_config;
    sync_config.limits.write_queue_cap = 256u << 20;
    auto sync = nnn::netio::TcpServer::create(
        *loop_, sync_config, nnn::netio::sync_protocol(*sync_server_));
    if (!http || !sync) {
      error_ = "server bind failed";
      return;
    }
    http_ = std::move(*http);
    sync_tcp_ = std::move(*sync);
  }
  {
    const Step step(tracer, "runtime.create", parent);
    publisher_ = std::make_unique<nnn::controlplane::TablePublisher>();
    nnn::runtime::Dataplane::Config config;
    config.pool.workers = 2;
    // Sized for the host, not the traffic: a worker descheduled for
    // 60 ms at campus' 300 kpps per worker overran 16,384 slots and
    // shed. 65,536 slots last about 200 ms there.
    config.pool.ring_capacity = 65536;
    config.pool.verdict_capacity = 1 << 18;
    config.policy = nnn::dataplane::DispatchPolicy::kDescriptorAffinity;
    plane_ = std::make_unique<nnn::runtime::Dataplane>(clock_, registry_, config);
    plane_->bind_table_publisher(*publisher_);
  }
  {
    const Step step(tracer, "controlplane.first_sync", parent);
    nnn::netio::TcpSyncTransport::Config tcfg;
    tcfg.port = sync_tcp_->port();
    transport_ = std::make_unique<nnn::netio::TcpSyncTransport>(*loop_, tcfg);
    client_ = std::make_unique<nnn::controlplane::SyncClient>(
        clock_, *publisher_, nnn::controlplane::SyncClient::Config{},
        [this, send = transport_->send_fn()](nu::Bytes datagram) {
          ++polls_;
          send(std::move(datagram));
        });
    client_->start();
    loop_thread_ = std::thread([this] { drive_loop(); });
    const uint64_t target = log_->version();
    const int64_t deadline = now_ns() + 60'000'000'000;
    while (applied_.load(std::memory_order_acquire) < target) {
      if (now_ns() > deadline) {
        error_ = "first sync did not complete within 60 s";
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  {
    const Step step(tracer, "runtime.start", parent);
    plane_->start();
  }
  ok_ = true;
}

Program::~Program() {
  stop_control_plane();
  if (plane_) plane_->stop();
  if (log_ && observer_token_ != 0) log_->unsubscribe(observer_token_);
}

void Program::stop_control_plane() {
  stop_.store(true, std::memory_order_release);
  if (loop_thread_.joinable()) loop_thread_.join();
}

void Program::drive_loop() {
  // The program's netio thread: serves HTTP and sync, and runs the
  // middlebox's SyncClient beside them. A sync response wakes epoll, so
  // the transport is polled right after the bytes land.
  while (!stop_.load(std::memory_order_acquire)) {
    loop_->poll(nu::kMillisecond);
    transport_->poll([this](nu::BytesView datagram) {
      const uint64_t before = client_->applied_version();
      const int64_t t0 = now_ns();
      client_->on_datagram(datagram);
      const int64_t t1 = now_ns();
      const uint64_t after = client_->applied_version();
      if (after == before) return;
      apply_ns_.push_back(t1 - t0);
      if (tracer_) {
        tracer_->add("controlplane.apply", Tracer::kNoParent, 0, t0, t1);
      }
      {
        const std::lock_guard<std::mutex> lock(events_mutex_);
        apply_events_.push_back(ApplyEvent{after, t1});
      }
      applied_.store(after, std::memory_order_release);
    });
    client_->tick();
  }
}

void Program::take_events(std::vector<LogEvent>& log_events,
                          std::vector<ApplyEvent>& apply_events) {
  const std::lock_guard<std::mutex> lock(events_mutex_);
  log_events.insert(log_events.end(), log_events_.begin(), log_events_.end());
  apply_events.insert(apply_events.end(), apply_events_.begin(),
                      apply_events_.end());
  log_events_.clear();
  apply_events_.clear();
}

}  // namespace perfbench
