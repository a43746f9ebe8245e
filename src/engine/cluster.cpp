#include "engine/cluster.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

namespace asyncml::engine {

namespace {
void validate(const Cluster::Config& config) {
  // Explicit validation rather than assert(): a zero-worker cluster built
  // from un-sanitized user input must fail loudly in Release builds too.
  if (config.num_workers <= 0) {
    throw std::invalid_argument("Cluster::Config: num_workers must be > 0 (got " +
                                std::to_string(config.num_workers) + ")");
  }
  if (config.cores_per_worker <= 0) {
    throw std::invalid_argument("Cluster::Config: cores_per_worker must be > 0 (got " +
                                std::to_string(config.cores_per_worker) + ")");
  }
}
}  // namespace

Cluster::Cluster(Config config)
    : config_((validate(config), std::move(config))),
      faults_(config_.faults.empty()
                  ? nullptr
                  : std::make_unique<FaultState>(config_.faults)),
      telemetry_(std::make_unique<telemetry::TelemetryRecorder>(
          static_cast<std::size_t>(config_.num_workers),
          static_cast<std::size_t>(config_.cores_per_worker))),
      metrics_(std::make_unique<ClusterMetrics>(config_.num_workers)),
      transport_(transport::make_transport(config_.transport, config_.num_workers,
                                           &config_.network, metrics_.get())),
      delay_owned_(config_.delay ? config_.delay : std::make_shared<const NoDelay>()) {
  // Bring the wire up before any worker exists: socket backends spawn and
  // handshake one endpoint process per worker here. Failure is loud — a
  // cluster without its wire is unusable.
  if (support::Status s = transport_->start(); !s.is_ok()) {
    throw std::runtime_error("Cluster: transport start failed: " + s.to_string());
  }
  workers_.reserve(static_cast<std::size_t>(config_.num_workers));
  for (WorkerId w = 0; w < config_.num_workers; ++w) {
    Worker::Deps deps;
    deps.store = &store_;
    deps.delay = delay_owned_.get();
    deps.metrics = metrics_.get();
    deps.results = &results_;
    deps.faults = faults_.get();
    deps.telemetry = telemetry_.get();
    deps.channel = &transport_->channel(w);
    workers_.push_back(std::make_unique<Worker>(w, config_.cores_per_worker, deps));
  }
}

Cluster::~Cluster() { shutdown(); }

bool Cluster::submit(WorkerId worker, TaskSpec spec) {
  if (shut_down_.load(std::memory_order_acquire)) return false;
  assert(worker >= 0 && worker < config_.num_workers);
  // Injected dispatch failure: reported exactly like shutdown so callers run
  // their real abort/unwind path (the scheduler's on_dispatch_aborted).
  if (faults_ != nullptr && faults_->should_reject_submit(worker, spec)) {
    return false;
  }
  // Dispatch-plane round trip: the spec's wire header travels to the
  // worker's endpoint and the decoded echo overwrites it (socket backends);
  // the in-process channel is a no-op. A failed ship still delivers the spec
  // — the worker sees its dead wire and bounces it as kUnavailable, which is
  // how callers that raced the death learn about it.
  (void)transport_->channel(worker).ship_task(spec);
  // Queue-wait anchor: stamped only while telemetry is armed so the disabled
  // path never reads the clock here. After the wire round trip so transit
  // never counts as queue wait.
  if (telemetry_->enabled()) {
    spec.enqueued_at = support::Clock::now();
  }
  return workers_[static_cast<std::size_t>(worker)]->submit(std::move(spec));
}

std::vector<TaskResult> Cluster::collect_n(std::size_t n) {
  std::vector<TaskResult> out;
  out.reserve(n);
  while (out.size() < n) {
    auto result = results_.pop();
    if (!result.has_value()) break;  // queue closed during shutdown
    out.push_back(std::move(*result));
  }
  return out;
}

void Cluster::shutdown() {
  if (shut_down_.exchange(true)) return;
  // Workers first (their channels must stay valid while executor threads
  // drain), then the wire, then the result queue.
  for (auto& worker : workers_) worker->stop();
  transport_->stop();
  results_.close();
}

}  // namespace asyncml::engine
