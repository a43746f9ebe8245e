#include "store/disk/disk_tier.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <filesystem>
#include <utility>

// Included from the .cpp only: the tier reuses the transport payload
// envelope as its canonical serialization, but store headers must not pull in
// transport (store -> transport -> store would cycle).
#include "telemetry/telemetry.hpp"
#include "transport/wire.hpp"

namespace asyncml::store::disk {

namespace fs = std::filesystem;
using support::Sha256Digest;
using support::Status;
using support::StatusCode;
using support::StatusOr;

DiskTier::DiskTier(DiskTierConfig config, engine::DiskTierMetrics* metrics,
                   engine::FaultState* faults)
    : cfg_(std::move(config)), metrics_(metrics != nullptr ? metrics : &own_) {
  blobs_ = std::make_unique<BlobStore>(cfg_.dir, cfg_, metrics_, faults);
}

StatusOr<std::unique_ptr<DiskTier>> DiskTier::open(DiskTierConfig config,
                                                   OpenMode mode,
                                                   engine::DiskTierMetrics* metrics,
                                                   engine::FaultState* faults) {
  if (config.dir.empty()) {
    return Status(StatusCode::kInvalidArgument, "disk_tier: empty dir");
  }
  std::unique_ptr<DiskTier> tier(new DiskTier(std::move(config), metrics, faults));
  if (Status s = tier->init(mode); !s.is_ok()) return s;
  return tier;
}

Status DiskTier::init(OpenMode mode) {
  if (Status s = blobs_->init(); !s.is_ok()) return s;
  const fs::path manifest_path = fs::path(cfg_.dir) / "MANIFEST";
  std::uint64_t truncate_to = 0;

  std::error_code ec;
  const bool exists = fs::exists(manifest_path, ec);
  if (mode == OpenMode::kFresh && exists) {
    // Rotate, never delete: the old log stays inspectable, and a fresh run
    // must not replay another run's records. Deterministic first-free-N
    // naming keeps restarted chaos runs reproducible.
    for (int n = 0;; ++n) {
      const fs::path old = fs::path(cfg_.dir) / ("manifest.old." + std::to_string(n));
      if (fs::exists(old, ec)) continue;
      fs::rename(manifest_path, old, ec);
      if (ec) {
        return Status(StatusCode::kUnavailable,
                      "disk_tier: rotate manifest: " + ec.message());
      }
      break;
    }
  }
  if (mode == OpenMode::kResume && exists) {
    const int fd = ::open(manifest_path.c_str(), O_RDONLY);
    if (fd < 0) {
      return Status(StatusCode::kUnavailable, "disk_tier: open manifest failed");
    }
    std::vector<std::uint8_t> bytes;
    std::uint8_t buf[1 << 16];
    for (;;) {
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n < 0) {
        if (errno == EINTR) continue;
        ::close(fd);
        return Status(StatusCode::kUnavailable, "disk_tier: read manifest failed");
      }
      if (n == 0) break;
      bytes.insert(bytes.end(), buf, buf + n);
    }
    ::close(fd);
    auto state = decode_manifest(bytes);
    if (!state.is_ok()) return state.status();
    restored_ = std::move(state).value();
    truncate_to = restored_.valid_bytes;
  }
  return manifest_.open(manifest_path.string(), truncate_to, cfg_.fsync);
}

StatusOr<Sha256Digest> DiskTier::put_payload(const engine::Payload& payload) {
  telemetry::ScopedStageTimer timer(telemetry::Stage::kDiskIo);
  std::vector<std::uint8_t> bytes = transport::encode_payload_envelope(payload);
  auto digest = blobs_->put(bytes);
  if (digest.is_ok()) lru_insert(digest.value(), std::move(bytes));
  return digest;
}

StatusOr<engine::Payload> DiskTier::fetch_payload(const Sha256Digest& digest) {
  telemetry::ScopedStageTimer timer(telemetry::Stage::kDiskIo);
  std::vector<std::uint8_t> bytes;
  if (lru_get(digest, bytes)) {
    metrics_->lru_hits.add(1);
  } else {
    auto read = blobs_->get(digest);
    if (!read.is_ok()) return read.status();
    bytes = std::move(read).value();
    metrics_->faulted_in.add(1);
    lru_insert(digest, bytes);
  }
  return transport::decode_payload_envelope(bytes, /*opaque_source=*/nullptr);
}

Status DiskTier::append_publish(const PublishRecord& record) {
  metrics_->manifest_appends.add(1);
  return manifest_.append(encode_publish_record(record));
}

Status DiskTier::append_gc_floor(std::uint32_t shard, std::uint64_t floor) {
  metrics_->manifest_appends.add(1);
  return manifest_.append(encode_gc_floor_record(shard, floor));
}

Status DiskTier::append_checkpoint(const CheckpointRecord& record) {
  metrics_->manifest_appends.add(1);
  return manifest_.append(encode_checkpoint_record(record));
}

void DiskTier::lru_insert(const Sha256Digest& digest, std::vector<std::uint8_t> bytes) {
  if (bytes.size() > kLruBytes) return;  // would evict everything for one entry
  std::lock_guard lock(lru_mutex_);
  if (auto it = lru_index_.find(digest); it != lru_index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency, same bytes
    return;
  }
  lru_held_ += bytes.size();
  lru_.push_front(LruEntry{digest, std::move(bytes)});
  lru_index_[digest] = lru_.begin();
  while (lru_held_ > kLruBytes && !lru_.empty()) {
    lru_held_ -= lru_.back().bytes.size();
    lru_index_.erase(lru_.back().digest);
    lru_.pop_back();
  }
}

bool DiskTier::lru_get(const Sha256Digest& digest, std::vector<std::uint8_t>& out) {
  std::lock_guard lock(lru_mutex_);
  const auto it = lru_index_.find(digest);
  if (it == lru_index_.end()) return false;
  lru_.splice(lru_.begin(), lru_, it->second);
  out = it->second->bytes;
  return true;
}

}  // namespace asyncml::store::disk
