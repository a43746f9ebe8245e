#pragma once

// DiskTier: the durable tier beneath the model store (docs/DURABILITY.md).
//
// Composes the content-addressed BlobStore (objects) with the append-only
// manifest (naming) and a byte-budgeted in-memory LRU above both.  The model
// plane talks to it in payload terms:
//
//   put_payload    engine::Payload -> envelope bytes -> blob, LRU-inserted
//   fetch_payload  digest -> LRU hit | blob read -> decoded Payload
//
// plus manifest appends for publishes, GC floors, and solver checkpoints.
//
// Open modes:
//   kFresh   a new run: any existing MANIFEST is rotated aside (manifest.old.N)
//            so stale records can never leak into the new run's replay; blobs
//            stay — content addressing makes them free dedup hits.
//   kResume  restart-without-replay: the manifest is replayed (torn tail
//            tolerated), truncated to its intact prefix, and `restored()`
//            exposes the replayed state for the store/solver to anchor on.
//
// Thread-safety: put_payload/fetch_payload are safe from any thread (the LRU
// has its own mutex, the blob store is internally synchronized); append_* are
// driver-thread operations like ModelStore::publish.

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/fault.hpp"
#include "engine/metrics.hpp"
#include "engine/payload.hpp"
#include "store/disk/blob_store.hpp"
#include "store/disk/manifest.hpp"
#include "store/store_config.hpp"
#include "support/sha256.hpp"
#include "support/status.hpp"

namespace asyncml::store::disk {

/// Byte budget of the in-memory LRU above the blob files; hot chain links and
/// freshly written payloads are served from here without touching disk.
inline constexpr std::size_t kLruBytes = std::size_t{64} << 20;

enum class OpenMode : std::uint8_t {
  kFresh,   ///< rotate any existing manifest; start an empty log
  kResume,  ///< replay the manifest (truncate torn tail) and expose it
};

class DiskTier {
 public:
  /// Opens (or creates) the tier at `config.dir`. `metrics` may be null — the
  /// tier then counts into a private DiskTierMetrics instance reachable via
  /// metrics(); `faults` may be null (no injection).
  [[nodiscard]] static support::StatusOr<std::unique_ptr<DiskTier>> open(
      DiskTierConfig config, OpenMode mode,
      engine::DiskTierMetrics* metrics = nullptr,
      engine::FaultState* faults = nullptr);

  DiskTier(const DiskTier&) = delete;
  DiskTier& operator=(const DiskTier&) = delete;

  /// Envelope-encodes `payload` and publishes it as a blob. The bytes also
  /// enter the LRU so an immediate fault-in is a memory hit.
  [[nodiscard]] support::StatusOr<support::Sha256Digest> put_payload(
      const engine::Payload& payload);

  /// Materializes the payload stored under `digest`: LRU hit, else a verified
  /// blob read (kDataLoss = quarantined, fall back; kNotFound; kUnavailable).
  [[nodiscard]] support::StatusOr<engine::Payload> fetch_payload(
      const support::Sha256Digest& digest);

  /// Manifest appends (driver thread). Failures are returned, not fatal: a
  /// run degrades to in-memory when the log cannot be extended.
  [[nodiscard]] support::Status append_publish(const PublishRecord& record);
  [[nodiscard]] support::Status append_gc_floor(std::uint32_t shard,
                                                std::uint64_t floor);
  [[nodiscard]] support::Status append_checkpoint(const CheckpointRecord& record);

  /// Manifest state replayed at open (empty in kFresh mode).
  [[nodiscard]] const ManifestState& restored() const noexcept { return restored_; }

  [[nodiscard]] BlobStore& blobs() noexcept { return *blobs_; }
  [[nodiscard]] const std::string& dir() const noexcept { return cfg_.dir; }
  [[nodiscard]] const DiskTierConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] engine::DiskTierMetrics& metrics() noexcept { return *metrics_; }

 private:
  DiskTier(DiskTierConfig config, engine::DiskTierMetrics* metrics,
           engine::FaultState* faults);

  [[nodiscard]] support::Status init(OpenMode mode);

  // -- LRU over decoded-envelope bytes, keyed by content digest ------------
  struct DigestHash {
    std::size_t operator()(const support::Sha256Digest& d) const noexcept {
      std::size_t h = 0;
      for (std::size_t i = 0; i < sizeof(h); ++i) {
        h = h << 8 | d[i];
      }
      return h;
    }
  };
  struct LruEntry {
    support::Sha256Digest digest{};
    std::vector<std::uint8_t> bytes;
  };

  void lru_insert(const support::Sha256Digest& digest,
                  std::vector<std::uint8_t> bytes);
  [[nodiscard]] bool lru_get(const support::Sha256Digest& digest,
                             std::vector<std::uint8_t>& out);

  DiskTierConfig cfg_;
  engine::DiskTierMetrics own_;        ///< used when no external metrics given
  engine::DiskTierMetrics* metrics_;   ///< never null after construction
  std::unique_ptr<BlobStore> blobs_;
  ManifestWriter manifest_;
  ManifestState restored_;

  std::mutex lru_mutex_;
  std::list<LruEntry> lru_;  ///< front = most recent
  std::unordered_map<support::Sha256Digest, std::list<LruEntry>::iterator, DigestHash>
      lru_index_;
  std::size_t lru_held_ = 0;
};

}  // namespace asyncml::store::disk
