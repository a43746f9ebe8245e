#include "store/sharded_store.hpp"

#include <cassert>
#include <cstdio>
#include <utility>

#include "store/model_cache.hpp"

namespace asyncml::store {

ShardedModelStore::ShardedModelStore(engine::BroadcastStore* broadcasts,
                                     StoreConfig config)
    : broadcasts_(broadcasts), cfg_(config) {
  assert(broadcasts_ != nullptr);
  if (cfg_.num_shards == 0) cfg_.num_shards = 1;
  if (!sharded()) {
    // The bit-exact reference: one eagerly built shard, every call a straight
    // delegation (a ModelStore needs no dimension up front, so direct-use
    // consumers like the HistoryRegistry tests see identical behaviour).
    shards_.push_back(std::make_unique<ModelStore>(broadcasts_, cfg_));
  }
}

engine::BroadcastId ShardedModelStore::publish(const linalg::DenseVector& w,
                                               engine::Version version) {
  if (cfg_.disk.enabled && tier_ == nullptr) {
    // First publish of a non-resumed run: open a fresh tier (rotating any
    // stale manifest aside). Failure downgrades to in-memory, once, loudly.
    auto tier = disk::DiskTier::open(cfg_.disk, disk::OpenMode::kFresh,
                                     disk_metrics_, disk_faults_);
    if (tier.is_ok()) {
      tier_ = std::move(tier).value();
      if (!sharded()) attach_shard(0);
    } else {
      std::fprintf(stderr,
                   "ShardedModelStore: disk tier open failed (%s); running "
                   "in-memory only\n",
                   tier.status().to_string().c_str());
      cfg_.disk.enabled = false;
    }
  }
  if (!sharded()) return shards_[0]->publish(w, version);

  if (map_ == nullptr) {
    // First publish fixes the dimension; S clamps to it.
    map_ = std::make_unique<core::ShardMap>(w.size(), cfg_.num_shards);
    shards_.reserve(map_->num_shards());
    for (std::uint32_t s = 0; s < map_->num_shards(); ++s) {
      auto shard = std::make_unique<ModelStore>(broadcasts_, cfg_);
      shard->set_shard_tag(static_cast<std::int32_t>(s));
      shards_.push_back(std::move(shard));
    }
    if (tier_ != nullptr) {
      for (std::uint32_t s = 0; s < map_->num_shards(); ++s) attach_shard(s);
      pending_restore_anchor_.reset();
    }
  }
  assert(w.size() == map_->dim() && "model dimension changed across publishes");

  bool republished_existing = false;
  {
    std::lock_guard lock(assembly_mutex_);
    republished_existing = versions_.contains(version);
  }
  if (republished_existing && has_prev_ && version == prev_version_ && w == prev_) {
    // Unchanged same-version republish (epoch boundaries): nothing to do —
    // every shard's entry already is this publish.
    return *id_of(version);
  }

  const std::uint32_t num_shards = map_->num_shards();
  linalg::DenseVector slice;
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    // Skip shards whose slice is bit-unchanged: their existing chain head
    // keeps serving this (and later) versions via latest_at_or_below.
    if (has_prev_ && !map_->slice_differs(s, w.span(), prev_.span())) continue;
    slice.resize(map_->shard_dim(s));
    map_->extract(s, w.span(), slice.span());
    shards_[s]->publish(slice, version);
  }

  prev_ = w;
  prev_version_ = version;
  has_prev_ = true;
  {
    std::lock_guard lock(assembly_mutex_);
    versions_.insert(version);
  }
  if (republished_existing) {
    // The repo's republish contract (see ModelStore::publish): a version is
    // only republished with different content when no task can still read the
    // old materialization, so dropping the assembled buffers is safe.
    drop_assembly_at(version);
  }
  const auto v0 = shards_[0]->latest_at_or_below(version);
  assert(v0.has_value());
  return *shards_[0]->id_of(*v0);
}

const linalg::DenseVector& ShardedModelStore::value_at(engine::Version version,
                                                       const core::ShardSet* mask) {
  engine::WorkerEnv* env = engine::current_worker_env();
  if (env != nullptr && env->cache == nullptr) env = nullptr;
  if (!sharded()) {
    if (env != nullptr) {
      return shards_[0]->cache_for(env->id, env->cache, env->metrics)
          .value_at(version);
    }
    return shards_[0]->driver_cache().value_at(version);
  }
  assert(map_ != nullptr && "value_at before the first publish");
  const std::uint32_t num_shards = map_->num_shards();

  if (env != nullptr && env->metrics != nullptr) {
    const std::size_t touched = mask != nullptr ? mask->size() : num_shards;
    env->metrics->shard_reads.add(1);
    env->metrics->shard_touches.add(touched);
    if (touched < num_shards) env->metrics->shard_reads_partial.add(1);
  }

  const int worker = env != nullptr ? static_cast<int>(env->id) : -1;
  const std::shared_ptr<AssemblyEntry> entry = assembly_entry(worker, version);

  const auto fill = [&](std::uint32_t s) {
    if (entry->filled[s] != 0) return;
    const auto shard_version = shards_[s]->latest_at_or_below(version);
    assert(shard_version.has_value() && "shard resolving below its GC floor");
    const linalg::DenseVector& slice =
        env != nullptr
            ? shards_[s]->cache_for(env->id, env->cache, env->metrics)
                  .value_at(*shard_version)
            : shards_[s]->driver_cache().value_at(*shard_version);
    map_->scatter(s, slice.span(), entry->w.span());
    entry->filled[s] = 1;
  };

  // Single-flight per (worker, version): the fill mutex serializes sibling
  // executor threads assembling the same version, and establishes the
  // happens-before between a fill and every later masked read of that shard.
  std::lock_guard lock(entry->fill_mutex);
  if (mask != nullptr) {
    for (const std::uint32_t s : mask->ids) fill(s);
  } else {
    for (std::uint32_t s = 0; s < num_shards; ++s) fill(s);
  }
  return entry->w;
}

std::optional<engine::BroadcastId> ShardedModelStore::id_of(
    engine::Version version) const {
  if (!sharded()) return shards_[0]->id_of(version);
  if (map_ == nullptr) return std::nullopt;
  const auto v0 = shards_[0]->latest_at_or_below(version);
  if (!v0.has_value()) return std::nullopt;
  return shards_[0]->id_of(*v0);
}

void ShardedModelStore::gc_below(engine::Version min_version) {
  if (!sharded()) {
    shards_[0]->gc_below(min_version);
    return;
  }
  if (map_ == nullptr) return;
  for (const auto& shard : shards_) {
    // Translate the global floor into this shard's version set: the newest
    // entry ≤ min_version must survive — any in-flight version v ≥ min still
    // resolves to it — so the shard's own floor is that entry, not min.
    const auto floor = shard->latest_at_or_below(min_version);
    if (floor.has_value()) shard->gc_below(*floor);
  }
  std::lock_guard lock(assembly_mutex_);
  versions_.erase(versions_.begin(), versions_.lower_bound(min_version));
  for (auto& [worker, per_version] : assemblies_) {
    per_version.erase(per_version.begin(), per_version.lower_bound(min_version));
  }
}

std::size_t ShardedModelStore::size() const {
  if (!sharded()) return shards_[0]->size();
  std::lock_guard lock(assembly_mutex_);
  return versions_.size();
}

std::optional<engine::Version> ShardedModelStore::oldest() const {
  if (!sharded()) return shards_[0]->oldest();
  std::lock_guard lock(assembly_mutex_);
  if (versions_.empty()) return std::nullopt;
  return *versions_.begin();
}

ModelStore& ShardedModelStore::shard(std::uint32_t s) {
  assert(s < shards_.size());
  return *shards_[s];
}

const ModelStore& ShardedModelStore::shard(std::uint32_t s) const {
  assert(s < shards_.size());
  return *shards_[s];
}

std::uint32_t ShardedModelStore::active_shards() const {
  return static_cast<std::uint32_t>(shards_.size());
}

const core::ShardMap* ShardedModelStore::shard_map() const { return map_.get(); }

StoreStats ShardedModelStore::aggregate_stats() const {
  StoreStats total;
  for (const auto& shard : shards_) {
    const StoreStats s = shard->stats();
    total.bases_published += s.bases_published;
    total.deltas_published += s.deltas_published;
    total.base_bytes_published += s.base_bytes_published;
    total.delta_bytes_published += s.delta_bytes_published;
    total.compactions += s.compactions;
  }
  return total;
}

void ShardedModelStore::set_disk_hooks(engine::DiskTierMetrics* metrics,
                                       engine::FaultState* faults) {
  disk_metrics_ = metrics;
  disk_faults_ = faults;
}

support::Status ShardedModelStore::restore_from_disk(engine::Version anchor) {
  if (!cfg_.disk.enabled) {
    return support::Status(support::StatusCode::kFailedPrecondition,
                           "sharded_store: disk tier disabled");
  }
  if (tier_ == nullptr) {
    auto tier = disk::DiskTier::open(cfg_.disk, disk::OpenMode::kResume,
                                     disk_metrics_, disk_faults_);
    if (!tier.is_ok()) return tier.status();
    tier_ = std::move(tier).value();
  }
  pending_restore_anchor_ = anchor;
  if (!sharded()) {
    attach_shard(0);
    pending_restore_anchor_.reset();
  }
  // S > 1: the shards (and the ShardMap) do not exist until the dimension is
  // known at the first publish — the stashed anchor makes attach_shard replay
  // each shard's slice of the manifest then.
  return support::Status::ok();
}

void ShardedModelStore::attach_shard(std::uint32_t s) {
  shards_[s]->attach_disk(tier_.get(), s);
  if (!pending_restore_anchor_.has_value()) return;  // fresh run: nothing to replay
  const disk::ManifestState& st = tier_->restored();
  static const std::map<std::uint64_t, disk::PublishRecord> kNoRecords;
  const auto rec_it = st.shards.find(s);
  const auto floor_it = st.gc_floors.find(s);
  shards_[s]->restore_from_manifest(
      rec_it != st.shards.end() ? rec_it->second : kNoRecords,
      floor_it != st.gc_floors.end() ? floor_it->second : 0,
      *pending_restore_anchor_);
}

std::shared_ptr<ShardedModelStore::AssemblyEntry> ShardedModelStore::assembly_entry(
    int worker, engine::Version version) {
  std::lock_guard lock(assembly_mutex_);
  auto& slot = assemblies_[worker][version];
  if (slot == nullptr) {
    slot = std::make_shared<AssemblyEntry>(map_->dim(), map_->num_shards());
  }
  return slot;
}

void ShardedModelStore::drop_assembly_at(engine::Version version) {
  std::lock_guard lock(assembly_mutex_);
  for (auto& [worker, per_version] : assemblies_) per_version.erase(version);
}

}  // namespace asyncml::store
