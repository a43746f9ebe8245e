// History-plane contracts the driver's hot path relies on: publish's
// count-first densify decision (exact boundary, delta = per-coordinate diff),
// resolution that plans the same chain however many versions a cache holds,
// and resolution racing the driver's GC drops and republish invalidations.

#include <atomic>
#include <cmath>
#include <map>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "store/model_cache.hpp"
#include "store/model_store.hpp"
#include "support/rng.hpp"
#include "transport/transport.hpp"

namespace asyncml::store {
namespace {

/// The delta payload registered for `version`, as an index → value map.
std::map<std::uint32_t, double> delta_entries(const engine::BroadcastStore& broadcasts,
                                              const ModelStore& store,
                                              engine::Version version) {
  const auto entry = store.entry_of(version);
  EXPECT_TRUE(entry.has_value() && entry->delta_id != 0);
  std::map<std::uint32_t, double> out;
  broadcasts.get(entry->delta_id).get<ModelDelta>().values.for_each(
      [&](std::uint32_t i, double v) { out.emplace(i, v); });
  return out;
}

/// Publishes a base at version 0, then version 1 with the first `changed`
/// coordinates moved; returns version 1's model.
linalg::DenseVector publish_with_changes(ModelStore& store, std::size_t dim,
                                         std::size_t changed) {
  linalg::DenseVector w(dim, 1.0);
  store.publish(w, 0);
  for (std::size_t i = 0; i < changed; ++i) w[i * 3 % dim] += 0.5;
  store.publish(w, 1);
  return w;
}

TEST(HistoryPlanePublish, DensifyBoundaryIsExact) {
  constexpr std::size_t kDim = 64;
  // The default cutoff (limit 42.67) and one whose limit is a whole count
  // (0.5 * 64 = 32), where "past the limit" must still mean strictly past.
  for (const double threshold : {kDeltaDensifyThreshold, 0.5}) {
    SCOPED_TRACE(threshold);
    StoreConfig config;
    config.base_interval = 1000;  // keep scheduled bases out of the way
    config.densify_threshold = threshold;
    const double limit = threshold * static_cast<double>(kDim);
    const auto at_limit = static_cast<std::size_t>(std::floor(limit));
    {
      // nnz == floor(limit) is not past the threshold: still a delta.
      engine::BroadcastStore broadcasts;
      ModelStore store(&broadcasts, config);
      const linalg::DenseVector w = publish_with_changes(store, kDim, at_limit);
      const auto entry = store.entry_of(1);
      ASSERT_TRUE(entry.has_value());
      EXPECT_EQ(entry->kind, EntryKind::kDelta);
      EXPECT_FALSE(entry->has_base());
      EXPECT_EQ(entry->delta_bytes, 8u + 12u * at_limit);
      EXPECT_EQ(store.driver_cache().value_at(1), w);
    }
    {
      // One more changed coordinate crosses it: a base, and no delta twin.
      engine::BroadcastStore broadcasts;
      ModelStore store(&broadcasts, config);
      const linalg::DenseVector w = publish_with_changes(store, kDim, at_limit + 1);
      const auto entry = store.entry_of(1);
      ASSERT_TRUE(entry.has_value());
      EXPECT_EQ(entry->kind, EntryKind::kBase);
      EXPECT_FALSE(entry->has_delta());
      EXPECT_EQ(store.stats().deltas_published, 0u);
      EXPECT_EQ(store.driver_cache().value_at(1), w);
    }
  }
}

TEST(HistoryPlanePublish, DeltaHoldsExactlyThePerCoordinateDiff) {
  constexpr std::size_t kDim = 512;
  engine::BroadcastStore broadcasts;
  ModelStore store(&broadcasts);
  support::RngStream rng(5);
  linalg::DenseVector prev(kDim);
  for (std::size_t i = 0; i < kDim; ++i) prev[i] = rng.uniform(-1.0, 1.0);
  store.publish(prev, 0);
  linalg::DenseVector w = prev;
  for (int t = 0; t < 90; ++t) w[rng.next_below(kDim)] = rng.uniform(-1.0, 1.0);
  w[7] = prev[7];  // a write of the same value is no change
  store.publish(w, 1);

  std::map<std::uint32_t, double> diff;
  for (std::size_t i = 0; i < kDim; ++i) {
    if (w[i] != prev[i]) diff.emplace(static_cast<std::uint32_t>(i), w[i]);
  }
  ASSERT_FALSE(diff.empty());
  EXPECT_EQ(delta_entries(broadcasts, store, 1), diff);
  EXPECT_EQ(store.entry_of(1)->delta_bytes, 8u + 12u * diff.size());

  // The table matches one built by inserting the diff in index order with
  // the default growth, slot for slot, so its encoding is unchanged too.
  linalg::GradVector reference(linalg::GradVectorConfig(kDim, 1.01, false));
  for (const auto& [i, v] : diff) reference.set(i, v);
  std::vector<std::uint32_t> want;
  std::vector<std::uint32_t> got;
  reference.for_each([&](std::uint32_t i, double) { want.push_back(i); });
  broadcasts.get(store.entry_of(1)->delta_id)
      .get<ModelDelta>()
      .values.for_each([&](std::uint32_t i, double) { got.push_back(i); });
  EXPECT_EQ(got, want);
}

TEST(HistoryPlanePublish, ScheduledBaseStillDualPublishes) {
  StoreConfig config;
  config.base_interval = 4;
  engine::BroadcastStore broadcasts;
  ModelStore store(&broadcasts, config);
  linalg::DenseVector w(32);
  linalg::DenseVector before;
  for (engine::Version v = 0; v < 5; ++v) {
    before = w;
    w[v * 5 % 32] = static_cast<double>(v) + 0.25;
    w[(v * 5 + 1) % 32] = -static_cast<double>(v);
    store.publish(w, v);
  }
  const auto entry = store.entry_of(4);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->kind, EntryKind::kBase);
  ASSERT_TRUE(entry->has_delta());
  EXPECT_EQ(entry->parent, 3u);
  std::map<std::uint32_t, double> diff;
  for (std::uint32_t i = 0; i < 32; ++i) {
    if (w[i] != before[i]) diff.emplace(i, w[i]);
  }
  EXPECT_EQ(delta_entries(broadcasts, store, 4), diff);
  EXPECT_EQ(broadcasts.get(entry->base_id).get<linalg::DenseVector>(), w);

  // A scheduled base whose delta densified ships the snapshot alone.
  for (engine::Version v = 5; v < 8; ++v) {
    w[v] += 1.0;
    store.publish(w, v);
  }
  for (std::size_t i = 0; i < w.size(); ++i) w[i] += 2.0;
  store.publish(w, 8);
  EXPECT_EQ(store.entry_of(8)->kind, EntryKind::kBase);
  EXPECT_FALSE(store.entry_of(8)->has_delta());
}

TEST(HistoryPlanePublish, SameVersionRepublishPathsUnchanged) {
  engine::BroadcastStore broadcasts;
  ModelStore store(&broadcasts);
  linalg::DenseVector w(16, 1.0);
  store.publish(w, 0);
  w[3] = 4.0;
  const engine::BroadcastId first = store.publish(w, 1);
  ASSERT_EQ(store.entry_of(1)->kind, EntryKind::kDelta);
  // Unchanged model: the existing delta entry is returned as is.
  EXPECT_EQ(store.publish(w, 1), first);
  EXPECT_EQ(store.stats().deltas_published, 1u);
  // Changed model: a fresh base replaces the entry and erases the old delta.
  w[4] = 5.0;
  const engine::BroadcastId second = store.publish(w, 1);
  EXPECT_NE(second, first);
  EXPECT_FALSE(broadcasts.get(first).has_value());
  EXPECT_EQ(store.entry_of(1)->kind, EntryKind::kBase);
  EXPECT_FALSE(store.entry_of(1)->has_delta());
  EXPECT_EQ(store.driver_cache().value_at(1), w);
  // The next version chains onto the replacement again.
  w[5] = 6.0;
  store.publish(w, 2);
  EXPECT_EQ(store.entry_of(2)->kind, EntryKind::kDelta);
  EXPECT_EQ(delta_entries(broadcasts, store, 2),
            (std::map<std::uint32_t, double>{{5u, 6.0}}));
}

// -- resolution against a long materialized history ---------------------------

/// Versions 0..count-1 over dim 16, one changed coordinate each (20-byte
/// deltas, 128-byte bases, a dual-published base every 64 versions).
struct LongHistory {
  static constexpr std::size_t kDim = 16;
  static constexpr engine::Version kVersions = 1100;
  engine::BroadcastStore broadcasts;
  engine::NetworkModel net;
  std::unique_ptr<transport::Transport> wire =
      transport::make_transport({}, 2, &net, nullptr);
  ModelStore store;
  std::vector<linalg::DenseVector> truth;

  LongHistory() : store(&broadcasts, config()) {
    net.time_scale = 0.0;
    linalg::DenseVector w(kDim);
    for (engine::Version v = 0; v < kVersions; ++v) {
      w[v % kDim] += static_cast<double>(v + 1);
      store.publish(w, v);
      truth.push_back(w);
    }
  }
  static StoreConfig config() {
    StoreConfig c;
    c.base_interval = 64;
    return c;
  }
};

std::vector<std::pair<engine::Version, bool>> plan(const std::vector<ChainLink>& chain) {
  std::vector<std::pair<engine::Version, bool>> out;
  for (const ChainLink& link : chain) out.emplace_back(link.version, link.is_base);
  return out;
}

TEST(HistoryPlaneResolve, ThousandAnchorsPlanLikeOne) {
  LongHistory h;
  MaterializedModels many;
  for (engine::Version v = 0; v < 1000; ++v) many.emplace(v, nullptr);
  const MaterializedModels one{{999, nullptr}};

  // Anchor wins: three 20-byte deltas above 999 beat every base below.
  const auto near = plan(h.store.chain_for(1002, &many));
  EXPECT_EQ(near, plan(h.store.chain_for(1002, &one)));
  ASSERT_FALSE(near.empty());
  EXPECT_EQ(near.front(), std::make_pair(engine::Version{999}, false));
  EXPECT_EQ(near.size(), 4u);

  // Base wins by cost: base(1024) + 6 deltas (248 B) beats 31 deltas from
  // the newest anchor (620 B).
  const auto far = plan(h.store.chain_for(1030, &many));
  EXPECT_EQ(far, plan(h.store.chain_for(1030, &one)));
  ASSERT_FALSE(far.empty());
  EXPECT_EQ(far.front(), std::make_pair(engine::Version{1024}, true));
  EXPECT_EQ(far.size(), 7u);
}

TEST(HistoryPlaneResolve, CacheHoldingThousandVersionsChargesAFreshPlan) {
  LongHistory h;
  engine::ClusterMetrics big_metrics(1);
  engine::BroadcastCache big_bcache(&h.broadcasts, &big_metrics, &h.wire->channel(0));
  VersionedModelCache& big = h.store.cache_for(0, &big_bcache, &big_metrics);
  for (engine::Version v = 0; v < 1000; ++v) ASSERT_EQ(big.value_at(v), h.truth[v]);
  ASSERT_GE(big.size(), 1000u);

  engine::ClusterMetrics fresh_metrics(1);
  engine::BroadcastCache fresh_bcache(&h.broadcasts, &fresh_metrics,
                                      &h.wire->channel(1));
  VersionedModelCache& fresh = h.store.cache_for(1, &fresh_bcache, &fresh_metrics);
  (void)fresh.value_at(999);  // the one anchor either plan can use

  for (const engine::Version target : {engine::Version{1002}, engine::Version{1030}}) {
    const std::uint64_t big_before = big_metrics.broadcast_bytes.load();
    const std::uint64_t fresh_before = fresh_metrics.broadcast_bytes.load();
    EXPECT_EQ(big.value_at(target), h.truth[target]);
    EXPECT_EQ(fresh.value_at(target), h.truth[target]);
    EXPECT_EQ(big_metrics.broadcast_bytes.load() - big_before,
              fresh_metrics.broadcast_bytes.load() - fresh_before)
        << "version " << target;
  }
}

// -- resolution racing GC drops and republish invalidations --------------------

TEST(HistoryPlaneResolve, ResolverRacesGcAndRepublish) {
  constexpr std::size_t kDim = 32;
  constexpr engine::Version kVersions = 1500;
  engine::BroadcastStore broadcasts;
  engine::NetworkModel net;
  net.time_scale = 0.0;
  auto wire = transport::make_transport({}, 1, &net, nullptr);
  engine::ClusterMetrics metrics(1);
  engine::BroadcastCache bcache(&broadcasts, &metrics, &wire->channel(0));
  StoreConfig config;
  config.base_interval = 8;
  ModelStore store(&broadcasts, config);
  VersionedModelCache& cache = store.cache_for(0, &bcache, &metrics);

  // truth[v] is final once `latest` > v: only the newest version is ever
  // republished, and the resolver reads strictly below `latest`.
  std::vector<linalg::DenseVector> truth(kVersions);
  std::atomic<engine::Version> latest{0};
  std::atomic<engine::Version> claim{0};  // resolver's lowest live version
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> resolved{0};
  std::atomic<std::uint64_t> mismatches{0};

  std::thread resolver([&] {
    support::RngStream rng(17);
    while (!done.load(std::memory_order_acquire)) {
      const engine::Version top = latest.load(std::memory_order_acquire);
      const engine::Version lo = claim.load(std::memory_order_relaxed);
      if (top <= lo) continue;
      // Mostly the freshest version (anchors on the previous one), sometimes
      // an older one (a longer walk or a base plan).
      const engine::Version v = rng.next_below(4) == 0 ? lo + rng.next_below(top - lo)
                                                       : top - 1;
      if (!(cache.value_at(v) == truth[v])) mismatches.fetch_add(1);
      resolved.fetch_add(1, std::memory_order_relaxed);
      // Done with everything below top-12: the driver may collect it.
      if (top > lo + 12) claim.store(top - 12, std::memory_order_release);
    }
  });

  linalg::DenseVector w(kDim);
  for (engine::Version v = 0; v < kVersions; ++v) {
    w[0] = static_cast<double>(v);
    w[1 + v % (kDim - 1)] += 1.0;
    if (v % 37 == 0) {
      for (std::size_t i = 0; i < kDim; ++i) w[i] += 0.5;  // densified base
    }
    truth[v] = w;
    store.publish(w, v);
    if (v % 5 == 0) {
      // Same-version republish with changed content: invalidates `v` in
      // every cache while the resolver walks its neighbours.
      w[kDim - 1] += 0.25;
      truth[v] = w;
      store.publish(w, v);
    }
    latest.store(v, std::memory_order_release);
    if (v % 16 == 0) {
      const engine::Version floor = claim.load(std::memory_order_acquire);
      store.gc_below(floor);
    }
  }
  // Let the resolver catch up with the final versions before stopping.
  while (resolved.load() < 2000) std::this_thread::yield();
  done.store(true, std::memory_order_release);
  resolver.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(store.gc_floor(), 0u);
  EXPECT_LT(cache.size(), static_cast<std::size_t>(kVersions));
}

}  // namespace
}  // namespace asyncml::store
