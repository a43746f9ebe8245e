#include "engine/broadcast.hpp"

#include <gtest/gtest.h>

#include "linalg/dense_vector.hpp"
#include "transport/transport.hpp"

namespace asyncml::engine {
namespace {

TEST(BroadcastStore, PutGetRoundTrip) {
  BroadcastStore store;
  const BroadcastId id = store.put(Payload::wrap<int>(7));
  EXPECT_EQ(store.get(id).get<int>(), 7);
  EXPECT_EQ(store.size(), 1u);
}

TEST(BroadcastStore, IdsAreUniqueAndIncreasing) {
  BroadcastStore store;
  const BroadcastId a = store.put(Payload::wrap<int>(1));
  const BroadcastId b = store.put(Payload::wrap<int>(2));
  EXPECT_LT(a, b);
}

TEST(BroadcastStore, MissingIdReturnsEmpty) {
  BroadcastStore store;
  EXPECT_FALSE(store.get(999).has_value());
}

TEST(BroadcastStore, EraseRemovesEntry) {
  BroadcastStore store;
  const BroadcastId id = store.put(Payload::wrap<int>(1));
  store.erase(id);
  EXPECT_FALSE(store.get(id).has_value());
  store.erase(id);  // idempotent
}

TEST(BroadcastStore, EraseTargetsExactIdOnly) {
  // Eviction is by exact id: ids are registration-ordered, not version-
  // ordered, so a foreign broadcast registered between two model versions
  // must survive the models being dropped around it.
  BroadcastStore store;
  const BroadcastId old_model = store.put(Payload::wrap<int>(1));
  const BroadcastId foreign = store.put(Payload::wrap<int>(42));
  const BroadcastId new_model = store.put(Payload::wrap<int>(2));
  store.erase(old_model);
  EXPECT_FALSE(store.get(old_model).has_value());
  EXPECT_TRUE(store.get(foreign).has_value());
  EXPECT_TRUE(store.get(new_model).has_value());
}

TEST(BroadcastCache, FetchThroughCachesValue) {
  BroadcastStore store;
  NetworkModel net;
  net.time_scale = 0.0;  // no sleeps in unit tests
  ClusterMetrics metrics(1);
  auto wire = transport::make_transport({}, 1, &net, nullptr);
  BroadcastCache cache(&store, &metrics, &wire->channel(0));

  const BroadcastId id = store.put(Payload::wrap<int>(5));
  EXPECT_FALSE(cache.contains(id));
  EXPECT_EQ(cache.get_or_fetch(id).get<int>(), 5);
  EXPECT_TRUE(cache.contains(id));
  EXPECT_EQ(metrics.broadcast_fetches.load(), 1u);

  // Second access is a hit: no new fetch, no new bytes.
  const std::uint64_t bytes_after_first = metrics.broadcast_bytes.load();
  EXPECT_EQ(cache.get_or_fetch(id).get<int>(), 5);
  EXPECT_EQ(metrics.broadcast_fetches.load(), 1u);
  EXPECT_EQ(metrics.broadcast_hits.load(), 1u);
  EXPECT_EQ(metrics.broadcast_bytes.load(), bytes_after_first);
}

TEST(BroadcastCache, MissOnUnknownIdDoesNotCache) {
  BroadcastStore store;
  NetworkModel net;
  net.time_scale = 0.0;
  auto wire = transport::make_transport({}, 1, &net, nullptr);
  BroadcastCache cache(&store, nullptr, &wire->channel(0));
  EXPECT_FALSE(cache.get_or_fetch(123).has_value());
  EXPECT_FALSE(cache.contains(123));
}

TEST(BroadcastCache, EraseDropsExactEntry) {
  BroadcastStore store;
  NetworkModel net;
  net.time_scale = 0.0;
  auto wire = transport::make_transport({}, 1, &net, nullptr);
  BroadcastCache cache(&store, nullptr, &wire->channel(0));
  const BroadcastId a = store.put(Payload::wrap<int>(1));
  const BroadcastId b = store.put(Payload::wrap<int>(2));
  (void)cache.get_or_fetch(a);
  (void)cache.get_or_fetch(b);
  EXPECT_EQ(cache.size(), 2u);
  cache.erase(a);
  EXPECT_FALSE(cache.contains(a));
  EXPECT_TRUE(cache.contains(b));
  cache.erase(a);  // idempotent
  EXPECT_EQ(cache.size(), 1u);
}

TEST(BroadcastCache, AdmitChargesOnMissAndIsFreeOnHit) {
  BroadcastStore store;
  NetworkModel net;
  net.time_scale = 0.0;
  ClusterMetrics metrics(1);
  auto wire = transport::make_transport({}, 1, &net, nullptr);
  BroadcastCache cache(&store, &metrics, &wire->channel(0));

  // Admit a payload the caller already holds (a pinned chain link): the id
  // need not be resolvable through the store anymore.
  const BroadcastId id = store.put(Payload::wrap<int>(5, 64));
  const Payload pinned = store.get(id);
  store.erase(id);

  EXPECT_EQ(cache.admit(id, pinned, BroadcastClass::kDelta).get<int>(), 5);
  EXPECT_EQ(metrics.broadcast_fetches.load(), 1u);
  EXPECT_EQ(metrics.broadcast_bytes.load(), 64u);
  EXPECT_EQ(metrics.broadcast_delta_bytes.load(), 64u);
  EXPECT_EQ(metrics.broadcast_base_bytes.load(), 0u);

  // Second admit of the same id is a hit: no new bytes.
  EXPECT_EQ(cache.admit(id, pinned, BroadcastClass::kDelta).get<int>(), 5);
  EXPECT_EQ(metrics.broadcast_fetches.load(), 1u);
  EXPECT_EQ(metrics.broadcast_hits.load(), 1u);
  EXPECT_EQ(metrics.broadcast_bytes.load(), 64u);
}

TEST(BroadcastCache, FetchClassSplitsByteAccounting) {
  BroadcastStore store;
  NetworkModel net;
  net.time_scale = 0.0;
  ClusterMetrics metrics(1);
  auto wire = transport::make_transport({}, 1, &net, nullptr);
  BroadcastCache cache(&store, &metrics, &wire->channel(0));
  const BroadcastId snap = store.put(Payload::wrap<int>(1, 100));
  const BroadcastId delta = store.put(Payload::wrap<int>(2, 12));
  (void)cache.get_or_fetch(snap, BroadcastClass::kSnapshot);
  (void)cache.get_or_fetch(delta, BroadcastClass::kDelta);
  EXPECT_EQ(metrics.broadcast_base_bytes.load(), 100u);
  EXPECT_EQ(metrics.broadcast_delta_bytes.load(), 12u);
  EXPECT_EQ(metrics.broadcast_bytes.load(), 112u);
}

TEST(BroadcastHandle, DriverSideValueReadsStore) {
  BroadcastStore store;
  const BroadcastId id =
      store.put(Payload::wrap<linalg::DenseVector>(linalg::DenseVector{1, 2}, 16));
  Broadcast<linalg::DenseVector> handle(id, &store);
  ASSERT_TRUE(handle.valid());
  EXPECT_DOUBLE_EQ(handle.value()[1], 2.0);
}

TEST(BroadcastHandle, WorkerSideValueGoesThroughCache) {
  BroadcastStore store;
  NetworkModel net;
  net.time_scale = 0.0;
  ClusterMetrics metrics(1);
  auto wire = transport::make_transport({}, 1, &net, nullptr);
  BroadcastCache cache(&store, &metrics, &wire->channel(0));
  const BroadcastId id = store.put(Payload::wrap<int>(9));
  Broadcast<int> handle(id, &store);

  WorkerEnv env{0, &cache};
  set_current_worker_env(&env);
  EXPECT_EQ(handle.value(), 9);
  set_current_worker_env(nullptr);

  EXPECT_TRUE(cache.contains(id));
  EXPECT_EQ(metrics.broadcast_fetches.load(), 1u);
}

TEST(NetworkModel, TransferTimeScalesWithBytes) {
  NetworkModel net;
  net.latency_ms = 1.0;
  net.bandwidth_MBps = 1.0;  // 1 MB/s => 1 MB takes 1000 ms
  net.time_scale = 1.0;
  EXPECT_NEAR(net.transfer_ms(0), 1.0, 1e-9);
  EXPECT_NEAR(net.transfer_ms(1024 * 1024), 1001.0, 1e-6);
}

TEST(NetworkModel, ZeroScaleDisablesCharging) {
  NetworkModel net;
  net.time_scale = 0.0;
  EXPECT_DOUBLE_EQ(net.transfer_ms(1024 * 1024 * 100), 0.0);
}

}  // namespace
}  // namespace asyncml::engine
