#include "core/shard_map.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

namespace asyncml::core {
namespace {

TEST(ShardMap, RangeBoundsAreBalancedAndCoverDim) {
  const ShardMap map(/*dim=*/10, /*num_shards=*/4);
  ASSERT_EQ(map.num_shards(), 4u);
  // 10 = 4*2 + 2: the two leftmost shards take the extra coordinate.
  const std::vector<std::uint32_t> expected = {0, 3, 6, 8, 10};
  EXPECT_EQ(map.range_bounds(), expected);
  std::size_t covered = 0;
  for (std::uint32_t s = 0; s < map.num_shards(); ++s) covered += map.shard_dim(s);
  EXPECT_EQ(covered, map.dim());
}

TEST(ShardMap, ShardOfLocalOfGlobalOfAreInverse) {
  const ShardMap map(/*dim=*/101, /*num_shards=*/7);
  for (std::uint32_t i = 0; i < 101; ++i) {
    const std::uint32_t s = map.shard_of(i);
    ASSERT_LT(s, map.num_shards());
    const std::uint32_t local = map.local_of(i);
    ASSERT_LT(local, map.shard_dim(s));
    EXPECT_EQ(map.global_of(s, local), i);
  }
}

TEST(ShardMap, ShardCountClampsToDim) {
  const ShardMap tiny(/*dim=*/3, /*num_shards=*/8);
  EXPECT_EQ(tiny.num_shards(), 3u);
  const ShardMap zero(/*dim=*/3, /*num_shards=*/0);
  EXPECT_EQ(zero.num_shards(), 1u);
}

TEST(ShardMap, ExtractScatterRoundtrip) {
  const ShardMap map(/*dim=*/33, /*num_shards=*/5);
  std::vector<double> w(33);
  std::iota(w.begin(), w.end(), 1.0);
  std::vector<double> rebuilt(33, 0.0);
  for (std::uint32_t s = 0; s < map.num_shards(); ++s) {
    std::vector<double> slice(map.shard_dim(s));
    map.extract(s, w, slice);
    for (std::size_t local = 0; local < slice.size(); ++local) {
      EXPECT_EQ(slice[local], w[map.global_of(s, static_cast<std::uint32_t>(local))]);
    }
    map.scatter(s, slice, rebuilt);
  }
  EXPECT_EQ(rebuilt, w);
}

TEST(ShardMap, SliceDiffersIsBitwisePerShard) {
  const ShardMap map(/*dim=*/8, /*num_shards=*/2);
  std::vector<double> a(8, 1.0);
  std::vector<double> b(8, 1.0);
  EXPECT_FALSE(map.slice_differs(0, a, b));
  EXPECT_FALSE(map.slice_differs(1, a, b));
  b[6] = 2.0;  // shard 1's range
  EXPECT_FALSE(map.slice_differs(0, a, b));
  EXPECT_TRUE(map.slice_differs(1, a, b));
  // Bitwise: -0.0 and +0.0 compare unequal (a republished slice must ship).
  a[0] = 0.0;
  b[0] = -0.0;
  EXPECT_TRUE(map.slice_differs(0, a, b));
}

}  // namespace
}  // namespace asyncml::core
