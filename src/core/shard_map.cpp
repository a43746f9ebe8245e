#include "core/shard_map.hpp"

#include <algorithm>
#include <cstring>

namespace asyncml::core {

ShardMap::ShardMap(std::size_t dim, std::uint32_t num_shards)
    : dim_(dim),
      num_shards_(std::max<std::uint32_t>(
          1, std::min<std::uint32_t>(
                 num_shards, static_cast<std::uint32_t>(std::max<std::size_t>(
                                 1, std::min<std::size_t>(dim, 0xFFFFFFFFu)))))),
      base_(static_cast<std::uint32_t>(dim_ / num_shards_)),
      rem_(static_cast<std::uint32_t>(dim_ % num_shards_)),
      bounds_(num_shards_ + 1, 0) {
  for (std::uint32_t s = 0; s < num_shards_; ++s) {
    bounds_[s + 1] = bounds_[s] + base_ + (s < rem_ ? 1 : 0);
  }
}

void ShardMap::extract(std::uint32_t shard, std::span<const double> w,
                       std::span<double> slice) const {
  assert(shard < num_shards_ && w.size() == dim_ &&
         slice.size() == shard_dim(shard));
  std::memcpy(slice.data(), w.data() + bounds_[shard], slice.size() * sizeof(double));
}

void ShardMap::scatter(std::uint32_t shard, std::span<const double> slice,
                       std::span<double> w) const {
  assert(shard < num_shards_ && w.size() == dim_ &&
         slice.size() == shard_dim(shard));
  std::memcpy(w.data() + bounds_[shard], slice.data(), slice.size() * sizeof(double));
}

bool ShardMap::slice_differs(std::uint32_t shard, std::span<const double> a,
                             std::span<const double> b) const {
  assert(shard < num_shards_ && a.size() == dim_ && b.size() == dim_);
  // Bitwise comparison on purpose: the delta chain republishes whenever the
  // stored bits change, and 0.0 vs -0.0 are different wire bytes.
  return std::memcmp(a.data() + bounds_[shard], b.data() + bounds_[shard],
                     shard_dim(shard) * sizeof(double)) != 0;
}

}  // namespace asyncml::core
