#pragma once

// Adaptive gradient accumulator: sparse until it isn't.
//
// Mini-batch gradients of linear models over sparse data have support equal
// to the union of the batch rows' feature indices — usually a tiny fraction
// of `dim` for rcv1-like workloads.  A GradVector accumulates `axpy` of rows
// into an index-keyed open-addressing table and automatically densifies once
// the accumulated nnz crosses `densify_threshold * dim`, so dense workloads
// (and saturated sparse ones) pay dense-scatter costs while sparse ones ship
// and combine O(nnz) data.  `size_bytes()` reports the exact wire size of the
// current representation (the engine charges transfer time from it):
//
//   sparse: u64 nnz header + nnz x (u32 index, f64 value)  = 8 + 12*nnz
//   dense:  dim x f64                                      = 8*dim
//
// Determinism contract: for a fixed per-coordinate order of accumulated
// terms, sparse and dense modes produce bit-identical per-coordinate sums —
// each coordinate's partial sum is updated once per contributing term in
// visit order regardless of representation, so solver trajectories do not
// depend on the representation choice.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "linalg/dense_vector.hpp"
#include "linalg/sparse.hpp"
#include "support/aligned.hpp"

namespace asyncml::linalg {

/// Default nnz/dim ratio at which a sparse accumulator densifies.  Wire
/// break-even is 2/3 (12 bytes/entry sparse vs 8 dense), but *compute*
/// crosses over far earlier: measured on the accumulate micro bench, hash
/// upserts beat dense scatter+zero+apply only below ~12% occupancy — above
/// it the table walk costs more than the O(dim) passes it avoids
/// (bench_results/micro_grad_accumulate.csv; the old 0.25 default left a
/// 2.5x regression at 1% cell density, whose 16-row batch union is ~15%).
/// 1/8 keeps adaptive compute within ~1.2x of dense at every density while
/// sparse-regime workloads (rcv1-like, batch unions of a few percent) keep
/// their order-of-magnitude wire win.
inline constexpr double kDefaultDensifyThreshold = 0.125;

/// Representation policy a solver config chooses.
enum class GradMode {
  kAuto,    ///< start sparse for sparse datasets, dense otherwise
  kDense,   ///< always start dense (the pre-GradVector behaviour)
  kSparse,  ///< always start sparse (still densifies past the threshold)
};

struct GradVectorConfig {
  std::size_t dim = 0;
  double densify_threshold = kDefaultDensifyThreshold;
  bool start_dense = false;
  /// Expected accumulated nnz of one mini-batch (the batch-union support).
  /// When nonzero, the sparse table pre-sizes to hold it at ≤1/2 load on
  /// first use instead of growing through a rehash chain from 32 slots —
  /// the fix for the mid-density compute regression where rehashing, not
  /// probing, dominated (bench_micro_grad_accumulate @ density 0.01).
  /// Purely a performance hint: values and representation are unchanged.
  std::size_t expected_nnz = 0;

  GradVectorConfig() = default;
  // Explicit on purpose: a bare dimension silently defaulting to a
  // representation is the same footgun as Payload::wrap's sizeof default —
  // callers must spell out (or resolve) their density opinion.
  explicit GradVectorConfig(std::size_t dimension) : dim(dimension) {}
  GradVectorConfig(std::size_t dimension, double threshold, bool dense_start)
      : dim(dimension), densify_threshold(threshold), start_dense(dense_start) {}
};

/// Expected support fraction of a gradient summed over `batch_rows` rows of
/// per-cell density `density`: 1 − (1 − density)^batch_rows.  This — not the
/// raw dataset density — is what decides whether a batch accumulator
/// saturates, so it is the quantity kAuto should be fed.
[[nodiscard]] double expected_union_density(double density, double batch_rows);

/// Resolves a (mode, density) pair into a concrete config: kAuto starts
/// dense once `density` (ideally the expected_union_density of one task's
/// mini-batch) reaches the densify threshold — below it the sparse phase
/// pays off in both bytes and combine cost.
[[nodiscard]] GradVectorConfig resolve_grad_config(
    GradMode mode, std::size_t dim, double density,
    double densify_threshold = kDefaultDensifyThreshold);

class GradVector {
 public:
  GradVector() = default;
  explicit GradVector(const GradVectorConfig& config) { ensure(config); }

  /// Adopts `config` when unconfigured; no-op otherwise.  Seq operators call
  /// this so default-constructed accumulator zeros self-configure.
  void ensure(const GradVectorConfig& config) {
    if (cfg_.dim != 0 || config.dim == 0) return;
    cfg_ = config;
    dense_mode_ = cfg_.start_dense;
  }

  [[nodiscard]] bool configured() const noexcept { return cfg_.dim != 0; }
  [[nodiscard]] const GradVectorConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::size_t dim() const noexcept { return cfg_.dim; }
  [[nodiscard]] bool is_dense() const noexcept { return dense_mode_; }

  /// Stored entries: table occupancy when sparse, `dim` once dense storage
  /// exists (a dense representation ships every coordinate regardless of
  /// value; an untouched dense accumulator holds — and ships — nothing).
  [[nodiscard]] std::size_t nnz() const noexcept {
    return dense_mode_ ? (dense_.empty() ? 0 : cfg_.dim) : nnz_;
  }

  /// this += a * x for a sparse row (the hot accumulation path).
  void axpy(double a, const SparseRowView& x) {
    assert(configured() && "GradVector::axpy before ensure()");
    if (dense_mode_) {
      double* d = touch_dense();
      for (std::size_t k = 0; k < x.indices.size(); ++k) {
        d[x.indices[k]] += a * x.values[k];
      }
      return;
    }
    if (keys_.empty()) init_table();
    for (std::size_t k = 0; k < x.indices.size(); ++k) {
      sparse_add(x.indices[k], a * x.values[k]);
    }
    maybe_densify();
  }

  /// this += a * x for a dense row: the support is (assumed) full, so this
  /// densifies immediately.
  void axpy(double a, std::span<const double> x);

  /// Adopts `v` as the dense value (bit-for-bit copy, dense mode).  The
  /// batch kernels accumulate dense-mode gradients in a reusable scratch
  /// buffer and publish the result through this; the copy is the modeled
  /// serialize step, and the bits equal a per-row dense accumulation.
  void assign_dense(std::span<const double> v);

  /// this += other (the combine kernel).  An unconfigured accumulator adopts
  /// `other` wholesale; mixed representations densify this side.
  void add(const GradVector& other);

  /// Sets coordinate `index` to `value` (insert-or-overwrite).  Unlike axpy
  /// this does not accumulate — it is the sparse-assignment primitive the
  /// delta-versioned model store builds overwrite deltas from.
  void set(std::uint32_t index, double value);

  /// y += a * this (the apply-update kernel); y.size() must equal dim.
  void scale_into(double a, std::span<double> y) const;

  /// y[i] = value for every stored entry (sparse overwrite — the delta-apply
  /// kernel; untouched coordinates of y keep their current values when the
  /// representation is sparse).  A dense representation assigns all of y.
  void overwrite_into(std::span<double> y) const;

  /// Materializes the dense equivalent (dim-sized).
  [[nodiscard]] DenseVector to_dense() const;

  /// Single-coordinate read (tests / cold paths: O(probe) when sparse).
  [[nodiscard]] double value_at(std::size_t i) const;

  /// Exact modeled wire size of the current representation.  An accumulator
  /// with no entries ships nothing, matching the pre-GradVector empty-batch
  /// payload (a never-resized DenseVector).
  [[nodiscard]] std::size_t size_bytes() const noexcept {
    if (nnz() == 0) return 0;
    return dense_mode_ ? cfg_.dim * sizeof(double)
                       : sizeof(std::uint64_t) +
                             nnz_ * (sizeof(std::uint32_t) + sizeof(double));
  }

  /// Clears all entries and reverts to the configured start representation
  /// (buffers are retained for reuse across mini-batches).
  void set_zero();

  /// Invokes f(index, value) for every stored entry.  Sparse iteration order
  /// is unspecified; each index appears at most once.
  template <typename F>
  void for_each(F&& f) const {
    if (dense_mode_) {
      for (std::size_t i = 0; i < dense_.size(); ++i) {
        f(static_cast<std::uint32_t>(i), dense_[i]);
      }
      return;
    }
    for (std::size_t s = 0; s < keys_.size(); ++s) {
      if (keys_[s] != kEmptyKey) f(keys_[s], vals_[s]);
    }
  }

 private:
  static constexpr std::uint32_t kEmptyKey = 0xFFFFFFFFu;
  static constexpr std::size_t kInitialSlots = 32;

  [[nodiscard]] static std::size_t hash(std::uint32_t key) noexcept {
    // Fibonacci multiplicative hash; the table masks the high bits down.
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ull) >> 32);
  }

  /// Probe for `key`, inserting a zero-valued entry (growing the table as
  /// needed) when absent; returns the slot holding the entry. Sparse mode
  /// with an initialized table only.
  std::size_t upsert_slot(std::uint32_t key) {
    while (true) {
      std::size_t slot = hash(key) & mask_;
      while (keys_[slot] != key && keys_[slot] != kEmptyKey) {
        slot = (slot + 1) & mask_;
      }
      if (keys_[slot] == key) return slot;
      keys_[slot] = key;
      vals_[slot] = 0.0;
      ++nnz_;
      if (nnz_ * 8 < keys_.size() * 5) return slot;  // keep load under 5/8
      grow();  // slots moved; re-probe (the key is present now)
    }
  }

  void sparse_add(std::uint32_t key, double delta) { vals_[upsert_slot(key)] += delta; }

  void maybe_densify() {
    if (static_cast<double>(nnz_) >
        cfg_.densify_threshold * static_cast<double>(cfg_.dim)) {
      densify();
    }
  }

  /// Lazily allocates dense storage (dense_mode_ with an empty buffer means
  /// "all zeros"), returning the data pointer.
  double* touch_dense();

  void init_table();
  void grow();
  void densify();

  GradVectorConfig cfg_;
  bool dense_mode_ = false;
  // Dense representation (empty = all zeros when dense_mode_); aligned so
  // dense-mode accumulation and apply run the vector kernels at full speed.
  support::AlignedVector<double> dense_;
  // Sparse open-addressing table: parallel key/value arrays, linear probing,
  // power-of-two capacity.
  std::vector<std::uint32_t> keys_;
  std::vector<double> vals_;
  std::size_t nnz_ = 0;
  std::size_t mask_ = 0;
};

}  // namespace asyncml::linalg
