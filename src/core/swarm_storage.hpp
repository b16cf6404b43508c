/// \file
/// Decoder storage policies for RlncSwarm: how n nodes' decoder state is
/// laid out in memory.
// ag-lint: allow-file(data-arith) -- SoA pool slicing: node id < n_ is asserted and every
// stripe offset is v * fixed-stride into arenas sized n_ * stride at construction.
///
/// RlncSwarm<D, Store> is parameterised over a Store so the same protocol
/// code runs at two very different scales:
///
///   * VectorNodeStore<D> (the default): one self-contained decoder object
///     per node, exactly the pre-policy behaviour.  Right for full decoders
///     (payload arenas, per-node scratch) at the n of the paper's figures.
///
///   * DenseRankStore<F> / BitRankStore: the two aliases of PooledRankStore,
///     a structure-of-arrays pool of rank-only eliminator state
///     (linalg/eliminator.hpp).  ALL nodes' rows live in one arena
///     allocation (n * k * words symbols), pivot maps and rank counters are
///     flat arrays, and scratch is one stripe *per shard* of a
///     ShardPlan (core/shard_plan.hpp): at(v) hands out the stripe of the
///     shard owning v, so the sharded round runner can insert into nodes of
///     different shards concurrently without the stripes aliasing.  The
///     default plan has one shard -- a single stripe for the whole swarm,
///     exactly the serial layout.  At n = 100k, k = 32 over GF(2) the whole
///     swarm's decoder state is ~26 MiB in three allocations instead of
///     ~400k separate heap blocks.
///
/// Store interface consumed by RlncSwarm:
///   Store(n, k, payload_len)      construct n empty decoders
///   at(v) -> D& or ref-view       decoder access (value-semantics views OK)
///   reset(v)                      return node v to the empty-decoder state
///   configure_shards(s)           size the scratch pool for s-way sharding
///   memory_bytes()                decoder-state footprint (for benches)
///
/// Thread-safety: with the default single-shard plan, one swarm is owned by
/// one protocol instance and touched by one run (parallel sweeps use one
/// store per worker).  After configure_shards(s), concurrent access is safe
/// iff each thread only calls at(v)/reset(v) for nodes v of one shard --
/// the contiguous-range discipline core/sharded_round.hpp enforces.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/shard_plan.hpp"
#include "graph/graph.hpp"
#include "linalg/eliminator.hpp"

namespace ag::core {

/// \brief Default storage: a plain vector of self-contained decoders.
template <typename D>
class VectorNodeStore {
 public:
  using decoder_type = D;

  VectorNodeStore(std::size_t n, std::size_t k, std::size_t payload_len)
      : k_(k), payload_len_(payload_len) {
    nodes_.reserve(n);
    for (std::size_t v = 0; v < n; ++v) nodes_.emplace_back(k, payload_len);
  }

  D& at(graph::NodeId v) { return nodes_[v]; }
  const D& at(graph::NodeId v) const { return nodes_[v]; }

  /// Churn/recycle reset: node v restarts with an empty decoder, recycled
  /// in place so it keeps its arena -- what makes the streaming layer's
  /// decode-and-evict pipeline allocation-free in steady state.
  void reset(graph::NodeId v) { nodes_[v].clear(); }

  /// No-op: every decoder object already owns its scratch, so the store is
  /// shard-safe under the contiguous-range discipline as constructed.
  void configure_shards(std::size_t /*shards*/) {}

  /// Rough decoder-state footprint; full decoders reserve their arenas at
  /// full-rank capacity up front, so this is capacity, not current rank.
  std::size_t memory_bytes() const noexcept {
    // Approximation: arena + scratch + pivot map per node.  Exact enough for
    // the bench tables that report footprint ratios.
    return nodes_.size() * (sizeof(D) + k_ * (k_ + payload_len_ + 1) * 8);
  }

 private:
  std::size_t k_;
  std::size_t payload_len_;
  std::vector<D> nodes_;
};

/// \brief Structure-of-arrays pool of rank-only eliminator state over row
/// trait Row (linalg::SymbolRows<F> or linalg::WordRows).
///
/// at(v) returns a linalg::Eliminator view by value -- a thin window onto
/// node v's rows, pivot map and rank counter plus its shard's scratch stripe;
/// RlncSwarm accesses decoders via decltype(auto), so value views and
/// references interoperate.  Rows are unpadded: at k = 32 over GF(2) a
/// node's whole state is 32 words of rows + 32 pivots + 1 rank counter.
template <typename Row>
class PooledRankStore {
 public:
  using value_type = typename Row::value_type;
  using decoder_type = linalg::Eliminator<linalg::OwnedRows<Row, false>>;
  using ref_type = linalg::Eliminator<linalg::PoolView<Row, true>>;
  using const_ref_type = linalg::Eliminator<linalg::PoolView<Row, false>>;

  /// payload_len is accepted for signature compatibility and ignored
  /// (rank-only storage has no payload arena).
  PooledRankStore(std::size_t n, std::size_t k, std::size_t /*payload_len*/ = 0)
      : n_(n), k_(k), words_(Row::words_for(k)),
        arena_(n * k * words_, 0),
        pivot_row_(n * k, linalg::kNoPivot),
        rank_(n, 0),
        plan_(n, 1),
        scratch_(words_, 0) {}

  ref_type at(graph::NodeId v) {
    return ref_type(arena_.data() + row_base(v), pivot_row_.data() + pivot_base(v),
                    rank_.data() + v, scratch_stripe(v), k_);
  }
  /// Const access yields a view without insert(), mirroring how a const
  /// VectorNodeStore yields `const D&`: const swarm access cannot mutate
  /// decoder state behind the completion tracking.  (The scratch stripe it
  /// carries is per-call workspace for contains(), not decoder state.)
  const_ref_type at(graph::NodeId v) const {
    return const_ref_type(arena_.data() + row_base(v), pivot_row_.data() + pivot_base(v),
                          rank_.data() + v, scratch_stripe(v), k_);
  }

  void reset(graph::NodeId v) { at(v).clear(); }

  /// Size the scratch pool for `shards`-way concurrent access: one stripe
  /// per shard of the (n, shards) ShardPlan.  Not safe to call while views
  /// from at() are live (they hold stripe pointers into the old pool).
  void configure_shards(std::size_t shards) {
    plan_ = ShardPlan(n_, shards);
    scratch_.assign(plan_.shard_count() * words_, 0);
  }

  std::size_t memory_bytes() const noexcept {
    return (arena_.size() + scratch_.size()) * sizeof(value_type) +
           (pivot_row_.size() + rank_.size()) * sizeof(std::uint32_t);
  }

 private:
  std::size_t row_base(graph::NodeId v) const noexcept {
    return static_cast<std::size_t>(v) * k_ * words_;
  }
  std::size_t pivot_base(graph::NodeId v) const noexcept {
    return static_cast<std::size_t>(v) * k_;
  }
  value_type* scratch_stripe(graph::NodeId v) const noexcept {
    return scratch_.data() + plan_.shard_of(v) * words_;
  }

  std::size_t n_;
  std::size_t k_;
  std::size_t words_;
  std::vector<value_type> arena_;         // n * k rows of words_ symbols
  std::vector<std::uint32_t> pivot_row_;  // n * k pivot -> row maps
  std::vector<std::uint32_t> rank_;       // n rank counters
  ShardPlan plan_;                        // owner of the stripe <-> node map
  mutable std::vector<value_type> scratch_;  // one stripe per shard
};

/// Pooled DenseRankTracker<F> state.
template <gf::GaloisField F>
using DenseRankStore = PooledRankStore<linalg::SymbolRows<F>>;
/// Pooled BitRankTracker state: the large-n configuration.
using BitRankStore = PooledRankStore<linalg::WordRows>;

}  // namespace ag::core
