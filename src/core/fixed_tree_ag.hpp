// Algebraic gossip on a tree with the partner fixed to the parent (Lemma 1):
// every node EXCHANGEs with its tree parent on activation; the root initiates
// nothing but answers within its children's exchanges.  Stopping time
// O(k + log n + l_max) rounds in both time models w.h.p.
//
// This is exactly TAG Phase 2 run in isolation on an already-built tree; TAG
// itself interleaves it with the spanning-tree protocol.
//
// The tree is an overlay (see tag.hpp): exchanges follow the fixed parent
// pointers regardless of the underlay's current edges.  An optional
// TopologyView supplies liveness: down nodes take no actions and are not
// contacted, and rejoined nodes restart from their initial messages.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "core/ag_config.hpp"
#include "core/swarm.hpp"
#include "graph/spanning_tree.hpp"
#include "sim/engine.hpp"
#include "sim/mailbox.hpp"
#include "sim/topology.hpp"

namespace ag::core {

template <typename D>
class FixedTreeAG
    : public sim::Mailbox<FixedTreeAG<D>, typename D::packet_type> {
  using Base = sim::Mailbox<FixedTreeAG<D>, typename D::packet_type>;
  friend Base;

 public:
  using packet_type = typename D::packet_type;

  FixedTreeAG(const graph::SpanningTree& tree, const Placement& placement, AgConfig cfg)
      : FixedTreeAG(tree, nullptr, placement, cfg) {}

  // `topo`, when non-null, provides node liveness (churn); it may be null
  // for the static setting.  Its node count must match the tree's.
  FixedTreeAG(const graph::SpanningTree& tree, std::unique_ptr<sim::TopologyView> topo,
              const Placement& placement, AgConfig cfg)
      : Base(cfg.time_model, cfg.discard_same_sender_per_round),
        tree_(&tree),
        topo_(std::move(topo)),
        swarm_(tree.node_count(), placement, cfg.payload_len) {
    if (cfg.drop_probability > 0.0) {
      this->set_drop_probability(cfg.drop_probability, cfg.drop_seed);
    }
  }

  std::size_t node_count() const noexcept { return tree_->node_count(); }
  bool finished() const noexcept { return swarm_.all_complete(); }

  void on_activate(graph::NodeId v, sim::Rng& rng) {
    if (!tree_->has_parent(v)) return;  // root: passive
    const graph::NodeId p = tree_->parent(v);
    if (topo_ && (!topo_->alive(v) || !topo_->alive(p))) return;
    // EXCHANGE: both packets built (in reusable scratch) before either send.
    const bool have_v = swarm_.combine_into(v, rng, buf_v_);
    const bool have_p = swarm_.combine_into(p, rng, buf_p_);
    if (have_v) this->send(v, p, buf_v_);
    if (have_p) this->send(p, v, buf_p_);
  }

  void end_round() {
    this->flush_inbox();
    ++round_;
    if (topo_) {
      topo_->advance(round_ + 1);
      for (const graph::NodeId v : topo_->rejoined()) swarm_.reset_node(v, round_);
    }
  }

  const RlncSwarm<D>& swarm() const noexcept { return swarm_; }

 private:
  void deliver(graph::NodeId /*from*/, graph::NodeId to, const packet_type& pkt) {
    swarm_.receive(to, pkt, round_);
  }

  const graph::SpanningTree* tree_;
  std::unique_ptr<sim::TopologyView> topo_;  // liveness only; may be null
  RlncSwarm<D> swarm_;
  packet_type buf_v_, buf_p_;  // reusable transmit scratch
  std::uint64_t round_ = 0;
};

}  // namespace ag::core
