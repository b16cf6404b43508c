// Uniform Algebraic Gossip (Section 3).
//
// Each activation, the node draws a partner uniformly at random among its
// current neighbors (Definition 1) and runs PUSH / PULL / EXCHANGE with RLNC
// message content.  Theorem 1: stopping time O((k + log n + D) * Delta)
// rounds in both time models w.h.p.; Theorem 3: Theta(k + D) on
// constant-max-degree graphs (sync).
//
// The protocol queries a sim::TopologyView instead of holding the graph, so
// the same code runs on static graphs (stream-identical to the pre-dynamic
// implementation), scripted/adversarial topology sequences, and node churn
// (rejoined nodes restart from their initial messages).  Message loss is the
// Channel's job (sim/channel.hpp), configured via AgConfig.drop_probability
// or set_channel().
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "core/ag_config.hpp"
#include "core/swarm.hpp"
#include "graph/graph.hpp"
#include "sim/engine.hpp"
#include "sim/mailbox.hpp"
#include "sim/partner.hpp"
#include "sim/topology.hpp"

namespace ag::core {

// Store selects the swarm's decoder storage (core/swarm_storage.hpp): the
// default keeps one decoder object per node; the pooled rank-only stores
// (e.g. UniformAG<linalg::BitRankTracker, BitRankStore>) are what the
// n >= 100k scaling sweeps run on.
template <typename D, typename Store = VectorNodeStore<D>>
class UniformAG
    : public sim::Mailbox<UniformAG<D, Store>, typename D::packet_type> {
  using Base = sim::Mailbox<UniformAG<D, Store>, typename D::packet_type>;
  friend Base;

 public:
  using packet_type = typename D::packet_type;

  // Static-graph constructor (the paper's setting).  `g` must outlive the
  // protocol, exactly like the old `const Graph&` member.
  UniformAG(const graph::Graph& g, const Placement& placement, AgConfig cfg)
      : UniformAG(std::make_unique<sim::StaticTopology>(g), placement, cfg) {}

  // Dynamic-topology constructor: the protocol owns the view and advances it
  // once per round barrier.
  UniformAG(std::unique_ptr<sim::TopologyView> topo, const Placement& placement,
            AgConfig cfg)
      : Base(cfg.time_model, cfg.discard_same_sender_per_round),
        topo_(std::move(topo)),
        cfg_(cfg),
        swarm_(topo_->node_count(), placement, cfg.payload_len),
        selector_(*topo_) {
    if (cfg.drop_probability > 0.0) {
      this->set_drop_probability(cfg.drop_probability, cfg.drop_seed);
    }
  }

  std::size_t node_count() const noexcept { return topo_->node_count(); }
  bool finished() const noexcept { return swarm_.all_complete(); }

  void on_activate(graph::NodeId v, sim::Rng& rng) {
    if (!topo_->alive(v) || topo_->degree(v) == 0) return;
    // BROADCAST: one combination to every current neighbor, no partner draw
    // and no pull -- the same coded packet fans out (recombining per
    // neighbor would cost k draws per edge for no rank benefit).
    if (cfg_.direction == sim::Direction::Broadcast) {
      if (!swarm_.combine_into(v, rng, cfg_.recode, cfg_.coding_density, buf_v_)) return;
      for (const graph::NodeId u : topo_->neighbors(v)) this->send(v, u, buf_v_);
      return;
    }
    const graph::NodeId u = selector_.pick(v, rng);
    // Compute both packets before sending either: the paper's EXCHANGE is a
    // simultaneous swap, so u's reply must not already contain v's packet.
    // Both are built in reusable scratch packets -- the combine/send path
    // allocates nothing in steady state.
    bool have_v = false, have_u = false;
    if (cfg_.direction != sim::Direction::Pull) {
      have_v = swarm_.combine_into(v, rng, cfg_.recode, cfg_.coding_density, buf_v_);
    }
    if (cfg_.direction != sim::Direction::Push) {
      have_u = swarm_.combine_into(u, rng, cfg_.recode, cfg_.coding_density, buf_u_);
    }
    if (have_v) this->send(v, u, buf_v_);
    if (have_u) this->send(u, v, buf_u_);
  }

  void end_round() {
    this->flush_inbox();
    ++round_;
    topo_->advance(round_ + 1);
    for (const graph::NodeId v : topo_->rejoined()) swarm_.reset_node(v, round_);
  }

  const RlncSwarm<D, Store>& swarm() const noexcept { return swarm_; }
  const sim::TopologyView& topology() const noexcept { return *topo_; }
  std::uint64_t rounds_elapsed() const noexcept { return round_; }

  // Total bits put on the wire so far (every coded packet has the fixed size
  // (k + r) log2 q of Section 2).
  double wire_bits() const noexcept {
    return static_cast<double>(this->messages_sent()) *
           D::packet_bits(swarm_.message_count(), cfg_.payload_len);
  }

 private:
  void deliver(graph::NodeId from, graph::NodeId to, const packet_type& pkt) {
    (void)from;
    swarm_.receive(to, pkt, round_);
  }

  std::unique_ptr<sim::TopologyView> topo_;
  AgConfig cfg_;
  RlncSwarm<D, Store> swarm_;
  sim::UniformSelector selector_;
  packet_type buf_v_, buf_u_;  // reusable transmit scratch
  std::uint64_t round_ = 0;
};

}  // namespace ag::core
