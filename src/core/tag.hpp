// TAG: Tree-based Algebraic Gossip (Section 4).
//
// Both phases run simultaneously, interleaved by wakeup parity exactly as in
// the protocol pseudocode:
//   - odd wakeups  -> Phase 1: one step of the spanning-tree gossip protocol
//     S (a policy from stp_policies.hpp);
//   - even wakeups -> Phase 2: if the node has obtained a parent, EXCHANGE
//     algebraic gossip with that fixed parent; idle otherwise.
// A contacted node responds in the phase of the contacting node: Phase-1
// contacts carry S messages, Phase-2 contacts carry RLNC packets (this falls
// out of the message types, mirroring lines 5-9 of the pseudocode).
//
// Theorem 4: t(TAG) = O(k + log n + d(S) + t(S)) rounds, both time models,
// w.h.p.  With a broadcast protocol B as S in the synchronous model:
// O(k + log n + t(B)) (Section 4.1).
//
// Dynamics: Phase 1 selects partners from the TopologyView's current
// neighbor lists (the underlay).  The tree the policy builds is an OVERLAY:
// once a node has a parent, Phase 2 keeps exchanging with it even if the
// underlay edge has meanwhile rotated away -- the tree is control-plane
// state established while the link existed.  Churn is respected on both
// phases: down nodes take no actions, are never picked, and a down parent is
// not contacted; rejoined nodes restart their RLNC state from their initial
// messages (the policy's tree state persists across the outage).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <variant>

#include "core/ag_config.hpp"
#include "core/swarm.hpp"
#include "graph/graph.hpp"
#include "sim/engine.hpp"
#include "sim/mailbox.hpp"
#include "sim/topology.hpp"

namespace ag::core {

template <typename D, typename Policy>
class Tag : public sim::Mailbox<
                Tag<D, Policy>,
                std::variant<typename Policy::message_type, typename D::packet_type>> {
 public:
  using stp_message = typename Policy::message_type;
  using packet_type = typename D::packet_type;
  using message_type = std::variant<stp_message, packet_type>;

 private:
  using Base = sim::Mailbox<Tag<D, Policy>, message_type>;
  friend Base;

 public:
  template <typename... PolicyArgs>
  Tag(const graph::Graph& g, const Placement& placement, AgConfig cfg,
      PolicyArgs&&... policy_args)
      : Tag(std::make_unique<sim::StaticTopology>(g), placement, cfg,
            std::forward<PolicyArgs>(policy_args)...) {}

  template <typename... PolicyArgs>
  Tag(std::unique_ptr<sim::TopologyView> topo, const Placement& placement,
      AgConfig cfg, PolicyArgs&&... policy_args)
      : Base(cfg.time_model, cfg.discard_same_sender_per_round),
        topo_(std::move(topo)),
        swarm_(topo_->node_count(), placement, cfg.payload_len),
        policy_(*topo_, std::forward<PolicyArgs>(policy_args)...),
        wakeups_(topo_->node_count(), 0) {
    if (cfg.drop_probability > 0.0) {
      this->set_drop_probability(cfg.drop_probability, cfg.drop_seed);
    }
  }

  std::size_t node_count() const noexcept { return topo_->node_count(); }
  bool finished() const noexcept { return swarm_.all_complete(); }

  void on_activate(graph::NodeId v, sim::Rng& rng) {
    if (!topo_->alive(v)) return;
    ++wakeups_[v];
    if (wakeups_[v] % 2 == 1) {
      // Phase 1: spanning-tree protocol step.
      policy_.activate(v, rng, [this](graph::NodeId f, graph::NodeId t, auto&& m) {
        ++stp_messages_;
        this->send(f, t, message_type(std::in_place_index<0>,
                                      std::forward<decltype(m)>(m)));
      });
    } else {
      // Phase 2: algebraic gossip EXCHANGE with the fixed parent, once known
      // and currently alive.  The packets are built directly inside two
      // reusable variant buffers (kept holding the packet alternative so
      // their heap capacity survives), computed before either send -- a
      // simultaneous swap.
      if (!policy_.has_parent(v)) return;
      const graph::NodeId p = policy_.parent(v);
      if (!topo_->alive(p)) return;
      const bool have_v = swarm_.combine_into(v, rng, packet_buf(msg_buf_v_));
      const bool have_p = swarm_.combine_into(p, rng, packet_buf(msg_buf_p_));
      if (have_v) {
        ++ag_messages_;
        this->send(v, p, msg_buf_v_);
      }
      if (have_p) {
        ++ag_messages_;
        this->send(p, v, msg_buf_p_);
      }
    }
  }

  void end_round() {
    this->flush_inbox();
    ++round_;
    if (tree_complete_round_ == kNever && policy_.tree_complete()) {
      tree_complete_round_ = round_;
    }
    topo_->advance(round_ + 1);
    for (const graph::NodeId v : topo_->rejoined()) swarm_.reset_node(v, round_);
  }

  const RlncSwarm<D>& swarm() const noexcept { return swarm_; }
  const Policy& policy() const noexcept { return policy_; }
  const sim::TopologyView& topology() const noexcept { return *topo_; }

  static constexpr std::uint64_t kNever = ~std::uint64_t{0};
  // t(S) as observed inside this TAG run (in TAG rounds, which include the
  // Phase-2 interleaving; the paper's t(S) counts S-only rounds, a factor
  // <= 2 difference absorbed by the O()).
  std::uint64_t tree_complete_round() const noexcept { return tree_complete_round_; }

  std::uint64_t stp_messages() const noexcept { return stp_messages_; }
  std::uint64_t ag_messages() const noexcept { return ag_messages_; }

  // Total bits on the wire: Phase-1 messages at the policy's size plus
  // Phase-2 coded packets at (k + r) log2 q.
  double wire_bits() const {
    return static_cast<double>(stp_messages_) * policy_.message_bits() +
           static_cast<double>(ag_messages_) *
               D::packet_bits(swarm_.message_count(), swarm_.node(0).payload_length());
  }

 private:
  void deliver(graph::NodeId from, graph::NodeId to, const message_type& msg) {
    if (msg.index() == 0) {
      policy_.on_message(from, to, std::get<0>(msg));
    } else {
      swarm_.receive(to, std::get<1>(msg), round_);
    }
  }

  // Returns the packet alternative of a scratch variant, switching the
  // variant to it (once) if it currently holds the Phase-1 alternative.
  static packet_type& packet_buf(message_type& m) {
    if (m.index() != 1) m.template emplace<1>();
    return std::get<1>(m);
  }

  std::unique_ptr<sim::TopologyView> topo_;
  RlncSwarm<D> swarm_;
  Policy policy_;
  message_type msg_buf_v_{std::in_place_index<1>};  // reusable Phase-2 scratch
  message_type msg_buf_p_{std::in_place_index<1>};
  std::vector<std::uint64_t> wakeups_;
  std::uint64_t round_ = 0;
  std::uint64_t tree_complete_round_ = kNever;
  std::uint64_t stp_messages_ = 0;
  std::uint64_t ag_messages_ = 0;
};

}  // namespace ag::core
