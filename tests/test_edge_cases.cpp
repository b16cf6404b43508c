// Edge-case and failure-mode tests across modules: degenerate sizes, insert
// after full rank, payload-free decoders, empty/singleton graphs and trees,
// engine with trivial protocols, and misuse rejection.
#include <gtest/gtest.h>

#include <vector>

#include "core/decoders.hpp"
#include "core/dissemination.hpp"
#include "core/stp_policies.hpp"
#include "core/stp_protocol.hpp"
#include "core/tag.hpp"
#include "core/uniform_ag.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "linalg/eliminator.hpp"
#include "sim/engine.hpp"

namespace {

using namespace ag;
using namespace ag::core;

TEST(DecoderEdgeTest, InsertAfterFullRankIsNeverHelpful) {
  sim::Rng rng(61);
  Gf256Decoder d(4, 2);
  for (std::size_t i = 0; i < 4; ++i) d.insert(d.unit_packet(i));
  ASSERT_TRUE(d.full_rank());
  for (int t = 0; t < 50; ++t) {
    Gf256Decoder::packet_type pkt;
    pkt.coeffs.resize(4);
    for (auto& c : pkt.coeffs) c = static_cast<std::uint8_t>(rng.uniform(256));
    pkt.payload.assign(2, 0);
    EXPECT_FALSE(d.insert(pkt));
  }
  EXPECT_EQ(d.rank(), 4u);
}

TEST(DecoderEdgeTest, KEqualsOne) {
  Gf256Decoder d(1, 3);
  EXPECT_FALSE(d.full_rank());
  std::vector<std::uint8_t> payload{9, 8, 7};
  EXPECT_TRUE(d.insert(d.unit_packet(0, payload)));
  EXPECT_TRUE(d.full_rank());
  EXPECT_EQ(d.decoded_message(0)[2], 7);
}

TEST(DecoderEdgeTest, PayloadFreeDecoderDecodesToEmpty) {
  Gf256Decoder d(3, 0);
  for (std::size_t i = 0; i < 3; ++i) d.insert(d.unit_packet(i));
  ASSERT_TRUE(d.full_rank());
  EXPECT_TRUE(d.decoded_message(1).empty());
}

TEST(DecoderEdgeTest, BitDecoderExactWordBoundaries) {
  for (const std::size_t k : {63u, 64u, 65u, 127u, 128u, 129u}) {
    linalg::BitDecoder d(k, 1);
    for (std::size_t i = 0; i < k; ++i) {
      ASSERT_TRUE(d.insert(d.unit_packet(i, std::vector<std::uint64_t>{i})))
          << "k=" << k << " i=" << i;
    }
    ASSERT_TRUE(d.full_rank()) << "k=" << k;
    for (std::size_t i = 0; i < k; ++i) EXPECT_EQ(d.decoded_message(i)[0], i);
  }
}

TEST(DecoderEdgeTest, AdversarialInsertOrderStillRref) {
  // Insert rows engineered to chain-eliminate: e0+e1, e1+e2, ..., then unit
  // rows in reverse; decode must still be exact.
  const std::size_t k = 16;
  linalg::BitDecoder d(k, 1);
  auto unit = [&](std::size_t i) {
    return d.unit_packet(i, std::vector<std::uint64_t>{100 + i});
  };
  for (std::size_t i = 0; i + 1 < k; ++i) {
    auto p = unit(i);
    const auto q = unit(i + 1);
    for (std::size_t w = 0; w < p.coeffs.size(); ++w) p.coeffs[w] ^= q.coeffs[w];
    p.payload[0] ^= q.payload[0];
    ASSERT_TRUE(d.insert(p));
  }
  ASSERT_TRUE(d.insert(unit(k - 1)));
  ASSERT_TRUE(d.full_rank());
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_EQ(d.decoded_message(i)[0], 100 + i) << i;
  }
}

TEST(GraphEdgeTest, SingletonAndTinyGraphs) {
  const graph::Graph g1(1);
  EXPECT_TRUE(graph::is_connected(g1));
  EXPECT_EQ(graph::diameter(g1), 0u);
  const auto p2 = graph::make_path(2);
  EXPECT_EQ(graph::diameter(p2), 1u);
  const auto t = graph::bfs_tree(p2, 1);
  EXPECT_TRUE(t.is_complete());
  EXPECT_EQ(t.parent(0), 1u);
}

TEST(ProtocolEdgeTest, SingleMessageSingleNodeIsInstantlyDone) {
  const graph::Graph g(1);
  sim::Rng rng(62);
  AgConfig cfg;
  UniformAG<Gf256Decoder> proto(g, single_source(1, 0), cfg);
  EXPECT_TRUE(proto.finished());
  const auto res = sim::run(proto, rng, 10);
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.rounds, 0u);
}

TEST(ProtocolEdgeTest, TwoNodesOneMessage) {
  const auto g = graph::make_path(2);
  sim::Rng rng(63);
  AgConfig cfg;
  cfg.payload_len = 1;
  UniformAG<Gf256Decoder> proto(g, single_source(1, 0), cfg);
  const auto res = sim::run(proto, rng, 100);
  ASSERT_TRUE(res.completed);
  EXPECT_LE(res.rounds, 3u);
  EXPECT_TRUE(proto.swarm().decodes_correctly(1, 0));
}

TEST(ProtocolEdgeTest, KEqualsNOnCompleteTwoNodes) {
  const auto g = graph::make_complete(2);
  sim::Rng rng(64);
  AgConfig cfg;
  UniformAG<Gf2Decoder> proto(g, all_to_all(2), cfg);
  const auto res = sim::run(proto, rng, 1000);
  EXPECT_TRUE(res.completed);
}

TEST(ProtocolEdgeTest, TagOnTinyStar) {
  const auto g = graph::make_star(3);
  sim::Rng rng(65);
  AgConfig cfg;
  BroadcastStpConfig stp;
  Tag<Gf256Decoder, BroadcastStpPolicy> proto(g, all_to_all(3), cfg, stp, rng);
  const auto res = sim::run(proto, rng, 10000);
  EXPECT_TRUE(res.completed);
  EXPECT_TRUE(proto.policy().tree_complete());
}

TEST(ProtocolEdgeTest, IsPolicyOnTwoNodes) {
  const auto g = graph::make_path(2);
  sim::Rng rng(66);
  IsStpConfig cfg;
  StpProtocol<IsStpPolicy> proto(sim::TimeModel::Synchronous, g, cfg, rng);
  const auto res = sim::run(proto, rng, 100);
  ASSERT_TRUE(res.completed);
  EXPECT_TRUE(proto.policy().tree_complete());
  EXPECT_EQ(proto.policy().parent(1), 0u);
}

TEST(PlacementEdgeTest, ZeroPayloadAndFullPlacementCoverage) {
  sim::Rng rng(67);
  // k == n distinct placement is a permutation.
  const auto p = uniform_distinct(8, 8, rng);
  std::vector<char> seen(8, 0);
  for (auto v : p.owner) seen[v] = 1;
  for (char s : seen) EXPECT_TRUE(s);
}

TEST(EngineEdgeTest, ZeroNodesAndAlreadyFinished) {
  struct Trivial {
    std::size_t node_count() const { return 0; }
    sim::TimeModel time_model() const { return sim::TimeModel::Synchronous; }
    void on_activate(graph::NodeId, sim::Rng&) {}
    void end_round() {}
    bool finished() const { return false; }
  };
  Trivial t;
  sim::Rng rng(68);
  const auto res = sim::run(t, rng, 100);
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.rounds, 0u);
}

TEST(SwarmEdgeTest, ExpectedPayloadIsDeterministic) {
  const auto a = RlncSwarm<Gf256Decoder>::expected_payload(5, 16);
  const auto b = RlncSwarm<Gf256Decoder>::expected_payload(5, 16);
  EXPECT_EQ(a, b);
  const auto c = RlncSwarm<Gf256Decoder>::expected_payload(6, 16);
  EXPECT_NE(a, c);
}

TEST(SwarmEdgeTest, HelpfulAndUselessCountsAdvance) {
  const auto g = graph::make_complete(6);
  sim::Rng rng(69);
  AgConfig cfg;
  UniformAG<Gf256Decoder> proto(g, all_to_all(6), cfg);
  sim::run(proto, rng, 10000);
  // Everyone reaches rank 6 from rank 1: exactly 5 helpful receives per node.
  EXPECT_EQ(proto.swarm().helpful_receives(), 6u * 5u);
  EXPECT_GT(proto.swarm().useless_receives(), 0u);
}

}  // namespace
