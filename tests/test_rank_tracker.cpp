// Rank-only tracker tests: the scaling path must be indistinguishable from
// the full decoders everywhere it claims to be.
//
//   * Differential fuzz: DenseRankTracker<F> / BitRankTracker fed the exact
//     packet sequence of a DenseDecoder<F> / BitDecoder must agree on every
//     insert verdict, rank, and contains() answer (the payload is the ONLY
//     thing a rank tracker drops).
//   * Combination-stream identity: the transmit rules must consume the RNG
//     identically (same draws, same coefficient output) -- this is what
//     makes whole protocol runs match round for round.  The GF(2) rule is
//     also pinned to a test-local reference at ranks around the 64-row
//     draw batches.
//   * Pooled storage: the structure-of-arrays stores (swarm_storage.hpp)
//     must behave exactly like per-node tracker objects, including churn
//     resets.
//   * Recycling: every decoder cleared mid-sequence (clear() on the four
//     owning aliases, reset(v) on both pooled stores) must from then on be
//     indistinguishable from a freshly constructed one -- same verdicts,
//     ranks and combination streams.
//   * Golden-trace rerun: the pinned pre-refactor stopping-round vectors of
//     test_golden_traces must be reproduced by rank-only swarms -- including
//     a payload-carrying GF(256) config, because rank evolution is payload-
//     independent.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "core/decoders.hpp"
#include "core/dissemination.hpp"
#include "core/experiment.hpp"
#include "core/parallel_experiment.hpp"
#include "core/swarm_storage.hpp"
#include "core/uniform_ag.hpp"
#include "gf/gf2.hpp"
#include "gf/gf2m.hpp"
#include "graph/generators.hpp"
#include "linalg/decoder_concept.hpp"
#include "linalg/eliminator.hpp"
#include "linalg/rank_tracker.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "util/urbg.hpp"

namespace {

using namespace ag;

static_assert(linalg::RlncDecoder<linalg::DenseRankTracker<gf::GF2>>);
static_assert(linalg::RlncDecoder<linalg::DenseRankTracker<gf::GF256>>);
static_assert(linalg::RlncDecoder<linalg::BitRankTracker>);

// ---------------------------------------------------------------------------
// Differential fuzz vs the full dense decoder.
// ---------------------------------------------------------------------------

template <gf::GaloisField F>
std::vector<typename F::value_type> random_coeffs(std::size_t k, sim::Rng& rng,
                                                  std::vector<std::vector<typename F::value_type>>& sent) {
  std::vector<typename F::value_type> c(k, F::zero);
  const auto kind = util::uniform_below(rng, 4);
  if (kind == 0 && !sent.empty()) {
    c = sent[util::uniform_below(rng, sent.size())];  // duplicate
  } else if (kind == 1 && sent.size() >= 2) {
    for (const auto& s : sent) {  // dependent combination
      const auto w = static_cast<typename F::value_type>(util::uniform_below(rng, F::order));
      if (w == F::zero) continue;
      for (std::size_t i = 0; i < k; ++i) c[i] = F::add(c[i], F::mul(w, s[i]));
    }
  } else {
    for (std::size_t i = 0; i < k; ++i) {
      c[i] = static_cast<typename F::value_type>(util::uniform_below(rng, F::order));
    }
  }
  sent.push_back(c);
  return c;
}

// Every transmit rule of `a` and `b` must emit the same packets (payload
// included) and leave the same RNG state.
template <typename A, typename B>
void expect_same_streams(const A& a, const B& b, std::uint64_t seed) {
  sim::Rng ra(seed), rb(seed);
  for (int trial = 0; trial < 20; ++trial) {
    typename A::packet_type pa;
    typename B::packet_type pb;
    ASSERT_EQ(a.random_combination_into(ra, pa), b.random_combination_into(rb, pb));
    EXPECT_EQ(pa.coeffs, pb.coeffs) << trial;
    EXPECT_EQ(pa.payload, pb.payload) << trial;
    ASSERT_EQ(a.random_combination_into(ra, 0.4, pa),
              b.random_combination_into(rb, 0.4, pb));
    EXPECT_EQ(pa.coeffs, pb.coeffs) << trial;
    EXPECT_EQ(pa.payload, pb.payload) << trial;
    ASSERT_EQ(a.random_stored_row_into(ra, pa), b.random_stored_row_into(rb, pb));
    EXPECT_EQ(pa.coeffs, pb.coeffs) << trial;
    EXPECT_EQ(pa.payload, pb.payload) << trial;
    ASSERT_EQ(ra(), rb()) << "RNG streams diverged at " << trial;
  }
}

// Also a recycle check: halfway through, `full` and `tracker` are cleared
// and from then on must match a fresh decoder and a fresh tracker fed only
// the rest of the sequence.  Payloads are random so stale payload symbols
// left in the recycled arena would show.
template <gf::GaloisField F>
void run_dense_differential(std::uint64_t seed, std::size_t k, std::size_t payload_len,
                            std::size_t rounds) {
  sim::Rng rng(seed);
  sim::Rng payload_rng(seed ^ 0xF00Du);
  linalg::DenseDecoder<F> full(k, payload_len), fresh_full(k, payload_len);
  linalg::DenseRankTracker<F> tracker(k, payload_len), fresh_tracker(k, payload_len);
  std::vector<std::vector<typename F::value_type>> sent;
  const std::size_t clear_at = rounds / 2;

  for (std::size_t step = 0; step < rounds; ++step) {
    if (step == clear_at) {
      full.clear();
      tracker.clear();
      ASSERT_EQ(full.rank(), 0u);
      ASSERT_EQ(tracker.rank(), 0u);
    }
    const auto c = random_coeffs<F>(k, rng, sent);
    ASSERT_EQ(tracker.contains(c), full.contains(c)) << "step " << step;
    if (step >= clear_at) {
      ASSERT_EQ(fresh_full.contains(c), full.contains(c)) << "step " << step;
    }

    linalg::DensePacket<F> pkt;
    pkt.coeffs = c;
    for (std::size_t j = 0; j < payload_len; ++j) {  // the tracker must ignore it
      const auto sym = util::uniform_below(payload_rng, F::order);
      pkt.payload.push_back(static_cast<typename F::value_type>(sym));
    }
    const bool fv = full.insert(pkt);
    const bool tv = tracker.insert(pkt);
    ASSERT_EQ(tv, fv) << "insert verdict diverged at step " << step;
    ASSERT_EQ(tracker.rank(), full.rank()) << "rank diverged at step " << step;
    ASSERT_EQ(tracker.full_rank(), full.full_rank());
    if (step >= clear_at) {
      ASSERT_EQ(fresh_full.insert(pkt), fv) << "recycled decoder diverged at " << step;
      ASSERT_EQ(fresh_tracker.insert(pkt), tv) << "recycled tracker diverged at " << step;
      ASSERT_EQ(fresh_full.rank(), full.rank());
    }
  }
  expect_same_streams(full, fresh_full, seed + 1);
  expect_same_streams(tracker, fresh_tracker, seed + 2);
  if (full.full_rank()) {
    for (std::size_t i = 0; i < k; ++i) {
      const auto a = full.decoded_message(i);
      const auto b = fresh_full.decoded_message(i);
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << "message " << i;
    }
  }
}

TEST(RankTracker, DifferentialVsDenseGf2) { run_dense_differential<gf::GF2>(11, 24, 3, 200); }
TEST(RankTracker, DifferentialVsDenseGf16) { run_dense_differential<gf::GF16>(12, 16, 2, 150); }
TEST(RankTracker, DifferentialVsDenseGf256) { run_dense_differential<gf::GF256>(13, 20, 4, 150); }
TEST(RankTracker, DifferentialVsDenseGf65536) { run_dense_differential<gf::GF65536>(14, 12, 2, 100); }

TEST(RankTracker, DifferentialVsBitDecoder) {
  const std::size_t k = 70;  // > 64: exercises multi-word rows
  sim::Rng rng(21);
  linalg::BitDecoder full(k, 2), fresh_full(k, 2);
  linalg::BitRankTracker tracker(k, 2), fresh_tracker(k, 2);
  const std::size_t words = linalg::BitDecoder::words_for(k);
  std::vector<std::vector<std::uint64_t>> sent;
  constexpr std::size_t kClearAt = 200;  // recycle both, then match fresh ones

  for (std::size_t step = 0; step < 400; ++step) {
    if (step == kClearAt) {
      full.clear();
      tracker.clear();
    }
    std::vector<std::uint64_t> c(words, 0);
    const auto kind = util::uniform_below(rng, 3);
    if (kind == 0 && !sent.empty()) {
      c = sent[util::uniform_below(rng, sent.size())];
    } else {
      for (auto& w : c) w = util::random_bits(rng, 64);
      c[words - 1] &= (k % 64) ? ((std::uint64_t{1} << (k % 64)) - 1) : ~std::uint64_t{0};
    }
    sent.push_back(c);
    ASSERT_EQ(tracker.contains(c), full.contains(c)) << "step " << step;

    linalg::BitPacket pkt;
    pkt.coeffs = c;
    pkt.payload.assign(2, 0xDEADBEEFu ^ step);  // tracker must ignore it
    const bool fv = full.insert(pkt);
    ASSERT_EQ(tracker.insert(pkt), fv) << "step " << step;
    ASSERT_EQ(tracker.rank(), full.rank()) << "step " << step;
    if (step >= kClearAt) {
      ASSERT_EQ(fresh_full.insert(pkt), fv) << "recycled decoder diverged at " << step;
      ASSERT_EQ(fresh_tracker.insert(pkt), fv) << "recycled tracker diverged at " << step;
      ASSERT_EQ(fresh_full.rank(), full.rank());
    }
  }
  ASSERT_TRUE(full.full_rank());
  expect_same_streams(full, fresh_full, 22);
  expect_same_streams(tracker, fresh_tracker, 23);
  for (std::size_t i = 0; i < k; ++i) {
    const auto a = full.decoded_message(i);
    const auto b = fresh_full.decoded_message(i);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << "message " << i;
  }
}

// ---------------------------------------------------------------------------
// Combination-stream identity: same draws, same coefficients, same RNG state.
// ---------------------------------------------------------------------------

TEST(RankTracker, DenseCombinationStreamMatchesFullDecoder) {
  const std::size_t k = 12;
  sim::Rng rng(31);
  linalg::DenseDecoder<gf::GF256> full(k, 5);
  linalg::DenseRankTracker<gf::GF256> tracker(k);
  std::vector<std::vector<std::uint8_t>> sent;
  for (int i = 0; i < 8; ++i) {
    const auto c = random_coeffs<gf::GF256>(k, rng, sent);
    linalg::DensePacket<gf::GF256> pkt;
    pkt.coeffs = c;
    full.insert(pkt);
    tracker.insert(pkt);
  }
  ASSERT_EQ(tracker.rank(), full.rank());

  sim::Rng ra(77), rb(77);
  for (int trial = 0; trial < 50; ++trial) {
    linalg::DensePacket<gf::GF256> pa, pb;
    ASSERT_EQ(full.random_combination_into(ra, pa),
              tracker.random_combination_into(rb, pb));
    EXPECT_EQ(pa.coeffs, pb.coeffs);
    // Identical residual streams: the payload axpys draw nothing.
    ASSERT_EQ(ra(), rb()) << "RNG streams diverged after combination " << trial;
  }
  // Density and stored-row variants too.
  for (int trial = 0; trial < 50; ++trial) {
    linalg::DensePacket<gf::GF256> pa, pb;
    ASSERT_EQ(full.random_combination_into(ra, 0.4, pa),
              tracker.random_combination_into(rb, 0.4, pb));
    EXPECT_EQ(pa.coeffs, pb.coeffs);
    ASSERT_EQ(full.random_stored_row_into(ra, pa), tracker.random_stored_row_into(rb, pb));
    EXPECT_EQ(pa.coeffs, pb.coeffs);
    ASSERT_EQ(ra(), rb());
  }
}

TEST(RankTracker, BitCombinationStreamMatchesBitDecoder) {
  const std::size_t k = 70;
  sim::Rng rng(41);
  linalg::BitDecoder full(k, 1);
  linalg::BitRankTracker tracker(k);
  const std::size_t words = linalg::BitDecoder::words_for(k);
  for (int i = 0; i < 100; ++i) {
    linalg::BitPacket pkt;
    pkt.coeffs.resize(words);
    for (auto& w : pkt.coeffs) w = util::random_bits(rng, 64);
    pkt.coeffs[words - 1] &= (std::uint64_t{1} << (k % 64)) - 1;
    full.insert(pkt);
    tracker.insert(pkt);
  }
  ASSERT_EQ(tracker.rank(), full.rank());
  ASSERT_GT(tracker.rank(), 64u);  // the 64-bit batching boundary is crossed

  sim::Rng ra(99), rb(99);
  for (int trial = 0; trial < 50; ++trial) {
    linalg::BitPacket pa, pb;
    ASSERT_EQ(full.random_combination_into(ra, pa),
              tracker.random_combination_into(rb, pb));
    EXPECT_EQ(pa.coeffs, pb.coeffs);
    ASSERT_EQ(ra(), rb()) << "bit-batch streams diverged at " << trial;
  }
}

// The GF(2) transmit rule, pinned against a test-local reference: one
// util::random_bits(rng, 64) draw per 64 stored rows, and row i joins iff
// bit i % 64 of its batch is set.  The ranks straddle the batch edges, so
// the partial last batch (and the exactly-full one) are covered; a 32-bit
// engine checks the draw is width-independent.  Messages are random words
// and every inserted payload is consistent with them, so the expected
// payload is the expected coefficient vector applied to the messages.
template <typename URBG>
void expect_bit_stream_matches_reference(std::size_t rank) {
  constexpr std::size_t k = 150, kPayload = 2;
  const std::size_t words = linalg::BitDecoder::words_for(k);
  sim::Rng rng(1000 + rank);
  std::vector<std::vector<std::uint64_t>> msg(k, std::vector<std::uint64_t>(kPayload));
  for (auto& m : msg)
    for (auto& w : m) w = util::random_bits(rng, 64);
  const auto payload_of = [&](const std::vector<std::uint64_t>& coeffs) {
    std::vector<std::uint64_t> p(kPayload, 0);
    for (std::size_t j = 0; j < k; ++j) {
      if ((coeffs[j / 64] >> (j % 64)) & 1) {
        for (std::size_t w = 0; w < kPayload; ++w) p[w] ^= msg[j][w];
      }
    }
    return p;
  };

  linalg::BitDecoder full(k, kPayload);
  linalg::BitRankTracker tracker(k);
  while (full.rank() < rank) {
    linalg::BitPacket pkt;
    pkt.coeffs.resize(words);
    for (auto& w : pkt.coeffs) w = util::random_bits(rng, 64);
    pkt.coeffs[words - 1] &= (std::uint64_t{1} << (k % 64)) - 1;
    pkt.payload = payload_of(pkt.coeffs);
    ASSERT_EQ(tracker.insert(pkt), full.insert(pkt));
  }
  ASSERT_EQ(tracker.rank(), rank);

  const auto seed = static_cast<typename URBG::result_type>(7 + rank);
  URBG r_full(seed), r_tracker(seed), r_ref(seed);
  for (int trial = 0; trial < 16; ++trial) {
    std::vector<std::uint64_t> want(words, 0);
    std::uint64_t bits = 0;
    for (std::size_t i = 0; i < rank; ++i) {
      if (i % 64 == 0) bits = util::random_bits(r_ref, 64);
      if ((bits >> (i % 64)) & 1) {
        const auto row = full.stored_coeff_row(i);
        for (std::size_t w = 0; w < words; ++w) want[w] ^= row[w];
      }
    }
    linalg::BitPacket pf, pt;
    ASSERT_TRUE(full.random_combination_into(r_full, pf));
    ASSERT_TRUE(tracker.random_combination_into(r_tracker, pt));
    EXPECT_EQ(pf.coeffs, want) << "rank " << rank << " trial " << trial;
    EXPECT_EQ(pf.payload, payload_of(want)) << "rank " << rank << " trial " << trial;
    EXPECT_EQ(pt.coeffs, want) << "rank " << rank << " trial " << trial;
    EXPECT_TRUE(pt.payload.empty());
    const auto next = r_ref();
    ASSERT_EQ(r_full(), next) << "rank " << rank << " trial " << trial;
    ASSERT_EQ(r_tracker(), next) << "rank " << rank << " trial " << trial;
  }
}

TEST(RankTracker, BitCombinationStreamMatchesReferenceAtBatchEdges) {
  for (const std::size_t r : {1u, 63u, 64u, 65u, 127u, 128u, 130u}) {
    expect_bit_stream_matches_reference<sim::Rng>(r);
    expect_bit_stream_matches_reference<std::mt19937>(r);
  }
}

// ---------------------------------------------------------------------------
// Pooled SoA stores == per-node tracker objects.
// ---------------------------------------------------------------------------

TEST(RankStore, PooledBitStoreMatchesStandaloneTrackers) {
  const std::size_t n = 7, k = 40;
  core::BitRankStore pool(n, k, 0);
  std::vector<linalg::BitRankTracker> solo;
  for (std::size_t v = 0; v < n; ++v) solo.emplace_back(k);

  sim::Rng rng(55);
  const std::size_t words = linalg::BitDecoder::words_for(k);
  for (int step = 0; step < 500; ++step) {
    const auto v = static_cast<graph::NodeId>(util::uniform_below(rng, n));
    linalg::BitPacket pkt;
    pkt.coeffs.resize(words);
    for (auto& w : pkt.coeffs) w = util::random_bits(rng, 64);
    pkt.coeffs[words - 1] &= (std::uint64_t{1} << (k % 64)) - 1;
    ASSERT_EQ(pool.at(v).insert(pkt), solo[v].insert(pkt)) << "step " << step;
    ASSERT_EQ(pool.at(v).rank(), solo[v].rank());
    if (step == 250) {  // churn: one node loses everything
      pool.reset(3);
      solo[3] = linalg::BitRankTracker(k);
      ASSERT_EQ(pool.at(3).rank(), 0u);
    }
  }
  // Combination outputs from pool refs (the reset node included) match the
  // standalone trackers.
  for (std::size_t v = 0; v < n; ++v) {
    expect_same_streams(pool.at(static_cast<graph::NodeId>(v)), solo[v], v + 1);
  }
}

TEST(RankStore, PooledDenseStoreMatchesStandaloneTrackers) {
  const std::size_t n = 5, k = 10;
  core::DenseRankStore<gf::GF256> pool(n, k, 0);
  std::vector<linalg::DenseRankTracker<gf::GF256>> solo;
  for (std::size_t v = 0; v < n; ++v) solo.emplace_back(k);

  sim::Rng rng(66);
  for (int step = 0; step < 300; ++step) {
    const auto v = static_cast<graph::NodeId>(util::uniform_below(rng, n));
    linalg::DensePacket<gf::GF256> pkt;
    pkt.coeffs.resize(k);
    for (auto& c : pkt.coeffs)
      c = static_cast<std::uint8_t>(util::uniform_below(rng, 256));
    ASSERT_EQ(pool.at(v).insert(pkt), solo[v].insert(pkt)) << "step " << step;
    ASSERT_EQ(pool.at(v).rank(), solo[v].rank());
    if (step == 150) {
      pool.reset(2);
      solo[2] = linalg::DenseRankTracker<gf::GF256>(k);
      ASSERT_EQ(pool.at(2).rank(), 0u);
    }
  }
  for (std::size_t v = 0; v < n; ++v) {
    expect_same_streams(pool.at(static_cast<graph::NodeId>(v)), solo[v], v + 1);
  }
}

// ---------------------------------------------------------------------------
// Golden-trace reruns: the rank-only path must reproduce the pinned
// stopping-round vectors of test_golden_traces (stream identity end to end).
// ---------------------------------------------------------------------------

constexpr std::size_t kRuns = 4;
constexpr std::uint64_t kBudget = 4000000;

template <typename Make>
void expect_rounds(const std::vector<double>& want, Make&& make, std::uint64_t seed) {
  const auto serial = core::stopping_rounds(make, kRuns, seed, kBudget);
  EXPECT_EQ(serial, want) << "(serial)";
  const auto parallel = core::parallel_stopping_rounds(make, kRuns, seed, kBudget, 4);
  EXPECT_EQ(parallel, want) << "(parallel, 4 threads)";
}

// golden "uag_gf2_grid_sync" (captured pre-TopologyView; see
// test_golden_traces.cpp).
TEST(RankTrackerGolden, UniformAgGridSyncPooled) {
  const auto g = graph::make_grid(4, 5);
  expect_rounds({18, 20, 17, 17}, [&](sim::Rng& rng) {
    const auto pl = core::uniform_distinct(10, 20, rng);
    core::AgConfig cfg;
    return core::UniformAG<linalg::BitRankTracker, core::BitRankStore>(
        std::make_unique<sim::StaticTopology>(g), pl, cfg);
  }, 101);
}

// golden "uag_gf2_complete_async".
TEST(RankTrackerGolden, UniformAgCompleteAsyncPooled) {
  const auto g = graph::make_complete(16);
  expect_rounds({16, 16, 13, 15}, [&](sim::Rng& rng) {
    (void)rng;
    core::AgConfig cfg;
    cfg.time_model = sim::TimeModel::Asynchronous;
    return core::UniformAG<linalg::BitRankTracker, core::BitRankStore>(
        std::make_unique<sim::StaticTopology>(g), core::all_to_all(16), cfg);
  }, 104);
}

// golden "uag_gf2_cycle_push_sync", per-node (vector) storage this time.
TEST(RankTrackerGolden, UniformAgCyclePushVectorStore) {
  const auto g = graph::make_cycle(16);
  expect_rounds({53, 46, 44, 34}, [&](sim::Rng& rng) {
    const auto pl = core::uniform_distinct(8, 16, rng);
    core::AgConfig cfg;
    cfg.direction = sim::Direction::Push;
    return core::UniformAG<linalg::BitRankTracker>(g, pl, cfg);
  }, 111);
}

// golden "uag_gf256_barbell_sync": the pinned config carries payload_len = 2.
// Rank evolution is payload-independent, so the rank-only tracker must hit
// the same rounds even though it stores no payload at all.
TEST(RankTrackerGolden, UniformAgGf256BarbellPayloadIndependence) {
  const auto g = graph::make_barbell(16);
  expect_rounds({23, 30, 22, 17}, [&](sim::Rng& rng) {
    const auto pl = core::uniform_distinct(8, 16, rng);
    core::AgConfig cfg;
    cfg.payload_len = 2;
    return core::UniformAG<linalg::DenseRankTracker<gf::GF256>,
                           core::DenseRankStore<gf::GF256>>(g, pl, cfg);
  }, 103);
}

// Churn end-to-end: pooled rank store under node churn (reset_node path)
// must match the full GF(2) decoder run for run.
TEST(RankTrackerGolden, ChurnRunsMatchFullDecoder) {
  const auto g = graph::make_complete(12);
  sim::ChurnConfig ccfg;
  ccfg.leave_probability = 0.08;
  ccfg.rejoin_probability = 0.5;
  ccfg.stop_round = 40;
  auto make_full = [&](sim::Rng& rng) {
    const auto pl = core::uniform_distinct(6, 12, rng);
    core::AgConfig cfg;
    return core::UniformAG<core::Gf2Decoder>(
        std::make_unique<sim::ChurnTopology>(g, ccfg), pl, cfg);
  };
  auto make_rank = [&](sim::Rng& rng) {
    const auto pl = core::uniform_distinct(6, 12, rng);
    core::AgConfig cfg;
    return core::UniformAG<linalg::BitRankTracker, core::BitRankStore>(
        std::make_unique<sim::ChurnTopology>(g, ccfg), pl, cfg);
  };
  const auto full = core::stopping_rounds(make_full, 6, 404, kBudget);
  const auto rank = core::stopping_rounds(make_rank, 6, 404, kBudget);
  EXPECT_EQ(full, rank);
}

}  // namespace
