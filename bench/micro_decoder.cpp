// E8 -- micro benchmarks for the incremental decoders (google-benchmark):
// insert cost (the per-received-packet work of every gossip node) and
// random_combination cost (the per-transmission work), dense GF(256) vs
// bit-packed GF(2).  The *RankStore* cases insert through the pooled
// rank-only views of core/swarm_storage.hpp -- the large-n hot path, where
// a k = 64 GF(2) row is one word.  All run on whatever GF kernel backend the
// dispatcher selected (force with AG_GF_BACKEND to compare).
//
// AG_BENCH_JSON=<path> writes google-benchmark's JSON report to <path>, same
// knob as the table harnesses.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "micro_main.hpp"

#include "core/decoders.hpp"
#include "core/swarm_storage.hpp"
#include "gf/gf2m.hpp"
#include "sim/rng.hpp"

namespace {

using ag::gf::GF256;
using ag::linalg::BitDecoder;
using ag::linalg::DenseDecoder;

void BM_DenseInsertToFullRank(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  ag::sim::Rng rng(11);
  // Pre-generate random packets from a full-rank source.
  DenseDecoder<GF256> src(k, 0);
  for (std::size_t i = 0; i < k; ++i) src.insert(src.unit_packet(i));
  std::vector<DenseDecoder<GF256>::packet_type> packets;
  for (std::size_t i = 0; i < 4 * k; ++i) packets.push_back(*src.random_combination(rng));

  for (auto _ : state) {
    DenseDecoder<GF256> d(k, 0);
    std::size_t i = 0;
    while (!d.full_rank() && i < packets.size()) d.insert(packets[i++]);
    benchmark::DoNotOptimize(d.rank());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k));
}
BENCHMARK(BM_DenseInsertToFullRank)->Arg(32)->Arg(128)->Arg(512);

void BM_BitInsertToFullRank(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  ag::sim::Rng rng(12);
  BitDecoder src(k, 0);
  for (std::size_t i = 0; i < k; ++i) src.insert(src.unit_packet(i));
  std::vector<BitDecoder::packet_type> packets;
  for (std::size_t i = 0; i < 4 * k; ++i) packets.push_back(*src.random_combination(rng));

  for (auto _ : state) {
    BitDecoder d(k, 0);
    std::size_t i = 0;
    while (!d.full_rank() && i < packets.size()) d.insert(packets[i++]);
    benchmark::DoNotOptimize(d.rank());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k));
}
BENCHMARK(BM_BitInsertToFullRank)->Arg(64)->Arg(256)->Arg(1024);

// Insert-to-full-rank through a pooled store's view: node 0 of a two-node
// pool is reset and refilled per iteration, exactly how a swarm recycles a
// node.  Packets come from a full decoder of the same field (their payload
// is empty, as a rank-only swarm's are).
template <typename Store, typename Source>
void insert_through_store(benchmark::State& state, std::uint64_t seed) {
  const auto k = static_cast<std::size_t>(state.range(0));
  ag::sim::Rng rng(seed);
  Source src(k, 0);
  for (std::size_t i = 0; i < k; ++i) src.insert(src.unit_packet(i));
  std::vector<typename Source::packet_type> packets;
  for (std::size_t i = 0; i < 4 * k; ++i) packets.push_back(*src.random_combination(rng));

  Store store(2, k);
  for (auto _ : state) {
    store.reset(0);
    auto d = store.at(0);
    std::size_t i = 0;
    while (!d.full_rank() && i < packets.size()) d.insert(packets[i++]);
    benchmark::DoNotOptimize(d.rank());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k));
}

void BM_BitRankStoreInsertToFullRank(benchmark::State& state) {
  insert_through_store<ag::core::BitRankStore, BitDecoder>(state, 15);
}
BENCHMARK(BM_BitRankStoreInsertToFullRank)->Arg(64);

void BM_DenseRankStoreInsertToFullRank(benchmark::State& state) {
  insert_through_store<ag::core::DenseRankStore<GF256>, DenseDecoder<GF256>>(state, 16);
}
BENCHMARK(BM_DenseRankStoreInsertToFullRank)->Arg(32);

void BM_DenseRandomCombination(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  ag::sim::Rng rng(13);
  DenseDecoder<GF256> d(k, 16);
  for (std::size_t i = 0; i < k; ++i) d.insert(d.unit_packet(i));
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.random_combination(rng));
  }
}
BENCHMARK(BM_DenseRandomCombination)->Arg(32)->Arg(128);

void BM_BitRandomCombination(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  ag::sim::Rng rng(14);
  BitDecoder d(k, 2);
  for (std::size_t i = 0; i < k; ++i) d.insert(d.unit_packet(i));
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.random_combination(rng));
  }
}
BENCHMARK(BM_BitRandomCombination)->Arg(64)->Arg(512);

}  // namespace

int main(int argc, char** argv) { return agbench::run_micro_main(argc, argv); }
