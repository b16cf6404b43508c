// Layer probes: the GF kernels at the row widths the workloads use, the wire
// codec at the UDP frame shape, and the topology's partner draw.  Each probe
// times many back-to-back calls through the layer's public function and
// reports the median of several repetitions.
#include <cstdint>
#include <vector>

#include "common.hpp"
#include "gf/bulk_ops.hpp"
#include "net/swarm_runner.hpp"
#include "net/wire.hpp"

namespace perf {
namespace {

constexpr int kReps = 7;

/// Median over kReps of the seconds `body` takes for `calls` calls.
template <typename Body>
double median_seconds(std::size_t calls, Body&& body) {
  std::vector<double> reps;
  for (int r = 0; r < kReps; ++r) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) body(i);
    reps.push_back(seconds_since(t0));
  }
  return median(reps);
}

std::vector<std::uint8_t> random_bytes(std::size_t len, std::uint64_t seed) {
  ag::sim::Rng rng(seed);
  std::vector<std::uint8_t> out(len);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

volatile std::uint64_t g_sink = 0;  // keeps probe results observable

}  // namespace

void probe_gf(Report& rep) {
  // GF(2) rows at k = 64 are one word: the rank workload's insert loop.
  {
    constexpr std::size_t kRows = 64;
    std::vector<std::uint64_t> dst(kRows), src(kRows);
    ag::sim::Rng rng(11);
    for (std::size_t i = 0; i < kRows; ++i) {
      dst[i] = rng();
      src[i] = rng();
    }
    constexpr std::size_t kCalls = 2'000'000;
    const double s = median_seconds(kCalls, [&](std::size_t i) {
      const std::size_t r = i % kRows;
      ag::gf::xor_words(std::span<std::uint64_t>(&dst[r], 1),
                        std::span<const std::uint64_t>(&src[(r + 1) % kRows], 1));
    });
    g_sink = g_sink + dst[0];
    rep.metric("gf.xor_words_ns.1w", 1e9 * s / kCalls, "ns");
  }
  // GF(256) axpy at the stream coefficient width (16 B), the UDP/one-shot
  // coefficient width (64 B) and the one-shot payload width (1 KiB).
  const struct {
    const char* name;
    std::size_t width;
    std::size_t calls;
  } widths[] = {{"gf.axpy_gf256_GBps.16B", 16, 1'000'000},
                {"gf.axpy_gf256_GBps.64B", 64, 500'000},
                {"gf.axpy_gf256_GBps.1KiB", 1024, 60'000}};
  for (const auto& w : widths) {
    constexpr std::size_t kRows = 16;  // working set stays in L1
    std::vector<std::uint8_t> dst = random_bytes(kRows * w.width, 21);
    const std::vector<std::uint8_t> src = random_bytes(kRows * w.width, 22);
    const double s = median_seconds(w.calls, [&](std::size_t i) {
      const std::size_t r = i % kRows;
      const auto c = static_cast<std::uint8_t>(2 + i % 250);  // never 0 or 1
      ag::gf::axpy_gf256(
          std::span<std::uint8_t>(dst.data() + r * w.width, w.width),
          std::span<const std::uint8_t>(src.data() + ((r + 1) % kRows) * w.width, w.width),
          c);
    });
    g_sink = g_sink + dst[0];
    rep.metric(w.name, static_cast<double>(w.calls * w.width) / s * 1e-9, "GB/s");
  }
}

void probe_codec(Report& rep) {
  // The udp-swarm-loopback frame: GF(256), k = 64 coefficients, 1 KiB payload.
  constexpr std::size_t k = 64, len = 1024;
  ag::net::Gf256Packet pkt;
  pkt.coeffs = random_bytes(k, 31);
  pkt.payload = random_bytes(len, 32);
  std::vector<std::uint8_t> frame;
  ag::net::Gf256Packet back;
  if (ag::net::decode_into(std::span<const std::uint8_t>(frame.data(),
                                                         ag::net::encode_into(pkt, k, frame)),
                           k, len, back) != ag::net::DecodeStatus::Ok ||
      back.coeffs != pkt.coeffs || back.payload != pkt.payload) {
    Verdict v;
    v.expect(false, "wire codec round trip changed the packet");
    rep.record(v, "codec probe");
  }
  constexpr std::size_t kCalls = 100'000;
  const double enc = median_seconds(kCalls, [&](std::size_t i) {
    pkt.payload[i % len] = static_cast<std::uint8_t>(i);
    g_sink = g_sink + ag::net::encode_into(pkt, k, frame);
  });
  const double dec = median_seconds(kCalls, [&](std::size_t) {
    g_sink = g_sink + static_cast<std::uint64_t>(
                          ag::net::decode_into(frame, k, len, back));
  });
  rep.metric("net.encode_ns", 1e9 * enc / kCalls, "ns");
  rep.metric("net.decode_ns", 1e9 * dec / kCalls, "ns");
}

void probe_sample(Report& rep, const ag::sim::TopologyView& topo) {
  const std::size_t n = topo.node_count();
  ag::sim::Rng rng(41);
  constexpr std::size_t kCalls = 1'000'000;
  const double s = median_seconds(kCalls, [&](std::size_t i) {
    g_sink = g_sink + topo.sample(static_cast<ag::sim::NodeId>(i % n), rng);
  });
  rep.metric("sim.sample_ns", 1e9 * s / kCalls, "ns");
}

}  // namespace perf
