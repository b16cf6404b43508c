/// \file
/// SwarmRunner: a real-time gossip driver over the Transport seam -- what a
/// node actually runs when the "rounds" of the simulator are replaced by
/// wall-clock ticks and real datagrams.
///
/// The lockstep sim::run engine cannot drive a multi-process swarm (its
/// EXCHANGE needs the partner's state in the same address space), so the UDP
/// deployment uses this self-contained push loop instead: every tick each
/// locally hosted node transmits one fresh RLNC combination (GF(256)) to a
/// uniformly random peer, then drains the transport and inserts whatever
/// arrived.  That is exactly uniform algebraic gossip in the PUSH direction
/// under the asynchronous time model, running on kernel time instead of
/// engine rounds.
///
/// Termination is gossiped, not assumed: each node keeps an n-bit completion
/// bitmap (bit v = "node v is known to have reached full rank"), ORs in
/// every bitmap it hears via control frames, and keeps transmitting until
/// the bitmap is all-ones -- then sends a short grace burst of bitmap
/// broadcasts so laggard processes learn completion too, verifies its local
/// decoded payloads byte-for-byte against the source, and returns.  Each
/// grace tick sends and drains; only when some node lives in another process
/// does it also wait up to 1 ms for traffic.  A transport hosting all n nodes
/// skips that wait: loopback delivery to a local socket completes inside
/// sendto, so nothing can arrive during it.
#pragma once

#include <cstdint>

#include "coding/generation.hpp"
#include "gf/gf2m.hpp"
#include "linalg/eliminator.hpp"
#include "net/udp_transport.hpp"

namespace ag::net {

/// The swarm speaks GF(256): byte symbols, the library's end-to-end default.
using Gf256Packet = linalg::DensePacket<gf::GF256>;

struct SwarmConfig {
  std::size_t n = 16;            ///< swarm size (node ids 0..n-1)
  std::size_t k = 32;            ///< file blocks, all seeded at node 0
  std::size_t payload_len = 32;  ///< bytes per block
  std::uint64_t seed = 7;        ///< per-process RNG seed material
  int timeout_ms = 30000;        ///< wall-clock budget before giving up
  int grace_ticks = 32;          ///< completion-bitmap broadcasts after done (each
                                 ///< waits 1 ms for traffic only with remote peers)
};

struct SwarmReport {
  bool completed = false;   ///< completion bitmap reached all-ones in time
  bool payload_ok = false;  ///< every local node decodes every block correctly
  std::uint64_t ticks = 0;
  sim::TransportStats transport;  ///< final transport counters

  bool ok() const noexcept { return completed && payload_ok; }
};

/// Runs the swarm for the nodes hosted by `transport` until cluster-wide
/// completion or timeout.  Blocking; returns the final report.
SwarmReport run_swarm(UdpTransport<Gf256Packet>& transport, const SwarmConfig& cfg);

/// Streaming variant: the source injects `stream.total_messages` messages
/// over time, coded in generations of `stream.generation_size` with at most
/// `stream.window` in flight (src/coding/).  Frames carry the generation id
/// in the wire-v2 header; termination is gossiped as per-node *watermarks*
/// (count of generations delivered contiguously, merged by max) instead of
/// a completion bitmap -- the cluster is done when the minimum watermark
/// reaches the generation count.
///
/// Policy note: over UDP, `rarest_first` ranks generations by the LOCAL
/// rank deficit (frames do not carry peer ranks), unlike the sim driver
/// where true peer-rank feedback travels in-struct.  Real-socket runs are
/// not deterministic, so the tie-break needs no RNG draw: lowest
/// generation id wins.
struct StreamSwarmConfig {
  std::size_t n = 16;            ///< swarm size (node ids 0..n-1)
  coding::StreamConfig stream;   ///< generation size / window / policy / stream length
  std::uint64_t seed = 7;        ///< per-process RNG seed material
  int timeout_ms = 60000;        ///< wall-clock budget before giving up
  int grace_ticks = 32;          ///< watermark broadcasts after completion (each
                                 ///< waits 1 ms for traffic only with remote peers)
};

struct StreamSwarmReport {
  bool completed = false;   ///< minimum watermark reached total_generations
  bool payload_ok = false;  ///< every locally delivered message matched the source bytes
  std::uint64_t ticks = 0;
  std::uint64_t delivered_messages = 0;  ///< real messages delivered at local nodes
  std::uint64_t stale_packets = 0;       ///< frames for evicted/out-of-window generations
  sim::TransportStats transport;         ///< final transport counters

  bool ok() const noexcept { return completed && payload_ok; }
};

/// Blocking streaming driver for the nodes hosted by `transport`.  The
/// transport must be constructed with k = stream.generation_size and
/// payload_len = stream.payload_len.
StreamSwarmReport run_stream_swarm(UdpTransport<Gf256Packet>& transport,
                                   const StreamSwarmConfig& cfg);

}  // namespace ag::net
