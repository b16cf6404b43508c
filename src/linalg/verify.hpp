/// \file
/// Insert-time packet verification: the decoder-side defence against
/// Byzantine traffic (ROADMAP item 5).
///
/// Threat model (see docs/ARCHITECTURE.md, "Adversarial scenario layer"): a
/// Byzantine peer controls the *content* of every frame it emits but not the
/// receiver's decoder state.  Without cryptographic payload authentication
/// (homomorphic MACs / null keys -- out of scope here) a receiver can detect
/// exactly two kinds of hostility from the packet alone:
///
///   1. **Malformed** packets: shape or symbol-range violations that a
///      canonical encoder can never produce -- wrong coefficient-vector
///      length, out-of-range field symbols (only observable for fields whose
///      value_type has spare range, e.g. GF(2)/GF(16) carried in a uint8),
///      over-long payloads, wrong GF(2) word counts, or nonzero spare bits
///      above k in the last coefficient word.  These mirror the `bad_*`
///      families of the wire-decoder fuzz corpus (fuzz/gen_corpus.cpp) --
///      net::decode_into rejects them at the frame layer; this hook rejects
///      the same shapes when packets arrive through an in-process transport
///      that never serialised them.
///
///   2. **Rank-wasting** combinations: equations already in the receiver's
///      row space (including the all-zero combination, the one packet that
///      is dependent against *every* state).  These are not distinguishable
///      from honest bad luck -- an honest uniform draw also lands in the row
///      space with probability >= 1/q -- so classify() reports them as
///      Redundant rather than hostile, and the decoders already refuse to
///      spend rank on them.  What verification adds is the *accounting*:
///      RlncSwarm counts rejected packets per node so a
///      monitoring layer can flag peers whose redundancy rate is wildly off
///      the honest baseline.
///
/// What cannot be caught here: a well-formed, linearly independent
/// combination whose *payload* symbols are garbage.  Such a packet pollutes
/// the decoded output without any detectable signature at insert time; only
/// end-to-end payload authentication can defend against it.  This boundary
/// is deliberate and documented -- the bench (bench/byzantine_resilience)
/// and the adversary layer (sim/adversary.hpp) therefore measure *stopping
/// time inflation*, the quantity verification does control.
///
/// is_malformed() is the hot-path check RlncSwarm::receive runs before every
/// insert: shape/range only, no field arithmetic, no scratch -- O(1) for
/// bit-packed and GF(256)/GF(65536) packets, an O(k) symbol scan where the
/// carrier has spare range.
/// classify() adds the row-space test (clobbers the decoder's contains()
/// scratch) and is meant for tests, tooling, and offline analysis.
#pragma once

#include <cstddef>
#include <cstdint>

#include "linalg/eliminator.hpp"

namespace ag::linalg {

/// Verdict of the full insert-time classification.
enum class PacketClass : std::uint8_t {
  Helpful,    ///< well-formed and linearly independent of the stored rows
  Redundant,  ///< well-formed but already in the row space (incl. all-zero)
  Malformed,  ///< shape or symbol-range violation; no honest encoder emits it
};

/// Shape/range verification against any eliminator-backed receiver
/// (decoder, rank tracker or pooled view).  Returns true iff the packet could
/// not have been produced by a canonical encoder for this receiver's
/// (k, payload_len) shape: wrong coefficient word count, a payload longer
/// than the receiver stores, or symbols the row trait marks noncanonical
/// (GF(2) spare bits above k; out-of-field symbols where the carrier has
/// spare range).  O(1) for bit-packed and GF(256)/GF(65536) packets.
template <typename DecoderLike>
bool is_malformed(const DecoderLike& d,
                  const typename DecoderLike::packet_type& pkt) noexcept {
  using Row = typename DecoderLike::row_traits;
  const std::size_t k = d.message_count();
  return pkt.coeffs.size() != Row::words_for(k) ||
         pkt.payload.size() > d.payload_length() || Row::noncanonical(pkt, k);
}

/// Full insert-time classification.  Malformed beats Redundant beats
/// Helpful; the row-space test clobbers the receiver's contains() scratch
/// (same stripe discipline as contains() itself -- per-shard under the
/// pooled stores).
template <typename DecoderLike, typename Packet>
PacketClass classify(const DecoderLike& d, const Packet& pkt) {
  if (is_malformed(d, pkt)) return PacketClass::Malformed;
  if (d.contains(pkt.coeffs)) return PacketClass::Redundant;
  return PacketClass::Helpful;
}

}  // namespace ag::linalg
