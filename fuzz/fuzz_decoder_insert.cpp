// libFuzzer harness for DenseDecoder<GF256>::insert and BitDecoder::insert.
//
// The input is a little op script: a 2-byte prefix fixes the decoder shape
// (k in [1, 64], payload_len in [0, 16]), then the remaining bytes are
// consumed as packets and fed to insert().  Two decoders run in lockstep
// over the same script:
//
//   * DenseDecoder<gf::GF256>  -- every raw byte is a valid symbol,
//   * BitDecoder               -- bytes become coefficient words (spare
//                                 bits masked, as the wire codec guarantees).
//
// Every 4th packet is instead round-tripped through the wire codec first
// (encode -> decode -> insert), so the "datagram to decoder" path the UDP
// transport uses is covered end to end with attacker-shaped VALUES (shapes
// are fixed by construction: wire decode already rejects shape mismatches,
// which fuzz_wire_decode covers).
//
// Checked properties (FUZZ_ASSERT aborts in every build):
//   1. insert never crashes and never returns true without raising rank.
//   2. rank is monotone, bounded by k, and zero packets are never helpful.
//   3. contains(coeffs) is true for every packet the decoder accepted.
//   4. At full rank, every decoded message span has payload_len symbols in
//      field range.
#include <cstdint>
#include <span>
#include <vector>

#include "fuzz_common.hpp"
#include "linalg/eliminator.hpp"
#include "net/wire.hpp"

namespace {

using namespace ag;

using DensePkt = linalg::DensePacket<gf::GF256>;
using BitPkt = linalg::BitPacket;

void check_dense_full_rank(const linalg::DenseDecoder<gf::GF256>& dec) {
  if (!dec.full_rank()) return;
  for (std::size_t i = 0; i < dec.message_count(); ++i) {
    const auto msg = dec.decoded_message(i);
    FUZZ_ASSERT(msg.size() == dec.payload_length(), "decoded payload length");
  }
}

void check_bit_full_rank(const linalg::BitDecoder& dec) {
  if (!dec.full_rank()) return;
  for (std::size_t i = 0; i < dec.message_count(); ++i) {
    const auto msg = dec.decoded_message(i);
    FUZZ_ASSERT(msg.size() == dec.payload_length(), "decoded payload length");
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  fuzz::ByteReader in(data, size);
  const std::size_t k = 1 + in.u8() % 64;
  const std::size_t payload_len = in.u8() % 17;

  linalg::DenseDecoder<gf::GF256> dense(k, payload_len);
  linalg::BitDecoder bits(k, payload_len);
  const std::size_t words = linalg::BitDecoder::words_for(k);

  DensePkt dp;
  BitPkt bp;
  std::vector<std::uint8_t> frame;
  DensePkt decoded;

  std::size_t packet_no = 0;
  while (in.remaining() > 0 && packet_no < 512) {
    ++packet_no;

    // Build a well-shaped GF(256) packet from the next bytes (zero-padded
    // once the script runs dry so the tail still lands a few packets).
    dp.coeffs.assign(k, 0);
    dp.payload.assign(payload_len, 0);
    for (auto& c : dp.coeffs) c = in.u8();
    for (auto& s : dp.payload) s = in.u8();

    // The same bytes as word-packed GF(2) coefficients, spare bits masked.
    bp.coeffs.assign(words, 0);
    bp.payload.assign(payload_len, 0);
    for (std::size_t i = 0; i < k; ++i) {
      if (dp.coeffs[i] & 1u) bp.coeffs[i / 64] |= std::uint64_t{1} << (i % 64);
    }
    for (std::size_t i = 0; i < payload_len; ++i) bp.payload[i] = dp.payload[i];

    if (packet_no % 4 == 0) {
      // Wire round trip before insert: the transport's receive path.
      net::encode_into(dp, k, frame);
      const auto st = net::decode_into(std::span<const std::uint8_t>(frame), k,
                                       payload_len, decoded);
      FUZZ_ASSERT(st == net::DecodeStatus::Ok, "canonical frame must decode");
      FUZZ_ASSERT(decoded.coeffs == dp.coeffs && decoded.payload == dp.payload,
                  "wire round trip changed the packet");
    }

    const std::size_t dense_rank_before = dense.rank();
    const bool dense_helpful = dense.insert(dp);
    FUZZ_ASSERT(dense.rank() == dense_rank_before + (dense_helpful ? 1 : 0),
                "insert verdict disagrees with rank delta");
    FUZZ_ASSERT(dense.rank() <= k, "rank exceeded k");
    if (dp.is_zero()) FUZZ_ASSERT(!dense_helpful, "zero packet counted as helpful");
    if (dense_helpful) {
      FUZZ_ASSERT(dense.contains(std::span<const std::uint8_t>(dp.coeffs)),
                  "accepted packet not in row space");
    }

    const std::size_t bit_rank_before = bits.rank();
    const bool bit_helpful = bits.insert(bp);
    FUZZ_ASSERT(bits.rank() == bit_rank_before + (bit_helpful ? 1 : 0),
                "bit insert verdict disagrees with rank delta");
    FUZZ_ASSERT(bits.rank() <= k, "bit rank exceeded k");
    if (bp.is_zero()) FUZZ_ASSERT(!bit_helpful, "zero bit packet counted as helpful");
    if (bit_helpful) {
      FUZZ_ASSERT(bits.contains(std::span<const std::uint64_t>(bp.coeffs)),
                  "accepted bit packet not in row space");
    }
  }

  check_dense_full_rank(dense);
  check_bit_full_rank(bits);
  return 0;
}
