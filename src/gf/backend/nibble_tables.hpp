// GF(256) product tables shared by the SIMD backends.
//
// Split-nibble tables (SSSE3 / AVX2):
//
// PSHUFB can look 16 bytes up in a 16-byte table in one instruction, so the
// classic vector GF(256) multiply splits each source byte s into nibbles and
// uses two per-multiplicand tables:
//
//   lo[c][x] = c * x          for x in 0..15   (product with the low nibble)
//   hi[c][x] = c * (x << 4)   for x in 0..15   (product with the high nibble)
//
// Then c * s == lo[c][s & 0xf] ^ hi[c][s >> 4] because GF(2^m) multiplication
// distributes over the XOR decomposition s = (s & 0xf) ^ (s >> 4 << 4).
// The same identity drives the shared scalar tail below, so vector body and
// tail agree byte-for-byte with each other and with the log/exp reference.
//
// Affine matrices (GFNI):
//
// Multiplying by a constant c is GF(2)-linear in the bits of x, so it is one
// 8x8 bit matrix M_c, and VGF2P8AFFINEQB applies such a matrix to 64 bytes
// in one instruction: result bit i = parity(byte (7 - i) of M_c & x).  So
// byte 7 - i of M_c holds the bits j for which bit i of c * x^j is set.
// (VGF2P8MULB cannot be used: it hard-wires the AES polynomial 0x11B, and
// GF256 here reduces by 0x11D.)
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace ag::gf::backend::detail {

struct alignas(32) NibbleTables {
  std::uint8_t lo[256][16];
  std::uint8_t hi[256][16];
};

// Built once on first use from the canonical GF(256) log/exp tables
// (8 KiB total; each 16-byte row is 16-byte aligned for _mm_load_si128).
const NibbleTables& nibble_tables() noexcept;

// affine_matrices()[c] is M_c above, built once on first use from the same
// log/exp tables (2 KiB).
using AffineMatrices = std::array<std::uint64_t, 256>;
const AffineMatrices& affine_matrices() noexcept;

// Scalar remainder loops used by every vector kernel after the full-vector
// body: exact GF(256) products via the same nibble tables.
inline void axpy_u8_tail(std::uint8_t* dst, const std::uint8_t* src,
                         std::size_t n, const std::uint8_t* lo,
                         const std::uint8_t* hi) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t s = src[i];
    dst[i] ^= static_cast<std::uint8_t>(lo[s & 0x0f] ^ hi[s >> 4]);
  }
}

inline void scale_u8_tail(std::uint8_t* dst, std::size_t n,
                          const std::uint8_t* lo, const std::uint8_t* hi) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t d = dst[i];
    dst[i] = static_cast<std::uint8_t>(lo[d & 0x0f] ^ hi[d >> 4]);
  }
}

}  // namespace ag::gf::backend::detail
