// AVX2 GF(256) kernels: 32 bytes per step, VPSHUFB over both 128-bit lanes.
//
// Compiled with -mavx2 only on x86 targets whose compiler supports it (the
// build sets AG_GF_ENABLE_AVX2 alongside the flag); otherwise this file
// degrades to a stub provider returning nullptr.  Runtime CPU support is
// checked separately by the dispatcher.
//
// VPSHUFB indexes each 128-bit lane independently, so the 16-byte nibble
// tables are broadcast to both lanes and the SSSE3 algorithm carries over
// unchanged at twice the width.  Caller data is accessed with unaligned
// loads/stores (correct for any buffer; the 32-byte-aligned decoder arenas
// avoid cache-line splits).  Tail bytes run through the shared scalar
// nibble-table loop.
#include "gf/backend/backend.hpp"
#include "gf/backend/nibble_tables.hpp"

#if defined(AG_GF_ENABLE_AVX2)

#include <immintrin.h>

namespace ag::gf::backend {

// Shared with the gfni table (backend.hpp).
void detail::xor_words_avx2(std::uint64_t* dst, const std::uint64_t* src,
                            std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(d, s));
  }
  for (; i < n; ++i) dst[i] ^= src[i];
}

namespace {

void xor_bytes_avx2(std::uint8_t* dst, const std::uint8_t* src,
                    std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(d, s));
  }
  for (; i < n; ++i) dst[i] ^= src[i];
}

void axpy_u8_avx2(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                  std::uint8_t c) noexcept {
  if (c == 0) return;
  if (c == 1) {
    xor_bytes_avx2(dst, src, n);
    return;
  }
  const auto& nt = detail::nibble_tables();
  const __m256i lo = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(nt.lo[c])));
  const __m256i hi = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(nt.hi[c])));
  const __m256i mask = _mm256_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i pl = _mm256_shuffle_epi8(lo, _mm256_and_si256(s, mask));
    const __m256i ph = _mm256_shuffle_epi8(
        hi, _mm256_and_si256(_mm256_srli_epi64(s, 4), mask));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(d, _mm256_xor_si256(pl, ph)));
  }
  detail::axpy_u8_tail(dst + i, src + i, n - i, nt.lo[c], nt.hi[c]);
}

void scale_u8_avx2(std::uint8_t* dst, std::size_t n, std::uint8_t c) noexcept {
  if (c == 1) return;
  if (c == 0) {
    const __m256i z = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32)
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), z);
    for (; i < n; ++i) dst[i] = 0;
    return;
  }
  const auto& nt = detail::nibble_tables();
  const __m256i lo = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(nt.lo[c])));
  const __m256i hi = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(nt.hi[c])));
  const __m256i mask = _mm256_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i pl = _mm256_shuffle_epi8(lo, _mm256_and_si256(d, mask));
    const __m256i ph = _mm256_shuffle_epi8(
        hi, _mm256_and_si256(_mm256_srli_epi64(d, 4), mask));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(pl, ph));
  }
  detail::scale_u8_tail(dst + i, n - i, nt.lo[c], nt.hi[c]);
}

constexpr KernelTable kAvx2Table{
    axpy_u8_avx2, scale_u8_avx2, xor_bytes_avx2, detail::xor_words_avx2,
    "avx2",
};

}  // namespace

const KernelTable* detail::avx2_kernels() noexcept { return &kAvx2Table; }

}  // namespace ag::gf::backend

#else  // !AG_GF_ENABLE_AVX2

namespace ag::gf::backend {
const KernelTable* detail::avx2_kernels() noexcept { return nullptr; }
}  // namespace ag::gf::backend

#endif
