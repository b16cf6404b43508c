// GFNI + AVX-512BW GF(256) kernels: one VGF2P8AFFINEQB per 64 bytes.
//
// Compiled with -mavx512f -mavx512bw -mgfni only on x86 targets whose
// compiler supports them and that also build the AVX2 kernels (the build
// sets AG_GF_ENABLE_GFNI alongside the flags); otherwise this file degrades
// to a stub provider returning nullptr.  Runtime CPU support is checked
// separately by the dispatcher.
//
// A product c * x is the 8x8 bit matrix M_c applied to x
// (detail::affine_matrices(); see nibble_tables.hpp), so the body of every
// kernel is: load 64 bytes, one affine instruction, XOR, store.  The last
// n % 64 bytes go through the same steps under a __mmask64, so there is no
// scalar remainder loop: masked-off lanes are not read (no fault, no
// over-read) and not written.  xor_words is the AVX2 kernel: packed GF(2)
// rows are short, and zmm gains nothing there.
#include "gf/backend/backend.hpp"
#include "gf/backend/nibble_tables.hpp"

#if defined(AG_GF_ENABLE_GFNI)

#include <immintrin.h>

namespace ag::gf::backend {

namespace {

constexpr std::size_t kLanes = 64;

// The low `n` lanes, n < 64.
__mmask64 tail_mask(std::size_t n) noexcept {
  return static_cast<__mmask64>((std::uint64_t{1} << n) - 1);
}

void xor_bytes_gfni(std::uint8_t* dst, const std::uint8_t* src,
                    std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m512i d = _mm512_loadu_si512(dst + i);
    const __m512i s = _mm512_loadu_si512(src + i);
    _mm512_storeu_si512(dst + i, _mm512_xor_si512(d, s));
  }
  if (i < n) {
    const __mmask64 m = tail_mask(n - i);
    const __m512i d = _mm512_maskz_loadu_epi8(m, dst + i);
    const __m512i s = _mm512_maskz_loadu_epi8(m, src + i);
    _mm512_mask_storeu_epi8(dst + i, m, _mm512_xor_si512(d, s));
  }
}

void axpy_u8_gfni(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                  std::uint8_t c) noexcept {
  if (c == 0) return;
  const __m512i a =
      _mm512_set1_epi64(static_cast<long long>(detail::affine_matrices()[c]));
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m512i s = _mm512_loadu_si512(src + i);
    const __m512i d = _mm512_loadu_si512(dst + i);
    _mm512_storeu_si512(
        dst + i, _mm512_xor_si512(d, _mm512_gf2p8affine_epi64_epi8(s, a, 0)));
  }
  if (i < n) {
    const __mmask64 m = tail_mask(n - i);
    const __m512i s = _mm512_maskz_loadu_epi8(m, src + i);
    const __m512i d = _mm512_maskz_loadu_epi8(m, dst + i);
    _mm512_mask_storeu_epi8(
        dst + i, m, _mm512_xor_si512(d, _mm512_gf2p8affine_epi64_epi8(s, a, 0)));
  }
}

// c == 0 needs no special case: M_0 is the zero matrix.
void scale_u8_gfni(std::uint8_t* dst, std::size_t n, std::uint8_t c) noexcept {
  if (c == 1) return;
  const __m512i a =
      _mm512_set1_epi64(static_cast<long long>(detail::affine_matrices()[c]));
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m512i d = _mm512_loadu_si512(dst + i);
    _mm512_storeu_si512(dst + i, _mm512_gf2p8affine_epi64_epi8(d, a, 0));
  }
  if (i < n) {
    const __mmask64 m = tail_mask(n - i);
    const __m512i d = _mm512_maskz_loadu_epi8(m, dst + i);
    _mm512_mask_storeu_epi8(dst + i, m, _mm512_gf2p8affine_epi64_epi8(d, a, 0));
  }
}

constexpr KernelTable kGfniTable{
    axpy_u8_gfni, scale_u8_gfni, xor_bytes_gfni, detail::xor_words_avx2,
    "gfni",
};

}  // namespace

const KernelTable* detail::gfni_kernels() noexcept { return &kGfniTable; }

}  // namespace ag::gf::backend

#else  // !AG_GF_ENABLE_GFNI

namespace ag::gf::backend {
const KernelTable* detail::gfni_kernels() noexcept { return nullptr; }
}  // namespace ag::gf::backend

#endif
