// GF(2): the smallest field the paper's bounds apply to (q >= 2).
//
// Addition is XOR and multiplication is AND.  The bit-packed decoder
// (linalg/eliminator.hpp) uses word-parallel XOR instead of these scalar
// operations; this tag type exists so GF(2) can also flow through the generic
// dense code paths in tests and ablations.
#pragma once

#include <cstdint>

namespace ag::gf {

struct GF2 {
  using value_type = std::uint8_t;
  static constexpr std::uint32_t order = 2;
  static constexpr value_type zero = 0;
  static constexpr value_type one = 1;

  static constexpr value_type add(value_type a, value_type b) noexcept {
    return static_cast<value_type>(a ^ b);
  }
  static constexpr value_type sub(value_type a, value_type b) noexcept { return add(a, b); }
  static constexpr value_type mul(value_type a, value_type b) noexcept {
    return static_cast<value_type>(a & b);
  }
  // Division/inversion are defined only for b != 0; in GF(2) the sole unit is 1.
  static constexpr value_type div(value_type a, value_type /*b*/) noexcept { return a; }
  static constexpr value_type inv(value_type /*a*/) noexcept { return one; }
};

}  // namespace ag::gf
