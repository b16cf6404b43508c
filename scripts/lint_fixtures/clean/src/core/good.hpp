// A clean core-layer file: legal downward includes, portable randomness,
// lookalike tokens that must NOT trip any rule, and a properly reasoned
// line waiver.  This tree expects zero violations.
#pragma once
#include <cstdint>
#include <vector>

#include "gf/gf2.hpp"
#include "linalg/eliminator.hpp"
#include "sim/rng.hpp"
#include "util/urbg.hpp"

namespace fixture {

// "rand" inside an identifier, "synchronous" (contains no clock call), and
// std::cout inside a string literal are all fine.
inline int operand(int x) { return x; }
inline const char* banner() { return "std::cout << synchronous chrono"; }

template <typename URBG>
std::uint64_t portable_pick(URBG& rng, std::uint64_t n) {
  return ag::util::uniform_below(rng, n);
}

// ag-lint: allow(no-reinterpret-cast) -- fixture: demonstrates a reasoned, used waiver
inline std::uintptr_t addr(const void* p) { return reinterpret_cast<std::uintptr_t>(p); }

}  // namespace fixture
