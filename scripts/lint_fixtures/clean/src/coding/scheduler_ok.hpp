// A clean coding-layer file: the generation layer may reach down into core,
// sim, linalg, gf and util, and draws randomness only through the caller's
// sim::Rng.  This tree expects zero violations.
#pragma once
#include <cstdint>
#include <span>

#include "core/swarm.hpp"
#include "gf/gf2.hpp"
#include "linalg/eliminator.hpp"
#include "sim/rng.hpp"
#include "util/urbg.hpp"

namespace fixture_coding {

inline std::uint32_t pick_tied(ag::sim::Rng& rng, std::span<const std::uint32_t> gens) {
  return gens[rng.uniform(gens.size())];
}

}  // namespace fixture_coding
