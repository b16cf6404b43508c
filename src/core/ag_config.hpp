// Shared configuration for the algebraic-gossip protocol family.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/time_model.hpp"

namespace ag::core {

struct AgConfig {
  sim::TimeModel time_model = sim::TimeModel::Synchronous;
  sim::Direction direction = sim::Direction::Exchange;
  // Theorem 1's simplifying assumption: drop a second message from the same
  // sender within one synchronous round.  Off by default (real protocol).
  bool discard_same_sender_per_round = false;
  std::size_t payload_len = 0;
  // Failure injection: independent per-message loss probability (0 = ideal
  // links).  See the robustness bench (E10).
  double drop_probability = 0.0;
  std::uint64_t drop_seed = 0x10551055ull;
  // Coding-rule ablations (extensions; bench E15).  recode = false forwards
  // a random stored equation verbatim instead of recombining.
  // coding_density < 1 uses sparse combinations (each stored row joins with
  // this probability).  The paper's rule is recode = true, density = 1.
  bool recode = true;
  double coding_density = 1.0;
};

}  // namespace ag::core
