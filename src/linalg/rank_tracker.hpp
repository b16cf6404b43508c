/// \file
/// Rank-only include path: DenseRankTracker<F>, BitRankTracker and their
/// pooled-store views are aliases of linalg::Eliminator with payload width 0
/// (linalg/eliminator.hpp).
#pragma once

#include "linalg/eliminator.hpp"
