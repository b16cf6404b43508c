// Canonical decoder choices.
//
//   Gf256Decoder : the library default (q = 256, byte symbols) -- use for
//     anything that exercises end-to-end decoding.
//   Gf2Decoder   : bit-packed q = 2 -- use for large stopping-time sweeps;
//     the paper's bounds hold for any q >= 2 (see DESIGN.md Section 3).
#pragma once

#include "gf/gf2.hpp"
#include "gf/gf2m.hpp"
#include "linalg/eliminator.hpp"

namespace ag::core {

using Gf2Decoder = linalg::BitDecoder;
using Gf2DenseDecoder = linalg::DenseDecoder<gf::GF2>;
using Gf16Decoder = linalg::DenseDecoder<gf::GF16>;
using Gf256Decoder = linalg::DenseDecoder<gf::GF256>;
using Gf65536Decoder = linalg::DenseDecoder<gf::GF65536>;

}  // namespace ag::core
