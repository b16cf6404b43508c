/// \file
/// The one incremental RREF eliminator behind every decoder and rank tracker.
///
/// This is the data structure every algebraic-gossip node maintains (Section 2
/// of the paper): a matrix of linear equations over F_q in the k unknown
/// messages, kept in reduced row-echelon form.  A received packet is appended
/// iff it is linearly independent of the stored rows -- i.e. iff it is a
/// "helpful message" (Definition 3); otherwise it is ignored.  Once the rank
/// reaches k the node solves the system, which in RREF is a read-off.
///
/// Cost per insert: O(k * rank) field operations (O(k * rank / 64) word
/// operations for packed GF(2) rows).  Rows are normalized (pivot = 1) and
/// back-eliminated on insertion so that full rank implies the identity matrix
/// and decoded_message() is O(1).
///
/// One algorithm, four public shapes.  Everything field-specific lives in a
/// row trait (SymbolRows<F>: one field element per symbol; WordRows: GF(2)
/// rows packed 64 columns per word), everything about where the rows live in
/// a state (OwnedRows: one node's arena; PoolView: a view into a pooled
/// store), and Eliminator<State> implements the algorithm once on top:
///
///   DenseDecoder<F>, BitDecoder        owning, rows carry a payload stripe
///   DenseRankTracker<F>, BitRankTracker owning, rank-only (payload width 0)
///   *RankTrackerRef / *RankTrackerConstRef
///                                      views into core/swarm_storage.hpp's
///                                      pooled stores; rank-only
///
/// Rank-only is a type-level fact: a rank-only state has payload width 0,
/// ignores any incoming payload and emits none.  Every stopping-time
/// statistic in the paper -- Theorem 1's O((k + log n + D) * Delta) bound,
/// Table 1, the barbell's Omega(n^2) -- is a function of rank evolution only,
/// so a rank tracker answers the identical insert verdicts at a fraction of
/// the memory.
///
/// Stream-identity contract (pinned by test_rank_tracker.cpp): a protocol run
/// over a rank tracker consumes the exact same RNG stream and produces the
/// exact same verdicts as the same run over the full decoder of its row
/// trait.  insert() draws no randomness, and the combination builders draw
/// one coefficient per stored row in the same order with the same sampler
/// whether or not a payload rides along (packed GF(2) rows: one bit per row,
/// 64 rows per draw).
///
/// Storage: rows live in one flat arena, each row a contiguous
/// [coeffs | payload] stripe, so the elimination loops stay on one cache
/// stream and the coefficient tail and the payload are updated by ONE fused
/// axpy / xor_words per elimination.  Packed GF(2) rows of at most
/// gf::kInlineXorWords words (rank-only rows up to k = 256) never dispatch,
/// and neither the transmit rule nor back-elimination branches on a random
/// coefficient bit: the first walks the set bits of each random word, the
/// second XORs under a mask.  The RREF prefix invariant (a stored row
/// is zero strictly before its pivot column) means eliminating at column p
/// only touches [p, stride).  insert() stages the incoming row directly in
/// the arena's next free row, so there is no steady-state allocation and no
/// copy-back.  Owning full decoders allocate the full-rank arena up front
/// without zero-filling it (rows are written as they are appended), 32-byte
/// aligned with the row pitch padded to a 32-byte multiple so every stripe
/// starts on a SIMD-friendly boundary; pad symbols are zeroed on append and
/// never read.  Rank-only rows are short, so they stay unpadded.
///
/// Mutability flows from the state: a const view (or a const owning
/// decoder) has no insert()/clear().  The scratch stripe contains() reduces
/// in is per-call workspace, never decoder state, so it stays writable behind
/// const access; the pooled stores give each shard its own stripe.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <new>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "gf/bulk_ops.hpp"
#include "gf/field_concept.hpp"
#include "util/aligned.hpp"
#include "util/urbg.hpp"

namespace ag::linalg {

/// Sentinel for "no stored row owns this pivot column".
inline constexpr std::uint32_t kNoPivot = 0xFFFFFFFFu;

/// Column search result meaning "every nonzero column has a stored pivot".
inline constexpr std::size_t kNoColumn = static_cast<std::size_t>(-1);

/// A coded packet: coefficient vector over F (length k) plus payload symbols
/// over the same field (length r).  The pair represents the linear equation
///   sum_i coeffs[i] * x_i = payload.
template <gf::GaloisField F>
struct DensePacket {
  std::vector<typename F::value_type> coeffs;
  std::vector<typename F::value_type> payload;

  bool is_zero() const noexcept {
    for (auto c : coeffs)
      if (c != F::zero) return false;
    return true;
  }
};

/// A GF(2) coded packet; coefficients and payload both bit/word packed.
struct BitPacket {
  std::vector<std::uint64_t> coeffs;   // ceil(k/64) words
  std::vector<std::uint64_t> payload;  // payload words

  bool is_zero() const noexcept {
    for (auto w : coeffs)
      if (w != 0) return false;
    return true;
  }
};

// ---------------------------------------------------------------------------
// Row traits: the field-specific parts of the algorithm.
// ---------------------------------------------------------------------------

/// \brief Rows of one field element per symbol (any F; GF(256) rows run on
/// the SIMD backend's axpy/scale kernels).
template <gf::GaloisField F>
struct SymbolRows {
  using value_type = typename F::value_type;
  using packet_type = DensePacket<F>;

  static constexpr std::size_t words_for(std::size_t k) noexcept { return k; }
  static void set_unit(value_type* coeffs, std::size_t i) noexcept { coeffs[i] = F::one; }

  /// Forward-eliminates `row` against the stored rows (`pitch` apart, pivot
  /// column -> row map `pivots`), updating [p, width) tails, and returns the
  /// first column that has no stored pivot (kNoColumn if none).  Eliminating
  /// at column p uses a stored row that is zero before p, so one left-to-right
  /// pass suffices.  kStopAtFree returns at that column instead of reducing on.
  template <bool kStopAtFree>
  static std::size_t reduce(value_type* row, std::size_t k, std::size_t width,
                            const value_type* rows, std::size_t pitch,
                            const std::uint32_t* pivots) noexcept {
    std::size_t free_col = kNoColumn;
    for (std::size_t p = 0; p < k; ++p) {
      const value_type c = row[p];
      if (c == F::zero) continue;
      const std::uint32_t ri = pivots[p];
      if (ri == kNoPivot) {
        if constexpr (kStopAtFree) return p;
        if (free_col == kNoColumn) free_col = p;
        continue;
      }
      gf::axpy<F>({row + p, width - p}, {rows + ri * pitch + p, width - p}, c);
    }
    return free_col;
  }

  /// Scales the new row so its pivot is 1 (its prefix is already zero).
  static void normalize(value_type* row, std::size_t pivot, std::size_t width) noexcept {
    gf::scale<F>({row + pivot, width - pivot}, F::inv(row[pivot]));
  }

  /// Clears column `pivot` of stored row `r` with the new (normalized) row.
  static void eliminate(value_type* r, const value_type* row, std::size_t pivot,
                        std::size_t width) noexcept {
    const value_type c = r[pivot];
    if (c != F::zero) {
      gf::axpy<F>({r + pivot, width - pivot}, {row + pivot, width - pivot}, c);
    }
  }

  /// dst += c * src[0, dst.size()).
  static void add(std::span<value_type> dst, const value_type* src,
                  value_type c) noexcept {
    gf::axpy<F>(dst, {src, dst.size()}, c);
  }

  /// The RLNC transmit rule's coefficients: one uniform draw over F_q per
  /// stored row, in row order, so the all-zero combination is possible,
  /// exactly as the paper assumes when it lower-bounds helpfulness by
  /// 1 - 1/q.  Calls add(i, c) for every row i < rank drawn nonzero.
  template <typename URBG, typename Add>
  static void combine(URBG& rng, std::size_t rank, Add&& add) {
    for (std::size_t i = 0; i < rank; ++i) {
      const auto c = static_cast<value_type>(util::uniform_below(rng, F::order));
      if (c != F::zero) add(i, c);
    }
  }
  /// The sparse variant's coefficient: uniform over the nonzero elements.
  template <typename URBG>
  static value_type draw_nonzero(URBG& rng) {
    return static_cast<value_type>(1 + util::uniform_below(rng, F::order - 1));
  }

  /// Maps an arbitrary 64-bit word to a valid payload symbol of this field.
  static value_type payload_symbol_from(std::uint64_t w) noexcept {
    return static_cast<value_type>(w % F::order);
  }
  /// Wire size (Section 2: "the length of each message is r log2 q + k log2 q
  /// bits").
  static double symbol_bits() noexcept {
    return std::log2(static_cast<double>(F::order));
  }
  static double packet_bits(std::size_t k, std::size_t payload_len) noexcept {
    return static_cast<double>(k + payload_len) * symbol_bits();
  }

  /// Symbols outside the field: only expressible when the carrier type has
  /// spare range (GF(2)/GF(16) ride in a uint8).  For GF(256)/GF(65536) the
  /// carrier range IS the field and this is a compile-time false.
  static bool noncanonical(const packet_type& pkt, std::size_t /*k*/) noexcept {
    constexpr auto carrier_max = static_cast<std::uint64_t>(
        std::numeric_limits<value_type>::max());
    if constexpr (carrier_max >= static_cast<std::uint64_t>(F::order)) {
      const auto stray = [](value_type s) {
        return static_cast<std::uint32_t>(s) >= F::order;
      };
      return std::any_of(pkt.coeffs.begin(), pkt.coeffs.end(), stray) ||
             std::any_of(pkt.payload.begin(), pkt.payload.end(), stray);
    }
    return false;
  }
};

/// \brief GF(2) rows packed 64 coefficient columns per word; payload symbols
/// are whole words.  The workhorse of the big stopping-time sweeps: the
/// paper's bounds hold for every q >= 2, and q = 2 only changes the
/// helpfulness constant from 1 - 1/q to 1/2, not the order.
struct WordRows {
  using value_type = std::uint64_t;
  using packet_type = BitPacket;

  static constexpr std::size_t words_for(std::size_t k) noexcept { return (k + 63) / 64; }
  static void set_unit(value_type* coeffs, std::size_t i) noexcept {
    coeffs[i / 64] = value_type{1} << (i % 64);
  }

  /// SymbolRows::reduce over packed words.  Clears every set bit that has a
  /// stored pivot, lowest first; pivot-free bits already seen are kept in a
  /// skip mask and never disturbed.  A stored row's first set bit is its
  /// pivot, so each elimination XORs the [w, width) word tail.
  template <bool kStopAtFree>
  static std::size_t reduce(value_type* row, std::size_t k, std::size_t width,
                            const value_type* rows, std::size_t pitch,
                            const std::uint32_t* pivots) noexcept {
    std::size_t free_col = kNoColumn;
    const std::size_t words = words_for(k);
    for (std::size_t w = 0; w < words; ++w) {
      value_type skip = 0;
      for (value_type live; (live = row[w] & ~skip) != 0;) {
        const auto bit = static_cast<std::size_t>(std::countr_zero(live));
        const std::size_t col = w * 64 + bit;
        const std::uint32_t ri = pivots[col];
        if (ri == kNoPivot) {
          if constexpr (kStopAtFree) return col;
          if (free_col == kNoColumn) free_col = col;
          skip |= value_type{1} << bit;
        } else {
          gf::xor_words({row + w, width - w}, {rows + ri * pitch + w, width - w});
        }
      }
    }
    return free_col;
  }

  /// Over GF(2) every pivot is already 1.
  static void normalize(value_type* /*row*/, std::size_t /*pivot*/,
                        std::size_t /*width*/) noexcept {}

  /// A tail of at most gf::kInlineXorWords words is XORed under a mask made
  /// from the pivot bit, so the 50/50 bit costs no branch; a longer tail
  /// tests the bit and dispatches.
  static void eliminate(value_type* r, const value_type* row, std::size_t pivot,
                        std::size_t width) noexcept {
    const std::size_t w = pivot / 64;
    const value_type bit = (r[w] >> (pivot % 64)) & 1;
    if (width - w <= gf::kInlineXorWords) {
      const value_type mask = value_type{0} - bit;
      for (std::size_t i = w; i < width; ++i) r[i] ^= row[i] & mask;
    } else if (bit != 0) {
      gf::xor_words({r + w, width - w}, {row + w, width - w});
    }
  }

  static void add(std::span<value_type> dst, const value_type* src,
                  value_type /*c*/) noexcept {
    gf::xor_words(dst, {src, dst.size()});
  }

  /// Each stored row joins with probability 1/2: row i takes bit i % 64 of
  /// the (i / 64)-th util::random_bits(rng, 64) batch, so any URBG width is
  /// handled.  Each batch is masked to the rows it covers and its set bits
  /// are walked with countr_zero: no branch depends on a random bit.
  template <typename URBG, typename Add>
  static void combine(URBG& rng, std::size_t rank, Add&& add) {
    for (std::size_t base = 0; base < rank; base += 64) {
      value_type bits = util::random_bits(rng, 64);
      if (rank - base < 64) bits &= (value_type{1} << (rank - base)) - 1;
      for (; bits != 0; bits &= bits - 1) {
        add(base + static_cast<std::size_t>(std::countr_zero(bits)), value_type{1});
      }
    }
  }
  /// Over GF(2) the only nonzero coefficient is 1: no draw.
  template <typename URBG>
  static value_type draw_nonzero(URBG& /*rng*/) noexcept {
    return 1;
  }

  /// Any 64-bit value is a valid payload word.
  static value_type payload_symbol_from(std::uint64_t w) noexcept { return w; }
  static double symbol_bits() noexcept { return 64.0; }  // one payload word
  static double packet_bits(std::size_t k, std::size_t payload_words) noexcept {
    return static_cast<double>(k) + static_cast<double>(payload_words) * 64.0;
  }

  /// Nonzero spare bits above k in the last coefficient word (the rule the
  /// wire decoder enforces as DecodeStatus::BadSymbol).  Requires the word
  /// count to be checked first.
  static bool noncanonical(const packet_type& pkt, std::size_t k) noexcept {
    return k % 64 != 0 && (pkt.coeffs.back() & (~value_type{0} << (k % 64))) != 0;
  }
};

// ---------------------------------------------------------------------------
// States: where the rows, pivot map, rank counter and scratch live.
// ---------------------------------------------------------------------------

/// Row geometry: k columns in `words` coefficient symbols, then `payload`
/// payload symbols; consecutive rows lie `pitch` >= words + payload apart.
struct RowShape {
  std::size_t k;
  std::size_t words;
  std::size_t payload;
  std::size_t pitch;
};

/// 32-byte-aligned arena storage whose resize()/sized construction leaves
/// the symbols uninitialised: the full-rank arena is allocated up front but
/// its pages are only touched as rows are appended.
template <typename T>
struct ArenaAllocator : util::AlignedAllocator<T, 32> {
  template <typename U>
  struct rebind {
    using other = ArenaAllocator<U>;
  };
  ArenaAllocator() noexcept = default;
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& /*other*/) noexcept {}
  // Default-initialise (a no-op for the symbol types) instead of zeroing;
  // constructions with arguments fall back to allocator_traits' default.
  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
};

/// \brief One node's own rows.  kWithPayload = false is a rank tracker: the
/// payload width is 0 whatever the caller asks for, and rows stay unpadded.
template <typename Row, bool kWithPayload>
class OwnedRows {
 public:
  using row_traits = Row;
  static constexpr bool kPayload = kWithPayload;
  static constexpr bool kWritable = true;

  /// k: number of unknown messages; payload_len: symbols per message
  /// payload (accepted and ignored by rank trackers, so they are
  /// signature-compatible with the decoders they stand in for).
  explicit OwnedRows(std::size_t k, std::size_t payload_len = 0)
      : shape_{k, Row::words_for(k), kPayload ? payload_len : 0,
               pitch_for(Row::words_for(k) + (kPayload ? payload_len : 0))},
        arena_(k * shape_.pitch),
        scratch_(shape_.words),
        pivots_(k, kNoPivot) {}

  // Not copyable: rows past rank() are uninitialised, so a memberwise copy
  // would read them (and no caller copies a decoder).
  OwnedRows(const OwnedRows&) = delete;
  OwnedRows& operator=(const OwnedRows&) = delete;
  OwnedRows(OwnedRows&&) noexcept = default;
  OwnedRows& operator=(OwnedRows&&) noexcept = default;

 protected:
  const RowShape& shape() const noexcept { return shape_; }
  typename Row::value_type* rows() noexcept { return arena_.data(); }
  const typename Row::value_type* rows() const noexcept { return arena_.data(); }
  std::uint32_t* pivots() noexcept { return pivots_.data(); }
  const std::uint32_t* pivots() const noexcept { return pivots_.data(); }
  std::uint32_t* rank_ptr() noexcept { return &rank_; }
  const std::uint32_t* rank_ptr() const noexcept { return &rank_; }
  typename Row::value_type* scratch() const noexcept { return scratch_.data(); }

 private:
  static std::size_t pitch_for(std::size_t stride) noexcept {
    if constexpr (kPayload) {
      return util::round_up_elems<32, sizeof(typename Row::value_type)>(stride);
    }
    return stride;
  }

  using arena_type =
      std::vector<typename Row::value_type, ArenaAllocator<typename Row::value_type>>;

  RowShape shape_;
  std::uint32_t rank_ = 0;
  arena_type arena_;             // k rows of shape_.pitch symbols; rank_ live
  mutable arena_type scratch_;   // contains() workspace, never decoder state
  std::vector<std::uint32_t> pivots_;  // pivot column -> row index, kNoPivot if none
};

/// \brief A view of one node's rank-only rows inside a pooled store
/// (core/swarm_storage.hpp): unpadded rows, pivot map, rank counter and the
/// scratch stripe of the node's shard.  kMutable = false is the read-only
/// view a const store hands out.
template <typename Row, bool kMutable>
class PoolView {
 public:
  using row_traits = Row;
  static constexpr bool kPayload = false;
  static constexpr bool kWritable = kMutable;

  template <typename T>
  using ptr = std::conditional_t<kMutable, T*, const T*>;

  /// \param rows k stripes of words_for(k) symbols (the first *rank are live)
  /// \param pivots k entries mapping pivot column -> row index (kNoPivot)
  /// \param rank live row count
  /// \param scratch one stripe of words_for(k) symbols, clobbered by contains()
  PoolView(ptr<typename Row::value_type> rows, ptr<std::uint32_t> pivots,
           ptr<std::uint32_t> rank, typename Row::value_type* scratch,
           std::size_t k) noexcept
      : shape_{k, Row::words_for(k), 0, Row::words_for(k)},
        rows_(rows), pivots_(pivots), rank_(rank), scratch_(scratch) {}

 protected:
  const RowShape& shape() const noexcept { return shape_; }
  ptr<typename Row::value_type> rows() const noexcept { return rows_; }
  ptr<std::uint32_t> pivots() const noexcept { return pivots_; }
  ptr<std::uint32_t> rank_ptr() const noexcept { return rank_; }
  typename Row::value_type* scratch() const noexcept { return scratch_; }

 private:
  RowShape shape_;
  ptr<typename Row::value_type> rows_;
  ptr<std::uint32_t> pivots_;
  ptr<std::uint32_t> rank_;
  typename Row::value_type* scratch_;
};

// ---------------------------------------------------------------------------
// The eliminator.
// ---------------------------------------------------------------------------

/// \brief Incremental RREF over any row trait and state.  Satisfies
/// linalg::RlncDecoder; see the file comment for the shapes.
template <typename State>
class Eliminator : public State {
  using Row = typename State::row_traits;

 public:
  using row_traits = Row;
  using value_type = typename Row::value_type;
  using packet_type = typename Row::packet_type;

  using State::State;

  static constexpr std::size_t words_for(std::size_t k) noexcept {
    return Row::words_for(k);
  }
  static value_type payload_symbol_from(std::uint64_t w) noexcept {
    return Row::payload_symbol_from(w);
  }
  static double symbol_bits() noexcept { return Row::symbol_bits(); }
  static double packet_bits(std::size_t k, std::size_t payload_len) noexcept {
    return Row::packet_bits(k, payload_len);
  }

  std::size_t message_count() const noexcept { return this->shape().k; }
  std::size_t payload_length() const noexcept { return this->shape().payload; }
  std::size_t rank() const noexcept { return *this->rank_ptr(); }
  bool full_rank() const noexcept { return rank() == message_count(); }
  /// Symbols per stored row: coefficients then payload, contiguous (the
  /// logical width; any alignment padding is private layout).
  std::size_t stride() const noexcept { return words() + payload_length(); }

  /// Returns to the empty state, keeping the arena: the generation scheduler
  /// (src/coding/) and churn resets recycle decoders without allocating.
  void clear() noexcept
    requires State::kWritable
  {
    *this->rank_ptr() = 0;
    std::fill_n(this->pivots(), message_count(), kNoPivot);
  }

  /// Builds the unit equation e_i * x = payload for an initial message a node
  /// holds at protocol start.  Rank-only states drop the payload.
  packet_type unit_packet(std::size_t i,
                          std::span<const value_type> payload = {}) const {
    assert(i < message_count());
    packet_type p;
    p.coeffs.assign(words(), 0);
    Row::set_unit(p.coeffs.data(), i);
    if constexpr (State::kPayload) {
      assert(payload.size() <= payload_length());
      p.payload.assign(payload.begin(), payload.end());
      p.payload.resize(payload_length(), 0);
    }
    return p;
  }

  /// Inserts a packet; returns true iff it increased the rank (was helpful).
  /// Payloads shorter than payload_length() are zero-padded; longer ones are
  /// a caller bug.  Rank-only states ignore the payload.  Draws no randomness.
  bool insert(const packet_type& pkt)
    requires State::kWritable
  {
    assert(pkt.coeffs.size() == words());
    const std::size_t r = rank();
    if (r == message_count()) return false;  // full rank: nothing is helpful

    // Stage the row in the arena's next free slot: [coeffs | payload | pad].
    value_type* row = this->rows() + r * pitch();
    std::copy(pkt.coeffs.begin(), pkt.coeffs.end(), row);
    if constexpr (State::kPayload) {
      assert(pkt.payload.size() <= payload_length());
      const std::size_t plen = std::min(pkt.payload.size(), payload_length());
      std::copy_n(pkt.payload.begin(), plen, row + words());
      std::fill(row + words() + plen, row + pitch(), value_type{0});
    }

    const std::size_t pivot = Row::template reduce<false>(
        row, message_count(), stride(), this->rows(), pitch(), this->pivots());
    if (pivot == kNoColumn) return false;  // linearly dependent: not helpful
    Row::normalize(row, pivot, stride());

    // Back-eliminate the pivot from every stored row to keep RREF.  A row
    // with a nonzero entry at `pivot` has its own pivot strictly before it,
    // so its prefix is untouched and the invariant holds.
    for (std::size_t i = 0; i < r; ++i) {
      Row::eliminate(this->rows() + i * pitch(), row, pivot, stride());
    }
    this->pivots()[pivot] = static_cast<std::uint32_t>(r);
    ++*this->rank_ptr();
    return true;
  }

  /// Whether `coeffs` lies in the stored row space.  Reduces in the scratch
  /// stripe; no allocation.
  bool contains(std::span<const value_type> coeffs) const {
    assert(coeffs.size() == words());
    value_type* tmp = this->scratch();
    std::copy(coeffs.begin(), coeffs.end(), tmp);
    return Row::template reduce<true>(tmp, message_count(), words(), this->rows(),
                                      pitch(), this->pivots()) == kNoColumn;
  }

  /// Emits a uniformly random linear combination of the stored equations
  /// (the RLNC transmit rule).  Returns false when nothing is stored.
  /// `out`'s buffers are reused: a caller recycling one packet allocates
  /// nothing.
  template <typename URBG>
  bool random_combination_into(URBG& rng, packet_type& out) const {
    const std::size_t r = rank();
    if (r == 0) return false;
    zero(out);
    Row::combine(rng, r, [&](std::size_t i, value_type c) { accumulate(out, i, c); });
    return true;
  }

  /// Sparse-coding variant (kodo-style density knob): each stored row joins
  /// independently with probability `density`, with a uniform nonzero
  /// coefficient.  The all-zero packet is emitted when no row is selected.
  template <typename URBG>
  bool random_combination_into(URBG& rng, double density, packet_type& out) const {
    const std::size_t r = rank();
    if (r == 0) return false;
    zero(out);
    for (std::size_t i = 0; i < r; ++i) {
      if (util::canonical_double(rng) >= density) continue;
      accumulate(out, i, Row::draw_nonzero(rng));
    }
    return true;
  }

  /// Store-and-forward variant (no recoding): a uniformly random stored
  /// equation verbatim.
  template <typename URBG>
  bool random_stored_row_into(URBG& rng, packet_type& out) const {
    if (rank() == 0) return false;
    const value_type* src = row(util::uniform_below(rng, rank()));
    out.coeffs.assign(src, src + words());
    out.payload.assign(src + words(), src + stride());
    return true;
  }

  template <typename URBG>
  std::optional<packet_type> random_combination(URBG& rng) const {
    return built([&](packet_type& p) { return random_combination_into(rng, p); });
  }
  template <typename URBG>
  std::optional<packet_type> random_combination(URBG& rng, double density) const {
    return built(
        [&](packet_type& p) { return random_combination_into(rng, density, p); });
  }
  template <typename URBG>
  std::optional<packet_type> random_stored_row(URBG& rng) const {
    return built([&](packet_type& p) { return random_stored_row_into(rng, p); });
  }

  /// True iff a combination emitted by `other` can be helpful to us, i.e.
  /// other's row space is not contained in ours (Definition 3: helpful node).
  template <typename Other>
  bool is_helpful_node(const Other& other) const {
    if (full_rank()) return false;
    for (std::size_t i = 0; i < other.rank(); ++i) {
      if (!contains(other.stored_coeff_row(i))) return true;
    }
    return false;
  }

  /// Stored coefficient row i (differential tests, is_helpful_node).
  std::span<const value_type> stored_coeff_row(std::size_t i) const {
    assert(i < rank());
    return {row(i), words()};
  }

  /// Message i's payload; requires full rank.  Empty for rank-only states,
  /// so RlncSwarm::decodes_correctly degenerates to the full-rank check.
  std::span<const value_type> decoded_message(std::size_t i) const {
    assert(full_rank() && i < message_count());
    return {row(this->pivots()[i]) + words(), payload_length()};
  }

 private:
  std::size_t words() const noexcept { return this->shape().words; }
  std::size_t pitch() const noexcept { return this->shape().pitch; }
  const value_type* row(std::size_t i) const noexcept {
    return this->rows() + i * pitch();
  }

  void zero(packet_type& out) const {
    out.coeffs.assign(words(), 0);
    out.payload.assign(payload_length(), 0);
  }

  // out += c * stored row i; coefficients and payload are separate buffers.
  void accumulate(packet_type& out, std::size_t i, value_type c) const {
    const value_type* src = row(i);
    Row::add(out.coeffs, src, c);
    if constexpr (State::kPayload) Row::add(out.payload, src + words(), c);
  }

  template <typename Fill>
  static std::optional<packet_type> built(Fill&& fill) {
    packet_type out;
    if (!fill(out)) return std::nullopt;
    return out;
  }
};

// ---------------------------------------------------------------------------
// The public names.
// ---------------------------------------------------------------------------

/// Full decoder with payload storage over field F.
template <gf::GaloisField F>
using DenseDecoder = Eliminator<OwnedRows<SymbolRows<F>, true>>;
/// Bit-packed GF(2) decoder with payload storage (payload in 64-bit words).
using BitDecoder = Eliminator<OwnedRows<WordRows, true>>;
/// Rank-only tracker over F: DenseDecoder<F>'s verdicts without the payload.
template <gf::GaloisField F>
using DenseRankTracker = Eliminator<OwnedRows<SymbolRows<F>, false>>;
/// Rank-only bit-packed GF(2) tracker: a k = 32 row is one word.
using BitRankTracker = Eliminator<OwnedRows<WordRows, false>>;

/// Views into the pooled stores (core/swarm_storage.hpp).
template <gf::GaloisField F>
using DenseRankTrackerRef = Eliminator<PoolView<SymbolRows<F>, true>>;
template <gf::GaloisField F>
using DenseRankTrackerConstRef = Eliminator<PoolView<SymbolRows<F>, false>>;
using BitRankTrackerRef = Eliminator<PoolView<WordRows, true>>;
using BitRankTrackerConstRef = Eliminator<PoolView<WordRows, false>>;

}  // namespace ag::linalg
