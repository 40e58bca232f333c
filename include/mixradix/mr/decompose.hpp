// Mixed-radix decomposition and recomposition of ranks — Algorithms 1 and 2
// of the paper (Equations (1) and (2)).
//
// decompose() turns a rank into per-level coordinates; for rank 10 on
// ⟦2, 2, 4⟧ the result is [1, 0, 2]: node 1, socket 0, core 2. compose()
// rebuilds a rank from coordinates under a level permutation σ, which is
// the whole reordering trick: enumerating the levels in a different order
// renumbers every core.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "mixradix/mr/hierarchy.hpp"

namespace mr {

/// Per-level coordinates of a rank. coords[i] is the index within level i,
/// with i = 0 the outermost level (same orientation as Hierarchy).
using Coords = std::vector<int>;

/// Identity order [0, 1, ..., d-1].
std::vector<int> identity_order(int depth);

/// The order that makes compose() invert decompose(): [d-1, ..., 1, 0].
/// (The paper notes Algorithm 2 with [2,1,0] is the inverse of Algorithm 1
/// for a 3-level hierarchy.)
std::vector<int> inverse_of_decompose_order(int depth);

/// Algorithm 1: rank -> coordinates. `rank` must lie in [0, h.total()).
Coords decompose(const Hierarchy& h, std::int64_t rank);

/// Algorithm 2 / Equation (2): coordinates + permutation -> new rank.
///   r = c[σ(0)] + Σ_{i>=1} c[σ(i)] · Π_{j<i} h[σ(j)]
/// `order` must be a permutation of [0, h.depth()).
std::int64_t compose(const Hierarchy& h, const Coords& coords,
                     const std::vector<int>& order);

/// compose() with the natural order that undoes decompose().
std::int64_t compose(const Hierarchy& h, const Coords& coords);

/// One-call reordering of a single rank: decompose then compose under
/// `order`. This is "ComputeNewRank" used by Algorithm 3.
std::int64_t reorder_rank(const Hierarchy& h, std::int64_t rank,
                          const std::vector<int>& order);

/// Apply reorder_rank to every rank: result[old_rank] = new_rank.
/// The result is always a permutation of [0, h.total()).
std::vector<std::int64_t> reorder_all_ranks(const Hierarchy& h,
                                            const std::vector<int>& order);

/// Deepest possible hierarchy: every radix is >= 2 and the total fits an
/// int64, so there are at most 62 levels.
inline constexpr int kMaxDepth = 62;

/// The mixed-radix placement walk: visits new ranks 0, 1, 2, ... under
/// `order` and yields the old core carrying each one, without decomposing
/// or composing any rank. It is an odometer over the permuted radices:
/// position i (fastest-varying) holds the digit of level order[i], which
/// contributes digit * leaves_below(order[i] + 1) to the old core id, so
/// each step is amortised O(1) (a carry into position k happens once every
/// prod(radix of positions < k) steps). The walk lives in fixed inline
/// storage and never allocates.
class PlacementWalk {
 public:
  /// Validates `order` once, with the same messages as compose().
  PlacementWalk(const Hierarchy& h, const std::vector<int>& order);

  /// Old core carrying the current new rank; h.total() once the walk has
  /// stepped past the last rank.
  std::int64_t core() const noexcept { return core_; }

  /// Step to the next new rank.
  void next() noexcept {
    std::size_t i = 0;
    while (digit_[i] == radix_[i] - 1) {
      core_ -= static_cast<std::int64_t>(digit_[i]) * weight_[i];
      digit_[i] = 0;
      ++i;
    }
    ++digit_[i];
    core_ += weight_[i];
  }

 private:
  // One slot past the deepest level: a sentinel position whose radix never
  // rolls over and whose weight is h.total(), so stepping past the last
  // rank needs no bounds check.
  static constexpr std::size_t kSlots = kMaxDepth + 1;

  std::int64_t core_ = 0;
  std::array<int, kSlots> digit_;
  std::array<int, kSlots> radix_;
  std::array<std::int64_t, kSlots> weight_;
};

/// Inverse mapping: result[new_rank] = old_rank (i.e. which original core
/// carries each reordered rank). Useful to draw Fig. 2-style layouts.
/// One PlacementWalk; equal to inverting reorder_all_ranks(h, order).
std::vector<std::int64_t> placement_of_new_ranks(const Hierarchy& h,
                                                 const std::vector<int>& order);

}  // namespace mr
