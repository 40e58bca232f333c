#include "mixradix/mr/decompose.hpp"

#include <array>
#include <numeric>

#include "mixradix/util/expect.hpp"

namespace mr {

namespace {

/// The permutation check of compose() and PlacementWalk: `order` must list
/// every level of `h` exactly once.
void expect_order(const Hierarchy& h, const std::vector<int>& order) {
  MR_EXPECT(static_cast<int>(order.size()) == h.depth(),
            "order length must equal hierarchy depth");
  std::array<bool, kMaxDepth> seen{};
  for (const int level : order) {
    MR_EXPECT(level >= 0 && level < h.depth(), "order entry out of range");
    MR_EXPECT(!seen[static_cast<std::size_t>(level)], "order is not a permutation");
    seen[static_cast<std::size_t>(level)] = true;
  }
}

}  // namespace

std::vector<int> identity_order(int depth) {
  MR_EXPECT(depth >= 1, "depth must be positive");
  std::vector<int> order(static_cast<std::size_t>(depth));
  std::iota(order.begin(), order.end(), 0);
  return order;
}

std::vector<int> inverse_of_decompose_order(int depth) {
  MR_EXPECT(depth >= 1, "depth must be positive");
  std::vector<int> order(static_cast<std::size_t>(depth));
  for (int i = 0; i < depth; ++i) order[static_cast<std::size_t>(i)] = depth - 1 - i;
  return order;
}

Coords decompose(const Hierarchy& h, std::int64_t rank) {
  MR_EXPECT(rank >= 0 && rank < h.total(),
            "rank " + std::to_string(rank) + " out of range for " + h.to_string());
  Coords coords(static_cast<std::size_t>(h.depth()));
  // Algorithm 1: peel radices from the innermost level outward.
  for (int i = h.depth() - 1; i >= 0; --i) {
    const int radix = h.radix(i);
    coords[static_cast<std::size_t>(i)] = static_cast<int>(rank % radix);
    rank /= radix;
  }
  return coords;
}

std::int64_t compose(const Hierarchy& h, const Coords& coords,
                     const std::vector<int>& order) {
  MR_EXPECT(static_cast<int>(coords.size()) == h.depth(),
            "coordinate count must equal hierarchy depth");
  expect_order(h, order);
  std::int64_t rank = 0;
  std::int64_t factor = 1;
  // Algorithm 2: the level enumerated first (σ(0)) varies fastest.
  for (int i = 0; i < h.depth(); ++i) {
    const int level = order[static_cast<std::size_t>(i)];
    const int c = coords[static_cast<std::size_t>(level)];
    MR_EXPECT(c >= 0 && c < h.radix(level), "coordinate out of range for its level");
    rank += c * factor;
    factor *= h.radix(level);
  }
  return rank;
}

std::int64_t compose(const Hierarchy& h, const Coords& coords) {
  return compose(h, coords, inverse_of_decompose_order(h.depth()));
}

std::int64_t reorder_rank(const Hierarchy& h, std::int64_t rank,
                          const std::vector<int>& order) {
  return compose(h, decompose(h, rank), order);
}

std::vector<std::int64_t> reorder_all_ranks(const Hierarchy& h,
                                            const std::vector<int>& order) {
  std::vector<std::int64_t> out(static_cast<std::size_t>(h.total()));
  for (std::int64_t r = 0; r < h.total(); ++r) {
    out[static_cast<std::size_t>(r)] = reorder_rank(h, r, order);
  }
  return out;
}

PlacementWalk::PlacementWalk(const Hierarchy& h, const std::vector<int>& order) {
  expect_order(h, order);
  const std::size_t depth = order.size();
  for (std::size_t i = 0; i < depth; ++i) {
    digit_[i] = 0;
    radix_[i] = h.radix(order[i]);
    weight_[i] = h.leaves_below(order[i] + 1);
  }
  digit_[depth] = 0;
  radix_[depth] = 0;  // digit 0 never equals radix - 1: no rollover.
  weight_[depth] = h.total();
}

std::vector<std::int64_t> placement_of_new_ranks(const Hierarchy& h,
                                                 const std::vector<int>& order) {
  PlacementWalk walk(h, order);
  std::vector<std::int64_t> placement(static_cast<std::size_t>(h.total()));
  for (std::int64_t& core : placement) {
    core = walk.core();
    walk.next();
  }
  return placement;
}

}  // namespace mr
