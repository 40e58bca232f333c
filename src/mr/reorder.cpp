#include "mixradix/mr/reorder.hpp"

#include "mixradix/util/expect.hpp"

namespace mr {

ReorderPlan::ReorderPlan(Hierarchy hierarchy, Order order)
    : hierarchy_(std::move(hierarchy)), order_(std::move(order)) {
  MR_EXPECT(static_cast<int>(order_.size()) == hierarchy_.depth(),
            "order length must equal hierarchy depth");
  MR_EXPECT(is_permutation_of_iota(order_), "order is not a permutation");
  placement_ = placement_of_new_ranks(hierarchy_, order_);
  forward_.resize(placement_.size());
  for (std::size_t new_rank = 0; new_rank < placement_.size(); ++new_rank) {
    forward_[static_cast<std::size_t>(placement_[new_rank])] =
        static_cast<std::int64_t>(new_rank);
  }
}

std::int64_t ReorderPlan::new_rank(std::int64_t old_rank) const {
  MR_EXPECT(old_rank >= 0 && old_rank < hierarchy_.total(), "rank out of range");
  return forward_[static_cast<std::size_t>(old_rank)];
}

std::int64_t ReorderPlan::placement(std::int64_t new_rank) const {
  MR_EXPECT(new_rank >= 0 && new_rank < hierarchy_.total(), "rank out of range");
  return placement_[static_cast<std::size_t>(new_rank)];
}

std::int64_t ReorderPlan::subcomm_color(std::int64_t old_rank,
                                        std::int64_t comm_size) const {
  MR_EXPECT(comm_size >= 1 && hierarchy_.total() % comm_size == 0,
            "communicator size must divide the world size");
  return new_rank(old_rank) / comm_size;
}

std::int64_t ReorderPlan::subcomm_rank(std::int64_t old_rank,
                                       std::int64_t comm_size) const {
  MR_EXPECT(comm_size >= 1 && hierarchy_.total() % comm_size == 0,
            "communicator size must divide the world size");
  return new_rank(old_rank) % comm_size;
}

std::string ReorderPlan::rankfile() const {
  const std::int64_t cores_per_node = hierarchy_.leaves_below(1);
  std::string out;
  out.reserve(static_cast<std::size_t>(hierarchy_.total()) * 24);
  for (std::int64_t r = 0; r < hierarchy_.total(); ++r) {
    const std::int64_t core = placement(r);
    const std::int64_t node = core / cores_per_node;
    const std::int64_t slot = core % cores_per_node;
    out += "rank " + std::to_string(r) + "=+n" + std::to_string(node) +
           " slot=" + std::to_string(slot) + "\n";
  }
  return out;
}

}  // namespace mr
