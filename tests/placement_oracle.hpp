// Test-side oracles for the placement walk and the Slurm matcher, built
// only from the definitions they must reproduce.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "mixradix/mr/decompose.hpp"
#include "mixradix/slurm/distribution.hpp"

namespace mr::testing {

/// Old core of each new rank, by definition: the inverse of
/// reorder_all_ranks (one decompose + compose per rank).
inline std::vector<std::int64_t> oracle_placement(const Hierarchy& h,
                                                  const Order& order) {
  const auto forward = reorder_all_ranks(h, order);
  std::vector<std::int64_t> inverse(forward.size());
  for (std::size_t old_rank = 0; old_rank < forward.size(); ++old_rank) {
    inverse[static_cast<std::size_t>(forward[old_rank])] =
        static_cast<std::int64_t>(old_rank);
  }
  return inverse;
}

/// Full scan: the first candidate whose whole task map equals `placement`.
inline std::optional<slurm::Distribution> oracle_distribution(
    const Hierarchy& h, const std::vector<std::int64_t>& placement) {
  const auto view = slurm::MachineView::from_hierarchy(h);
  for (const auto& d : slurm::candidate_distributions(view)) {
    if (slurm::task_map(view, d) == placement) return d;
  }
  return std::nullopt;
}

}  // namespace mr::testing
