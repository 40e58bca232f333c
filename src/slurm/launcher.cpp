#include <vector>

#include "mixradix/mr/decompose.hpp"
#include "mixradix/slurm/distribution.hpp"
#include "mixradix/util/expect.hpp"

namespace mr::slurm {

namespace {

/// Node-local slot (0..cores_per_node) of global rank `i`, plus its node,
/// under the node-level policy. Slots count tasks in global-rank order
/// within each node.
struct NodeSlot {
  std::int64_t node = 0;
  std::int64_t slot = 0;
};

NodeSlot node_slot(const MachineView& m, const Distribution& d, std::int64_t rank) {
  switch (d.node) {
    case NodeDist::Block:
      return {rank / m.cores_per_node(), rank % m.cores_per_node()};
    case NodeDist::Cyclic:
      return {rank % m.nodes, rank / m.nodes};
    case NodeDist::Plane: {
      // Blocks of plane_size tasks dealt round-robin across nodes; blocks
      // landing on the same node stack consecutively.
      const std::int64_t block = rank / d.plane_size;
      const std::int64_t offset = rank % d.plane_size;
      return {block % m.nodes, (block / m.nodes) * d.plane_size + offset};
    }
  }
  MR_ASSERT_INTERNAL(false);
  return {};
}

/// Global core hosting `rank` under `d`: the node policy picks the node
/// and the node-local slot, the socket policy splits the slot into socket
/// and core. Unchecked; callers validate with expect_layout first.
std::int64_t core_of(const MachineView& m, const Distribution& d,
                     std::int64_t rank) {
  const NodeSlot ns = node_slot(m, d, rank);
  std::int64_t socket = 0;
  std::int64_t core = 0;
  if (d.socket == SocketDist::Block) {
    socket = ns.slot / m.cores_per_socket;
    core = ns.slot % m.cores_per_socket;
  } else {
    socket = ns.slot % m.sockets_per_node;
    core = ns.slot / m.sockets_per_node;
  }
  return ns.node * m.cores_per_node() + socket * m.cores_per_socket + core;
}

void expect_layout(const MachineView& m, const Distribution& d) {
  MR_EXPECT(m.nodes >= 1 && m.sockets_per_node >= 1 && m.cores_per_socket >= 1,
            "machine view must be populated");
  if (d.node == NodeDist::Plane) {
    MR_EXPECT(d.plane_size >= 1 && d.plane_size <= m.cores_per_node(),
              "plane size out of range");
    MR_EXPECT(m.cores_per_node() % d.plane_size == 0,
              "plane size must divide the cores per node for a full layout");
  }
}

/// Stream the placement walk of `order` rank by rank against every live
/// candidate, dropping a candidate at its first mismatch and stopping once
/// none is left. Returns the first candidate (in `candidates` order) whose
/// task map equals the order's placement. The candidates must pass
/// expect_layout on `m`, which must be the view of `h`.
std::optional<Distribution> first_match(const Hierarchy& h, const Order& order,
                                        const MachineView& m,
                                        std::vector<Distribution> candidates) {
  PlacementWalk walk(h, order);
  const std::int64_t total = m.total_cores();
  for (std::int64_t rank = 0; rank < total && !candidates.empty();
       ++rank, walk.next()) {
    std::erase_if(candidates, [&](const Distribution& d) {
      return core_of(m, d, rank) != walk.core();
    });
  }
  if (candidates.empty()) return std::nullopt;
  return candidates.front();
}

}  // namespace

std::vector<std::int64_t> task_map(const MachineView& m, const Distribution& d) {
  expect_layout(m, d);
  std::vector<std::int64_t> map(static_cast<std::size_t>(m.total_cores()));
  for (std::size_t rank = 0; rank < map.size(); ++rank) {
    map[rank] = core_of(m, d, static_cast<std::int64_t>(rank));
  }
  return map;
}

std::vector<Distribution> candidate_distributions(const MachineView& m) {
  std::vector<Distribution> candidates;
  for (NodeDist nd : {NodeDist::Block, NodeDist::Cyclic}) {
    for (SocketDist sd : {SocketDist::Block, SocketDist::Cyclic}) {
      candidates.push_back(Distribution{nd, sd, 0});
    }
  }
  for (int k = 2; k < m.cores_per_node(); ++k) {
    if (m.cores_per_node() % k == 0) {
      candidates.push_back(Distribution{NodeDist::Plane, SocketDist::Block, k});
    }
  }
  return candidates;
}

std::optional<Distribution> equivalent_distribution(const Hierarchy& h,
                                                    const Order& order) {
  const MachineView m = MachineView::from_hierarchy(h);
  return first_match(h, order, m, candidate_distributions(m));
}

std::optional<Order> equivalent_order(const Hierarchy& h, const Distribution& d) {
  const MachineView m = MachineView::from_hierarchy(h);
  expect_layout(m, d);
  std::optional<Order> found;
  for_each_order(h.depth(), [&](const Order& order) {
    if (first_match(h, order, m, {d})) {
      found = order;
      return false;
    }
    return true;
  });
  return found;
}

}  // namespace mr::slurm
