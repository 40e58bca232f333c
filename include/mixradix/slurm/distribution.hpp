// A faithful model of the Slurm task-distribution options the paper
// compares against (§3.4): --distribution=<node>:<socket> with the block /
// cyclic policies and the plane=<k> node policy, plus --cpu-bind=map_cpu.
//
// Slurm can only steer two hierarchy levels (node and socket); everything
// below a socket is filled in physical-id order. This is precisely the
// limitation the mixed-radix technique lifts, and the reason Fig. 2's
// order [1,0,2] has no --distribution equivalent.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "mixradix/mr/hierarchy.hpp"
#include "mixradix/mr/permutation.hpp"

namespace mr::slurm {

enum class NodeDist { Block, Cyclic, Plane };
enum class SocketDist { Block, Cyclic };

/// A parsed --distribution value.
struct Distribution {
  NodeDist node = NodeDist::Block;
  SocketDist socket = SocketDist::Block;
  int plane_size = 0;  ///< only meaningful when node == Plane.

  /// Parse "block:cyclic", "cyclic:block", "block", "plane=4", ...
  static Distribution parse(std::string_view text);

  /// Canonical rendering ("block:cyclic", "plane=4").
  std::string to_string() const;

  friend bool operator==(const Distribution&, const Distribution&) = default;
};

/// The three-level view Slurm has of a machine. Deeper hierarchies are
/// collapsed: every level below the socket becomes part of
/// `cores_per_socket`, enumerated by physical id.
struct MachineView {
  std::int64_t nodes = 0;
  std::int64_t sockets_per_node = 0;
  std::int64_t cores_per_socket = 0;

  std::int64_t cores_per_node() const { return sockets_per_node * cores_per_socket; }
  std::int64_t total_cores() const { return nodes * cores_per_node(); }

  /// Collapse a full hierarchy: level 0 = nodes, level 1 = sockets,
  /// levels >= 2 merged into cores_per_socket. Depth must be >= 2; a
  /// 2-level hierarchy is treated as single-socket nodes.
  static MachineView from_hierarchy(const Hierarchy& h);
};

/// Slurm's task->core map when every core runs one task: result[rank] is
/// the global core id (node * cores_per_node + socket * cores_per_socket +
/// core) hosting that rank.
std::vector<std::int64_t> task_map(const MachineView& m, const Distribution& d);

/// The --distribution values equivalent_distribution() tries, in the
/// order it tries them: block:block, block:cyclic, cyclic:block,
/// cyclic:cyclic, then plane=k for every k in [2, cores_per_node) that
/// divides cores_per_node.
std::vector<Distribution> candidate_distributions(const MachineView& m);

/// Find the --distribution value whose task map equals the mixed-radix
/// order's map on hierarchy `h`: the first of candidate_distributions()
/// that matches. std::nullopt reproduces Fig. 2's "Not possible" caption
/// for order [1,0,2]. No map is materialised: the order's PlacementWalk is
/// streamed rank by rank against every live candidate, and a candidate is
/// dropped at its first mismatching rank, so the search usually ends
/// within a few ranks.
std::optional<Distribution> equivalent_distribution(const Hierarchy& h,
                                                    const Order& order);

/// The inverse direction: the order (if any) whose reordering equals this
/// distribution's map. Always exists for block/cyclic combinations on a
/// 3-level hierarchy; plane sizes not matching a level boundary have none.
std::optional<Order> equivalent_order(const Hierarchy& h, const Distribution& d);

}  // namespace mr::slurm
