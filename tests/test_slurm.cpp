// Fig. 2 golden tests: the Slurm --distribution value equivalent to every
// order on the ⟦2,2,4⟧ example machine, including the "Not possible" case.
#include "mixradix/slurm/distribution.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "mixradix/mr/decompose.hpp"
#include "mixradix/topo/presets.hpp"
#include "mixradix/util/expect.hpp"
#include "placement_oracle.hpp"

namespace mr::slurm {
namespace {

TEST(Distribution, ParseAndPrint) {
  EXPECT_EQ(Distribution::parse("block:block").to_string(), "block:block");
  EXPECT_EQ(Distribution::parse("block:cyclic").to_string(), "block:cyclic");
  EXPECT_EQ(Distribution::parse("cyclic:block").to_string(), "cyclic:block");
  EXPECT_EQ(Distribution::parse("cyclic:cyclic").to_string(), "cyclic:cyclic");
  EXPECT_EQ(Distribution::parse("plane=4").to_string(), "plane=4");
  EXPECT_EQ(Distribution::parse("block").to_string(), "block:block");
  // Slurm's fcyclic maps to our cyclic socket policy.
  EXPECT_EQ(Distribution::parse("block:fcyclic").to_string(), "block:cyclic");
}

TEST(Distribution, ParseRejectsJunk) {
  EXPECT_THROW(Distribution::parse("blocky"), invalid_argument);
  EXPECT_THROW(Distribution::parse("block:cyclic:block"), invalid_argument);
  EXPECT_THROW(Distribution::parse("plane=0"), invalid_argument);
  EXPECT_THROW(Distribution::parse("plane=4:cyclic"), invalid_argument);
}

TEST(MachineView, CollapsesDeepHierarchies) {
  const auto hydra = MachineView::from_hierarchy(Hierarchy({16, 2, 2, 8}));
  EXPECT_EQ(hydra.nodes, 16);
  EXPECT_EQ(hydra.sockets_per_node, 2);
  EXPECT_EQ(hydra.cores_per_socket, 16);  // fake level folded back in
  EXPECT_EQ(hydra.total_cores(), 512);

  const auto flat = MachineView::from_hierarchy(Hierarchy({4, 8}));
  EXPECT_EQ(flat.sockets_per_node, 1);
  EXPECT_EQ(flat.cores_per_socket, 8);
}

TEST(TaskMap, BlockBlockIsIdentity) {
  const MachineView m{2, 2, 4};
  const auto map = task_map(m, Distribution::parse("block:block"));
  for (std::int64_t i = 0; i < 16; ++i) {
    EXPECT_EQ(map[static_cast<std::size_t>(i)], i);
  }
}

TEST(TaskMap, CyclicCyclicRoundRobins) {
  const MachineView m{2, 2, 4};
  const auto map = task_map(m, Distribution::parse("cyclic:cyclic"));
  EXPECT_EQ(map[0], 0);   // node 0, socket 0, core 0
  EXPECT_EQ(map[1], 8);   // node 1, socket 0, core 0
  EXPECT_EQ(map[2], 4);   // node 0, socket 1, core 0
  EXPECT_EQ(map[3], 12);  // node 1, socket 1, core 0
  EXPECT_EQ(map[4], 1);   // node 0, socket 0, core 1
}

// Fig. 2 captions: the --distribution value below each order.
struct Fig2Row {
  const char* order;
  const char* distribution;  // nullptr = "Not possible"
};

// Test ids name a row by its order, not by the struct's bytes (which are
// string-literal addresses and change from one build to the next): the
// printer feeds the ctest id, the name generator the gtest name.
void PrintTo(const Fig2Row& row, std::ostream* os) { *os << row.order; }

std::string fig2_row_name(const ::testing::TestParamInfo<Fig2Row>& info) {
  std::string name = info.param.order;
  std::erase(name, '-');
  return name;
}

class Fig2 : public ::testing::TestWithParam<Fig2Row> {};

TEST_P(Fig2, DistributionEquivalence) {
  const Hierarchy h{2, 2, 4};
  const Order order = parse_order(GetParam().order);
  const auto found = equivalent_distribution(h, order);
  if (GetParam().distribution == nullptr) {
    EXPECT_FALSE(found.has_value());
  } else {
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(found->to_string(), GetParam().distribution);
  }
}

TEST_P(Fig2, OrderEquivalenceIsTheInverse) {
  const Hierarchy h{2, 2, 4};
  if (GetParam().distribution == nullptr) return;
  const auto order = equivalent_order(h, Distribution::parse(GetParam().distribution));
  ASSERT_TRUE(order.has_value());
  // The distribution's map must equal the claimed order's map (several
  // orders can tie; compare maps, not the orders themselves).
  EXPECT_EQ(placement_of_new_ranks(h, *order),
            placement_of_new_ranks(h, parse_order(GetParam().order)));
}

INSTANTIATE_TEST_SUITE_P(
    PaperCaptions, Fig2,
    ::testing::Values(Fig2Row{"0-1-2", "cyclic:cyclic"},
                      Fig2Row{"0-2-1", "cyclic:block"},
                      Fig2Row{"1-0-2", nullptr},  // "Not possible"
                      Fig2Row{"1-2-0", "block:cyclic"},
                      Fig2Row{"2-0-1", "plane=4"},
                      Fig2Row{"2-1-0", "block:block"}),
    fig2_row_name);

// Fig. 2's full reordered-rank layouts, read row by row off the figure:
// position = physical core (node-major), value = reordered rank.
TEST(Fig2Layouts, AllSixOrders) {
  const Hierarchy h{2, 2, 4};
  const auto layout = [&](const char* order) {
    return reorder_all_ranks(h, parse_order(order));
  };
  using V = std::vector<std::int64_t>;
  EXPECT_EQ(layout("0-1-2"),
            (V{0, 4, 8, 12, 2, 6, 10, 14, 1, 5, 9, 13, 3, 7, 11, 15}));
  EXPECT_EQ(layout("0-2-1"),
            (V{0, 2, 4, 6, 8, 10, 12, 14, 1, 3, 5, 7, 9, 11, 13, 15}));
  EXPECT_EQ(layout("1-0-2"),
            (V{0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15}));
  EXPECT_EQ(layout("1-2-0"),
            (V{0, 2, 4, 6, 1, 3, 5, 7, 8, 10, 12, 14, 9, 11, 13, 15}));
  EXPECT_EQ(layout("2-0-1"),
            (V{0, 1, 2, 3, 8, 9, 10, 11, 4, 5, 6, 7, 12, 13, 14, 15}));
  EXPECT_EQ(layout("2-1-0"),
            (V{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}));
}

// The paper's defaults: Hydra's Slurm default is block:cyclic == [1,3,2,0]
// (Fig. 3 legend); LUMI's is block:block == identity ([4,3,2,1,0], Fig. 5).
TEST(Defaults, HydraDefaultIsBlockCyclic) {
  const Hierarchy hydra{16, 2, 2, 8};
  const auto dist = equivalent_distribution(hydra, parse_order("1-3-2-0"));
  ASSERT_TRUE(dist.has_value());
  EXPECT_EQ(dist->to_string(), "block:cyclic");
}

TEST(Defaults, LumiDefaultIsBlockBlock) {
  const Hierarchy lumi{16, 2, 4, 2, 8};
  const auto dist = equivalent_distribution(lumi, parse_order("4-3-2-1-0"));
  ASSERT_TRUE(dist.has_value());
  EXPECT_EQ(dist->to_string(), "block:block");
}

TEST(TaskMap, PlaneSizeValidation) {
  const MachineView m{2, 2, 4};
  EXPECT_THROW(task_map(m, Distribution{NodeDist::Plane, SocketDist::Block, 3}),
               invalid_argument);
  EXPECT_THROW(task_map(m, Distribution{NodeDist::Plane, SocketDist::Block, 0}),
               invalid_argument);
}

TEST(TaskMap, EveryDistributionIsAPermutation) {
  const MachineView m{4, 2, 8};
  std::vector<Distribution> dists;
  for (const char* s : {"block:block", "block:cyclic", "cyclic:block",
                        "cyclic:cyclic", "plane=2", "plane=4", "plane=8"}) {
    dists.push_back(Distribution::parse(s));
  }
  for (const auto& d : dists) {
    auto map = task_map(m, d);
    std::sort(map.begin(), map.end());
    for (std::int64_t i = 0; i < m.total_cores(); ++i) {
      ASSERT_EQ(map[static_cast<std::size_t>(i)], i) << d.to_string();
    }
  }
}


TEST(CandidateDistributions, BlockCyclicThenDividingPlanes) {
  std::string listed;
  for (const auto& d : candidate_distributions(MachineView{2, 2, 4})) {
    listed += d.to_string() + " ";
  }
  EXPECT_EQ(listed, "block:block block:cyclic cyclic:block cyclic:cyclic "
                    "plane=2 plane=4 ");
}

// The streamed early-exit matcher against a full scan (whole task maps
// compared with the oracle placement) over the same candidate list, for
// every order: Fig. 2's machine, the paper presets, and the seven depth-7
// listing hierarchies (six binary levels and one 4-way level).
class StreamedMatch : public ::testing::TestWithParam<std::vector<int>> {};

TEST_P(StreamedMatch, EquivalentDistributionEqualsFullScan) {
  const Hierarchy h(GetParam());
  std::int64_t found = 0;
  for (const Order& order : all_orders_lexicographic(h.depth())) {
    const auto expected = mr::testing::oracle_distribution(
        h, mr::testing::oracle_placement(h, order));
    const auto got = equivalent_distribution(h, order);
    ASSERT_EQ(got.has_value(), expected.has_value())
        << h.to_string() << " order " << order_to_string(order);
    if (got) {
      ASSERT_EQ(*got, *expected)
          << h.to_string() << " order " << order_to_string(order);
      ++found;
    }
  }
  EXPECT_GT(found, 0);
}

TEST_P(StreamedMatch, EquivalentOrderEqualsFullScan) {
  const Hierarchy h(GetParam());
  const auto view = MachineView::from_hierarchy(h);
  const auto orders = all_orders_lexicographic(h.depth());
  std::vector<std::vector<std::int64_t>> placements;
  for (const Order& order : orders) {
    placements.push_back(mr::testing::oracle_placement(h, order));
  }
  for (const auto& d : candidate_distributions(view)) {
    const auto map = task_map(view, d);
    std::optional<Order> expected;
    for (std::size_t i = 0; i < orders.size() && !expected; ++i) {
      if (placements[i] == map) expected = orders[i];
    }
    EXPECT_EQ(equivalent_order(h, d), expected) << d.to_string();
  }
}

std::vector<std::vector<int>> streamed_match_hierarchies() {
  std::vector<std::vector<int>> out = {
      {2, 2, 4},  // Fig. 2, including the "Not possible" [1,0,2]
      topo::hydra(16).hierarchy().radices(),
      topo::lumi(16).hierarchy().radices()};
  for (std::size_t wide = 0; wide < 7; ++wide) {
    std::vector<int> radices(7, 2);
    radices[wide] = 4;
    out.push_back(radices);
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Hierarchies, StreamedMatch,
                         ::testing::ValuesIn(streamed_match_hierarchies()));

TEST(StreamedMatch, Fig2NotPossibleOrderHasNoCandidate) {
  const Hierarchy h{2, 2, 4};
  const Order order = parse_order("1-0-2");
  EXPECT_FALSE(mr::testing::oracle_distribution(
                   h, mr::testing::oracle_placement(h, order))
                   .has_value());
  EXPECT_FALSE(equivalent_distribution(h, order).has_value());
}

}  // namespace
}  // namespace mr::slurm
