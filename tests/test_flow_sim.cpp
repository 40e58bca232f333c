#include "mixradix/simnet/flow_sim.hpp"

#include <gtest/gtest.h>

#include "mixradix/simnet/path.hpp"
#include "mixradix/topo/presets.hpp"
#include "mixradix/util/expect.hpp"

#include <set>

namespace mr::simnet {
namespace {

TEST(FlowSim, SingleFlowDrainsAtCapacity) {
  FlowSim sim({100.0});  // 100 B/s
  sim.add_flow({0}, 500.0, 7);
  const auto done = sim.advance_and_pop();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_DOUBLE_EQ(done[0].time, 5.0);
  EXPECT_EQ(done[0].user, 7);
  EXPECT_EQ(sim.active_flows(), 0u);
}

TEST(FlowSim, TwoFlowsShareAChannelFairly) {
  FlowSim sim({100.0});
  const auto f1 = sim.add_flow({0}, 500.0, 1);
  const auto f2 = sim.add_flow({0}, 500.0, 2);
  EXPECT_DOUBLE_EQ(sim.flow_rate(f1), 50.0);
  EXPECT_DOUBLE_EQ(sim.flow_rate(f2), 50.0);
  const auto done = sim.advance_and_pop();
  // Both complete simultaneously and batch into one event.
  ASSERT_EQ(done.size(), 2u);
  EXPECT_DOUBLE_EQ(done[0].time, 10.0);
}

TEST(FlowSim, RatesRecomputeWhenAFlowFinishes) {
  FlowSim sim({100.0});
  sim.add_flow({0}, 100.0, 1);  // finishes first
  sim.add_flow({0}, 300.0, 2);
  auto done = sim.advance_and_pop();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].user, 1);
  EXPECT_DOUBLE_EQ(done[0].time, 2.0);  // 100 B at 50 B/s
  done = sim.advance_and_pop();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].user, 2);
  // Flow 2 had 300-2*50 = 200 B left, now alone at 100 B/s: +2 s.
  EXPECT_DOUBLE_EQ(done[0].time, 4.0);
}

TEST(FlowSim, MaxMinBottleneckSharing) {
  // Channel 0: cap 100 shared by A and B; channel 1: cap 30, used by B only.
  // Max-min: B is capped at 30 by channel 1; A gets the remaining 70.
  FlowSim sim({100.0, 30.0});
  const auto a = sim.add_flow({0}, 700.0, 1);
  const auto b = sim.add_flow({0, 1}, 300.0, 2);
  EXPECT_DOUBLE_EQ(sim.flow_rate(a), 70.0);
  EXPECT_DOUBLE_EQ(sim.flow_rate(b), 30.0);
}

TEST(FlowSim, EmptyChannelListIsInfinitelyFast) {
  FlowSim sim({100.0});
  sim.add_flow({}, 1e12, 1);
  const auto done = sim.advance_and_pop();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_DOUBLE_EQ(done[0].time, 0.0);
}

TEST(FlowSim, ZeroByteFlowCompletesInstantly) {
  FlowSim sim({100.0});
  sim.add_flow({0}, 0.0, 1);
  const auto done = sim.advance_and_pop();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_DOUBLE_EQ(done[0].time, 0.0);
}

TEST(FlowSim, DuplicateChannelIdsCollapse) {
  FlowSim sim({100.0});
  const auto f = sim.add_flow({0, 0, 0}, 100.0, 1);
  EXPECT_DOUBLE_EQ(sim.flow_rate(f), 100.0);
}

TEST(FlowSim, ValidatesInputs) {
  EXPECT_THROW(FlowSim({0.0}), invalid_argument);
  EXPECT_THROW(FlowSim({-1.0}), invalid_argument);
  FlowSim sim({10.0});
  EXPECT_THROW(sim.add_flow({1}, 10.0, 0), invalid_argument);
  EXPECT_THROW(sim.add_flow({0}, -5.0, 0), invalid_argument);
  EXPECT_THROW(sim.advance_to(-1.0), invalid_argument);
}

TEST(FlowSim, StaggeredArrival) {
  FlowSim sim({100.0});
  sim.add_flow({0}, 400.0, 1);
  sim.advance_to(2.0);  // flow 1 has 200 B left
  sim.add_flow({0}, 200.0, 2);
  // Both now at 50 B/s with 200 B each: finish together at t = 6.
  const auto done = sim.advance_and_pop();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_DOUBLE_EQ(done[0].time, 6.0);
}

TEST(FlowSim, InternedChanSetOverloadMatchesVectorOverload) {
  // The RouteTable fast path hands FlowSim pre-sorted inline channel sets;
  // both entry points must produce identical flows.
  FlowSim via_vector({100.0, 30.0});
  FlowSim via_set({100.0, 30.0});
  ChanSet set;
  set.ids[0] = 0;
  set.ids[1] = 1;
  set.count = 2;
  const auto fv = via_vector.add_flow({0, 1}, 300.0, 2);
  const auto fs = via_set.add_flow(set, 300.0, 2);
  EXPECT_EQ(via_set.flow_rate(fs), via_vector.flow_rate(fv));
  const auto done_vector = via_vector.advance_and_pop();
  const auto done_set = via_set.advance_and_pop();
  ASSERT_EQ(done_set.size(), 1u);
  EXPECT_EQ(done_set[0].time, done_vector[0].time);
}

TEST(FlowSim, StealScalesVictimsToTheFairShare) {
  // Deferred-mode steal: rates are clean, the newcomer's fair share is not
  // available as headroom, so the victims on the saturated channel scale
  // down proportionally and the newcomer gets exactly its fair share.
  FlowSim sim({100.0}, 0.01);
  const auto a = sim.add_flow({0}, 1000.0, 1);
  EXPECT_DOUBLE_EQ(sim.flow_rate(a), 100.0);  // recompute: rates now clean
  const auto b = sim.add_flow({0}, 1000.0, 2);  // headroom 0 -> steal
  EXPECT_DOUBLE_EQ(sim.flow_rate(a), 50.0);
  EXPECT_DOUBLE_EQ(sim.flow_rate(b), 50.0);
  EXPECT_EQ(sim.stats().full_recomputes, 1);  // no exact pass triggered
  EXPECT_EQ(sim.stats().deferred_rejections, 0);
  EXPECT_EQ(sim.stats().steals, 1);
}

TEST(FlowSim, StealRefusesCrowdedChannelsAndFallsBackToExact) {
  // A channel with more than 64 victims makes the proportional scaling
  // pass worth less than the exact recompute: the steal must refuse and
  // count a rejection, and the next query must deliver exact fairness.
  FlowSim sim({4290.0}, 0.01);  // 4290 = 65 * 66: both shares exact
  for (int i = 0; i < 65; ++i) sim.add_flow({0}, 1e6, i);
  EXPECT_DOUBLE_EQ(sim.flow_rate(0), 66.0);  // 4290 / 65, rates now clean
  const auto late = sim.add_flow({0}, 1e6, 65);
  EXPECT_EQ(sim.stats().deferred_rejections, 1);
  EXPECT_EQ(sim.stats().steals, 0);
  EXPECT_DOUBLE_EQ(sim.flow_rate(late), 65.0);  // exact pass: 4290 / 66
  EXPECT_EQ(sim.stats().full_recomputes, 2);
}

TEST(FlowSim, FlowRateQueryableAfterCompletion) {
  FlowSim sim({100.0});
  const auto a = sim.add_flow({0}, 100.0, 1);
  const auto b = sim.add_flow({0}, 300.0, 2);
  (void)sim.advance_and_pop();  // a completes at its last rate, 50 B/s
  EXPECT_DOUBLE_EQ(sim.flow_rate(a), 50.0);
  (void)sim.advance_and_pop();  // b finishes alone at full capacity
  EXPECT_DOUBLE_EQ(sim.flow_rate(b), 100.0);
  EXPECT_EQ(sim.active_flows(), 0u);
}

TEST(FlowSim, ChannelListsCompactUnderSequentialChurn) {
  // Hundreds of short flows over one channel leave dead entries in the
  // per-channel list; the lazy compaction must keep the simulation exact
  // while the list is repeatedly purged.
  FlowSim sim({100.0}, 0.01);
  double last = 0;
  for (int i = 0; i < 200; ++i) {
    sim.add_flow({0}, 100.0, i);
    const auto done = sim.advance_and_pop();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].user, i);
    last = done[0].time;
  }
  EXPECT_DOUBLE_EQ(last, 200.0);  // 1 s per flow, no time lost to churn
  EXPECT_EQ(sim.active_flows(), 0u);
}

TEST(FlowSim, HeapRegimeMatchesReferenceScan) {
  // Above kScanFlows active flows the incremental tracker switches from
  // the reference scan to the lazy deadline heap; completions must stay
  // bit-identical between the two modes through the regime crossing
  // (100 flows down to 0).
  std::vector<double> caps(100, 100.0);
  std::vector<std::vector<Completion>> runs;
  for (const bool incremental : {true, false}) {
    FlowSim sim;
    sim.reset(caps, 0.0, incremental);
    for (int i = 0; i < 100; ++i) {
      sim.add_flow({static_cast<ChannelId>(i)}, 100.0 * (i + 1), i);
    }
    std::vector<Completion> done;
    while (sim.active_flows() > 0) {
      const auto batch = sim.advance_and_pop();
      done.insert(done.end(), batch.begin(), batch.end());
    }
    runs.push_back(std::move(done));
  }
  ASSERT_EQ(runs[0].size(), 100u);
  ASSERT_EQ(runs[0].size(), runs[1].size());
  for (std::size_t i = 0; i < runs[0].size(); ++i) {
    EXPECT_EQ(runs[0][i].user, runs[1][i].user);
    EXPECT_EQ(runs[0][i].time, runs[1][i].time);  // exact, not NEAR
    EXPECT_DOUBLE_EQ(runs[0][i].time, static_cast<double>(i + 1));
  }
}

// Topology paths: verify channel lists against the machine structure.
TEST(Path, SelfMessageHasNoChannels) {
  const auto m = topo::testbox();
  EXPECT_TRUE(flow_channels(m, 3, 3).empty());
}

namespace {
std::multiset<ChannelId> as_set(const std::vector<ChannelId>& v) {
  return {v.begin(), v.end()};
}
}  // namespace

TEST(Path, IntraSocketUsesCoreLinksAndLocalMemory) {
  const auto m = topo::testbox();  // [2, 2, 4], mem on socket + core levels
  const auto ch = as_set(flow_channels(m, 0, 1));  // same socket
  EXPECT_TRUE(ch.contains(egress_channel(m, 2, 0)));
  EXPECT_TRUE(ch.contains(ingress_channel(m, 2, 1)));
  // Shared socket memory appears (twice pre-dedup: both endpoints).
  EXPECT_EQ(ch.count(memory_channel(m, 1, 0)), 2u);
  EXPECT_TRUE(ch.contains(memory_channel(m, 2, 0)));
  EXPECT_TRUE(ch.contains(memory_channel(m, 2, 1)));
  // No socket/node link crossings.
  EXPECT_FALSE(ch.contains(egress_channel(m, 1, 0)));
  EXPECT_FALSE(ch.contains(egress_channel(m, 0, 0)));
}

TEST(Path, CrossNodeClimbsAllLevels) {
  const auto m = topo::testbox();
  const auto ch = as_set(flow_channels(m, 0, 15));  // node 0 -> node 1 last core
  EXPECT_TRUE(ch.contains(egress_channel(m, 0, 0)));    // node 0 egress
  EXPECT_TRUE(ch.contains(ingress_channel(m, 0, 1)));   // node 1 ingress
  EXPECT_TRUE(ch.contains(egress_channel(m, 1, 0)));    // socket 0 egress
  EXPECT_TRUE(ch.contains(ingress_channel(m, 1, 3)));   // socket 3 ingress
  EXPECT_TRUE(ch.contains(egress_channel(m, 2, 0)));
  EXPECT_TRUE(ch.contains(ingress_channel(m, 2, 15)));
  // Memory of both endpoints' sockets, now distinct components.
  EXPECT_TRUE(ch.contains(memory_channel(m, 1, 0)));
  EXPECT_TRUE(ch.contains(memory_channel(m, 1, 3)));
}

TEST(FlowSimStats, ScriptedScenarioCountsDeferredAndFullRecomputes) {
  // With completion slack on, the second flow arrives after the first
  // completed and freed exactly its headroom: the deferred fast path
  // grants it without an exact recompute.
  FlowSim sim({100.0}, 0.01);
  sim.add_flow({0}, 100.0, 1);  // rates dirty at construction: no defer.
  auto done = sim.advance_and_pop();  // exact recompute #1, batch #1.
  ASSERT_EQ(done.size(), 1u);
  EXPECT_DOUBLE_EQ(done[0].time, 1.0);
  sim.add_flow({0}, 100.0, 2);        // deferred allocation #1.
  done = sim.advance_and_pop();       // rates still clean, batch #2.
  ASSERT_EQ(done.size(), 1u);
  EXPECT_DOUBLE_EQ(done[0].time, 2.0);

  const FlowSim::Stats& stats = sim.stats();
  EXPECT_EQ(stats.deferred_allocations, 1);
  EXPECT_EQ(stats.deferred_rejections, 0);
  EXPECT_EQ(stats.full_recomputes, 1);
  EXPECT_EQ(stats.pop_batches, 2);
}

TEST(FlowSimStats, ScriptedStealIsCounted) {
  // Each newcomer on the saturated channel takes its fair share from the
  // flows already there: a steal, not a headroom grant or a rejection.
  FlowSim sim({120.0}, 0.01);
  const auto first = sim.add_flow({0}, 1e6, 1);
  EXPECT_DOUBLE_EQ(sim.flow_rate(first), 120.0);  // exact recompute: clean.
  sim.add_flow({0}, 1e6, 2);  // headroom 0, fair share 60 -> steal #1.
  const auto third = sim.add_flow({0}, 1e6, 3);  // fair share 40 -> steal #2.
  EXPECT_DOUBLE_EQ(sim.flow_rate(third), 40.0);
  EXPECT_DOUBLE_EQ(sim.flow_rate(first), 40.0);

  const FlowSim::Stats& stats = sim.stats();
  EXPECT_EQ(stats.steals, 2);
  EXPECT_EQ(stats.deferred_allocations, 0);
  EXPECT_EQ(stats.deferred_rejections, 0);
  EXPECT_EQ(stats.full_recomputes, 1);
}

TEST(FlowSimStats, ExactModeNeverDefers) {
  // Slack 0 disables the fast path: every batch forces an exact pass.
  FlowSim sim({100.0});
  sim.add_flow({0}, 100.0, 1);
  sim.advance_and_pop();
  sim.add_flow({0}, 100.0, 2);
  sim.advance_and_pop();

  const FlowSim::Stats& stats = sim.stats();
  EXPECT_EQ(stats.deferred_allocations, 0);
  EXPECT_EQ(stats.deferred_rejections, 0);
  EXPECT_EQ(stats.steals, 0);
  EXPECT_EQ(stats.full_recomputes, 2);
  EXPECT_EQ(stats.pop_batches, 2);
}

TEST(FlowSimStats, InstancesAreIndependent) {
  // Formerly file-scope globals: one instance's traffic must not leak
  // into another's counters (a prerequisite for concurrent simulations).
  FlowSim busy({100.0}, 0.01);
  FlowSim idle({100.0}, 0.01);
  busy.add_flow({0}, 100.0, 1);
  busy.advance_and_pop();
  EXPECT_EQ(busy.stats().full_recomputes, 1);
  EXPECT_EQ(busy.stats().pop_batches, 1);
  EXPECT_EQ(idle.stats().full_recomputes, 0);
  EXPECT_EQ(idle.stats().pop_batches, 0);
  EXPECT_EQ(idle.stats().deferred_allocations, 0);
}

TEST(Path, MemoryChannelRequiresAModeledLevel) {
  const auto m = topo::testbox();  // node level has mem_bandwidth 0
  EXPECT_THROW(memory_channel(m, 0, 0), invalid_argument);
}

TEST(Path, CapacitiesMatchLevelBandwidths) {
  const auto m = topo::testbox();
  const auto caps = channel_capacities(m);
  ASSERT_EQ(caps.size(), static_cast<std::size_t>(3 * m.total_components()));
  EXPECT_DOUBLE_EQ(caps[static_cast<std::size_t>(egress_channel(m, 0, 0))], 1.0e9);
  EXPECT_DOUBLE_EQ(caps[static_cast<std::size_t>(ingress_channel(m, 1, 2))], 2.0e9);
  EXPECT_DOUBLE_EQ(caps[static_cast<std::size_t>(egress_channel(m, 2, 9))], 4.0e9);
  EXPECT_DOUBLE_EQ(caps[static_cast<std::size_t>(memory_channel(m, 1, 1))], 8.0e9);
  EXPECT_DOUBLE_EQ(caps[static_cast<std::size_t>(memory_channel(m, 2, 5))], 4.0e9);
}

}  // namespace
}  // namespace mr::simnet
