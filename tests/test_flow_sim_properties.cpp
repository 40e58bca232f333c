// Property tests for the max-min fair allocation in exact mode (zero
// completion slack): feasibility, saturation, and max-min optimality
// checked against first principles on randomized flow sets. Then the
// bit-identity goldens of whole seeded runs (both completion trackers,
// exact and slack mode) and a scripted run through a re-keyed heap entry.
//
// tests/data/flow_sim_goldens.tsv holds every completion's user cookie and
// the exact bits of its time, recorded before the per-channel flow lists
// and the lower-bound completion heap replaced the per-recompute flow
// lists and the push-per-rate-change heap. On any mismatch the test writes
// the table it computed to flow_sim_goldens.got.tsv in the working
// directory; regenerating the goldens (only when the simulation is meant
// to change) is copying that file over tests/data/flow_sim_goldens.tsv.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "mixradix/simnet/flow_sim.hpp"
#include "mixradix/util/prng.hpp"

namespace mr::simnet {
namespace {

struct RandomScenario {
  std::vector<double> capacities;
  std::vector<std::vector<ChannelId>> flow_channels;
};

RandomScenario make_scenario(std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  RandomScenario s;
  const auto nchannels = 4 + rng.next_below(20);
  for (std::uint64_t c = 0; c < nchannels; ++c) {
    s.capacities.push_back(1.0 + static_cast<double>(rng.next_below(1000)));
  }
  const auto nflows = 2 + rng.next_below(30);
  for (std::uint64_t f = 0; f < nflows; ++f) {
    const auto width = 1 + rng.next_below(4);
    std::vector<ChannelId> channels;
    for (std::uint64_t k = 0; k < width; ++k) {
      channels.push_back(static_cast<ChannelId>(rng.next_below(nchannels)));
    }
    s.flow_channels.push_back(std::move(channels));
  }
  return s;
}

class MaxMinProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaxMinProperty, FeasibleSaturatedAndMaxMin) {
  const RandomScenario s = make_scenario(GetParam());
  FlowSim sim(s.capacities);  // slack 0: exact allocation
  std::vector<std::int64_t> ids;
  for (const auto& channels : s.flow_channels) {
    ids.push_back(sim.add_flow(channels, 1e9, 0));
  }

  // Collect rates and per-channel loads (post-dedup, as the sim sees them).
  std::vector<double> rate;
  for (std::int64_t id : ids) rate.push_back(sim.flow_rate(id));

  std::vector<double> used(s.capacities.size(), 0.0);
  std::vector<std::vector<std::size_t>> on_channel(s.capacities.size());
  for (std::size_t f = 0; f < s.flow_channels.size(); ++f) {
    auto channels = s.flow_channels[f];
    std::sort(channels.begin(), channels.end());
    channels.erase(std::unique(channels.begin(), channels.end()), channels.end());
    for (ChannelId c : channels) {
      used[static_cast<std::size_t>(c)] += rate[f];
      on_channel[static_cast<std::size_t>(c)].push_back(f);
    }
  }

  // 1. Feasibility: no channel above capacity.
  for (std::size_t c = 0; c < s.capacities.size(); ++c) {
    EXPECT_LE(used[c], s.capacities[c] * (1 + 1e-9)) << "channel " << c;
  }

  // 2. Max-min optimality via the bottleneck criterion: every flow crosses
  // at least one SATURATED channel on which it has a maximal rate —
  // otherwise its rate could be raised without hurting a smaller flow.
  for (std::size_t f = 0; f < s.flow_channels.size(); ++f) {
    bool has_bottleneck = false;
    for (ChannelId c : s.flow_channels[f]) {
      const auto ci = static_cast<std::size_t>(c);
      if (used[ci] < s.capacities[ci] * (1 - 1e-9)) continue;  // unsaturated
      bool is_max = true;
      for (std::size_t other : on_channel[ci]) {
        if (rate[other] > rate[f] * (1 + 1e-9)) {
          is_max = false;
          break;
        }
      }
      if (is_max) {
        has_bottleneck = true;
        break;
      }
    }
    EXPECT_TRUE(has_bottleneck) << "flow " << f << " rate " << rate[f];
  }

  // 3. All rates strictly positive.
  for (std::size_t f = 0; f < rate.size(); ++f) {
    EXPECT_GT(rate[f], 0) << "flow " << f;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxMinProperty,
                         ::testing::Range<std::uint64_t>(1, 41));

TEST(MaxMinConservation, TotalBytesConserved) {
  // Run a randomized scenario to completion; each flow's integral of rate
  // over time must equal its size (bytes are neither lost nor duplicated).
  FlowSim sim({100.0, 70.0, 50.0});
  std::map<std::int64_t, double> size;
  util::Xoshiro256 rng(99);
  for (int f = 0; f < 12; ++f) {
    const double bytes = 100.0 + static_cast<double>(rng.next_below(900));
    const auto id = sim.add_flow(
        {static_cast<ChannelId>(f % 3), static_cast<ChannelId>((f + 1) % 3)},
        bytes, f);
    size[id] = bytes;
  }
  double last_time = 0;
  while (sim.active_flows() > 0) {
    for (const auto& done : sim.advance_and_pop()) {
      EXPECT_GE(done.time, last_time);
      last_time = done.time;
      size.erase(done.flow);
    }
  }
  EXPECT_TRUE(size.empty());
  // With total 2 channels each and aggregate channel capacity 220 B/s,
  // draining ~12*550 B cannot beat the aggregate-capacity lower bound.
  EXPECT_GT(last_time, 0.0);
}

TEST(CompletionSlack, ApproximationIsConservativeAndBounded) {
  // The same staggered scenario in exact and slack mode. This is the
  // adversarial case for the deferred fast path: every flow is added up
  // front, so freed capacity has no successor to grab it and surviving
  // flows run at stale (lower) rates until the periodic exact recompute.
  // The approximation must only ever be CONSERVATIVE (never finish early
  // beyond the slack) and stay within a modest factor of exact.
  const auto run = [&](double slack) {
    FlowSim sim({100.0, 80.0}, slack);
    util::Xoshiro256 rng(7);
    for (int f = 0; f < 40; ++f) {
      sim.add_flow({static_cast<ChannelId>(f % 2)},
                   50.0 + static_cast<double>(rng.next_below(100)), f);
    }
    double end = 0;
    while (sim.active_flows() > 0) {
      end = sim.advance_and_pop().back().time;
    }
    return end;
  };
  const double exact = run(0.0);
  const double approx = run(0.02);
  EXPECT_GE(approx, exact * (1 - 0.02));  // never optimistic past the slack
  EXPECT_LE(approx, exact * 1.15);        // bounded pessimism
}

// A seeded many-flow run: more than kScanFlows (64) flows start at 0, each
// over one to six distinct channels; the rest start staggered, some at a
// completion instant and some part-way between two completions. Returns
// one line per completion: seed, slack, completion index, user, time bits.
struct GoldenRun {
  std::vector<std::string> lines;
  FlowSim::Stats stats;
};

GoldenRun golden_run(std::uint64_t seed, double slack, bool incremental) {
  util::Xoshiro256 rng(seed);
  const auto nchannels = 24 + rng.next_below(24);
  std::vector<double> capacities;
  for (std::uint64_t c = 0; c < nchannels; ++c) {
    capacities.push_back(100.0 + static_cast<double>(rng.next_below(900)));
  }
  FlowSim sim;
  sim.reset(capacities, slack, incremental);

  const auto nflows = static_cast<std::int64_t>(160 + rng.next_below(64));
  std::int64_t started = 0;
  const auto start_flow = [&] {
    // Half the flows also cross channel 0, a shared NIC that at times
    // carries more than 64 flows (too many victims for a steal).
    ChanSet set;
    if (rng.next_below(2) == 0) {
      set.ids[static_cast<std::size_t>(set.count++)] = 0;
    }
    const auto width = 1 + rng.next_below(5);
    for (std::uint64_t k = 0; k < width; ++k) {
      set.ids[static_cast<std::size_t>(set.count++)] =
          static_cast<ChannelId>(rng.next_below(nchannels));
    }
    const auto end = set.ids.begin() + set.count;
    std::sort(set.ids.begin(), end);
    set.count = static_cast<std::int32_t>(std::unique(set.ids.begin(), end) -
                                          set.ids.begin());
    const double bytes = 100.0 + static_cast<double>(rng.next_below(10000));
    sim.add_flow(set, bytes, started++);
  };
  const auto start_flows = [&](std::uint64_t count) {
    for (std::uint64_t i = 0; i < count && started < nflows; ++i) start_flow();
  };

  start_flows(72 + rng.next_below(16));
  GoldenRun run;
  std::int64_t index = 0;
  while (sim.active_flows() > 0 || started < nflows) {
    if (sim.active_flows() == 0) {
      start_flows(1 + rng.next_below(4));
      continue;
    }
    if (started < nflows && rng.next_below(3) == 0) {
      // Start a few flows part-way to the next completion.
      const std::optional<double> next = sim.next_completion_time();
      if (next.has_value()) {
        sim.advance_to(sim.now() + (*next - sim.now()) * 0.375);
      }
      start_flows(1 + rng.next_below(4));
      continue;
    }
    for (const Completion& done : sim.advance_and_pop()) {
      char line[96];
      std::snprintf(line, sizeof(line), "%llu\t%g\t%lld\t%lld\t%016llx",
                    static_cast<unsigned long long>(seed), slack,
                    static_cast<long long>(index++),
                    static_cast<long long>(done.user),
                    static_cast<unsigned long long>(
                        std::bit_cast<std::uint64_t>(done.time)));
      run.lines.emplace_back(line);
    }
    start_flows(rng.next_below(3));
  }
  run.stats = sim.stats();
  return run;
}

constexpr std::uint64_t kGoldenSeeds = 6;
constexpr double kGoldenSlacks[] = {0.0, 0.02};

TEST(FlowSimGoldens, CompletionBitsMatchRecordedRuns) {
  std::ifstream in(std::string(MIXRADIX_TEST_DATA_DIR) +
                   "/flow_sim_goldens.tsv");
  std::vector<std::string> want;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line.front() != '#') want.push_back(line);
  }
  std::vector<std::string> got;
  for (std::uint64_t seed = 1; seed <= kGoldenSeeds; ++seed) {
    for (const double slack : kGoldenSlacks) {
      const GoldenRun run = golden_run(seed, slack, true);
      got.insert(got.end(), run.lines.begin(), run.lines.end());
    }
  }
  if (got != want) {
    std::ofstream out("flow_sim_goldens.got.tsv");
    out << "# seed\tslack\tcompletion\tuser\ttime_bits\n";
    for (const std::string& line : got) out << line << '\n';
  }
  ASSERT_FALSE(want.empty()) << "missing golden file";
  ASSERT_EQ(got.size(), want.size());
  int mismatches = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] != want[i] && ++mismatches <= 10) {
      ADD_FAILURE() << "golden " << i << "\n  want " << want[i] << "\n  got  "
                    << got[i];
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(FlowSimGoldens, IncrementalMatchesReferenceScan) {
  for (std::uint64_t seed = 1; seed <= kGoldenSeeds; ++seed) {
    for (const double slack : kGoldenSlacks) {
      const GoldenRun heap = golden_run(seed, slack, true);
      const GoldenRun scan = golden_run(seed, slack, false);
      EXPECT_EQ(heap.lines, scan.lines)
          << "seed " << seed << " slack " << slack;
      // The scenarios reach the heap regime, and in slack mode the
      // deferred fast path (grant or steal) and its fallback both run.
      EXPECT_GT(heap.stats.peak_active_flows, 64);
      if (slack > 0) {
        EXPECT_GT(heap.stats.deferred_allocations, 0) << "seed " << seed;
        EXPECT_GT(heap.stats.deferred_rejections, 0) << "seed " << seed;
      }
    }
  }
}

TEST(FlowSimHeap, StealSlowedFlowCompletesFirst) {
  // In the heap regime (70 long fillers on private channels), flow a owns
  // channel 0 at 100 B/s and is due at t = 1. At t = 0.5 flow b joins
  // channel 0 and steals half of a's rate, so a's deadline moves to 1.5;
  // the heap entry a got at t = 0 is now early. a must still complete
  // first, exactly at 1.5, and b then alone at 100 B/s at 11.
  std::vector<double> caps(71, 100.0);
  std::vector<std::vector<Completion>> runs;
  for (const bool incremental : {true, false}) {
    FlowSim sim;
    sim.reset(caps, 0.01, incremental);
    for (int i = 1; i <= 70; ++i) {
      sim.add_flow({static_cast<ChannelId>(i)}, 1e6, 100 + i);
    }
    const auto a = sim.add_flow({0}, 100.0, 1);
    EXPECT_EQ(sim.flow_rate(a), 100.0);  // exact pass: rates now clean
    EXPECT_EQ(sim.next_completion_time(), std::optional<double>(1.0));
    sim.advance_to(0.5);
    const auto b = sim.add_flow({0}, 1000.0, 2);  // no headroom: steal
    EXPECT_EQ(sim.flow_rate(a), 50.0);
    EXPECT_EQ(sim.flow_rate(b), 50.0);
    EXPECT_EQ(sim.stats().full_recomputes, 1);
    EXPECT_EQ(sim.next_completion_time(), std::optional<double>(1.5));
    std::vector<Completion> done;
    while (sim.active_flows() > 0) {
      const auto batch = sim.advance_and_pop();
      done.insert(done.end(), batch.begin(), batch.end());
    }
    ASSERT_EQ(done.size(), 72u);
    EXPECT_EQ(done[0].user, 1);
    EXPECT_EQ(done[0].time, 1.5);
    EXPECT_EQ(done[1].user, 2);
    EXPECT_EQ(done[1].time, 11.0);
    runs.push_back(std::move(done));
  }
  for (std::size_t i = 0; i < runs[0].size(); ++i) {
    EXPECT_EQ(runs[0][i].user, runs[1][i].user);
    EXPECT_EQ(runs[0][i].time, runs[1][i].time);
  }
}

}  // namespace
}  // namespace mr::simnet
