// Oracle test of the binding analyzer's bound kernel on generated machines.
//
// The kernel shares one critical-path DP between jobs of the same shape
// and folds channel serialization per (rank, divergence level) into each
// component's channels. This suite checks it against a brute-force
// reference that shares nothing: the DP runs once per job, and every
// message walks its simnet::flow_channels route channel by channel. The
// contract is bit-identity of critical_path, channel_serialization and
// lower_bound, on seeded random hierarchies of depth 2-7 (mixed radices,
// random memory levels), random orders, and SingleComm/AllComms bindings
// of alltoall, allgather and allreduce, plus staggered starts, jobs that
// share cores, zero-byte messages, and every bound tune computes.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "mixradix/engine/engine.hpp"
#include "mixradix/harness/microbench.hpp"
#include "mixradix/simmpi/plan.hpp"
#include "mixradix/simnet/path.hpp"
#include "mixradix/tune/search.hpp"
#include "mixradix/util/prng.hpp"
#include "mixradix/verify/binding.hpp"
#include "mixradix/verify/topo_check.hpp"

namespace mr::verify::binding {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---- Generated machines ----------------------------------------------------

/// A seeded hierarchy of depth 2-7 with at most 256 cores: radices 2-4,
/// random link latencies and bandwidths, and memory models on a random
/// subset of levels (kept within the simulator's route-length cap).
topo::Machine generated_machine(std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const int depth = 2 + static_cast<int>(rng.next_below(6));
  const int max_mem =
      std::min(depth, (simnet::kMaxChannelsPerFlow - 2 * depth) / 2);
  std::vector<topo::LevelSpec> levels;
  std::int64_t cores = 1;
  int mems = 0;
  for (int k = 0; k < depth; ++k) {
    topo::LevelSpec level;
    level.name = "l";
    level.name += std::to_string(k);
    level.radix = 2 + static_cast<int>(rng.next_below(3));
    while (level.radix > 2 &&
           cores * level.radix * (std::int64_t{1} << (depth - k - 1)) > 256) {
      --level.radix;
    }
    cores *= level.radix;
    level.link_latency = 1e-8 * static_cast<double>(1 + rng.next_below(200));
    level.link_bandwidth = 1e8 * static_cast<double>(1 + rng.next_below(500));
    if (mems < max_mem && rng.next_below(3) == 0) {
      level.mem_bandwidth = 1e8 * static_cast<double>(1 + rng.next_below(800));
      ++mems;
    }
    levels.push_back(level);
  }
  std::string name = "gen";
  name += std::to_string(seed);
  return topo::Machine(name, std::move(levels));
}

Order random_order(int depth, util::Xoshiro256& rng) {
  Order order(static_cast<std::size_t>(depth));
  std::iota(order.begin(), order.end(), 0);
  for (int i = depth - 1; i > 0; --i) {
    std::swap(order[static_cast<std::size_t>(i)],
              order[rng.next_below(static_cast<std::uint64_t>(i) + 1)]);
  }
  return order;
}

/// A random communicator size: a divisor of the core count in [2, 32].
std::int64_t random_comm_size(std::int64_t cores, util::Xoshiro256& rng) {
  std::vector<std::int64_t> sizes;
  for (std::int64_t s = 2; s <= std::min<std::int64_t>(32, cores); ++s) {
    if (cores % s == 0) sizes.push_back(s);
  }
  return sizes[rng.next_below(sizes.size())];
}

// ---- Brute-force reference --------------------------------------------------

/// One message's route, straight from simnet::flow_channels.
struct RefRoute {
  std::vector<simnet::ChannelId> channels;  ///< deduplicated, as FlowSim.
  double latency = 0;
  double cap_min = kInf;
};

RefRoute reference_route(const topo::Machine& machine,
                         const std::vector<double>& capacities,
                         std::int64_t a, std::int64_t b) {
  RefRoute route;
  route.latency = machine.costs().base_latency;
  if (a == b) return route;
  route.channels = simnet::flow_channels(machine, a, b);
  std::sort(route.channels.begin(), route.channels.end());
  auto& channels = route.channels;
  channels.erase(std::unique(channels.begin(), channels.end()), channels.end());
  for (const simnet::ChannelId c : channels) {
    route.cap_min =
        std::min(route.cap_min, capacities[static_cast<std::size_t>(c)]);
  }
  int fd = 0;
  while (machine.component_of(a, fd) == machine.component_of(b, fd)) ++fd;
  // Link latencies are summed from the leaf outward, the analyzer's order.
  double suffix = 0;
  for (int k = machine.depth() - 1; k >= fd; --k) {
    suffix += 2.0 * machine.level(k).link_latency;
  }
  route.latency += suffix;
  return route;
}

double reference_round_cpu(const simmpi::PlanExec& exec,
                           const topo::MessagingCosts& costs,
                           std::size_t i) {
  double cpu = exec.round_compute[i];
  cpu += costs.send_overhead *
         static_cast<double>(exec.send_begin[i + 1] - exec.send_begin[i]);
  cpu += costs.recv_overhead *
         static_cast<double>(exec.recv_begin[i + 1] - exec.recv_begin[i]);
  cpu += static_cast<double>(exec.round_copy_doubles[i]) * 8.0 *
         costs.reduce_seconds_per_byte;
  return cpu;
}

struct Reference {
  Bound bound;
  /// channel -> (bytes, flows) over all jobs and repetitions.
  std::map<simnet::ChannelId, std::pair<std::int64_t, std::int64_t>> load;
};

/// The bound with no sharing at all: every job runs its own DP over its
/// plan's visit order, and every message of repetition 0 enters each of
/// its flow_channels channels one at a time. Requires acyclic plans.
Reference reference_bound(const topo::Machine& machine,
                          const std::vector<JobBinding>& jobs) {
  const std::vector<double> capacities = simnet::channel_capacities(machine);
  const topo::MessagingCosts& costs = machine.costs();
  std::vector<double> chan_entry(capacities.size(), kInf);
  std::vector<std::int64_t> chan_bytes(capacities.size(), 0);
  std::vector<bool> touched(capacities.size(), false);
  Reference ref;
  double cp = 0;
  for (const JobBinding& job : jobs) {
    const simmpi::Schedule& sched = *job.schedule;
    const simmpi::PlanExec& exec = *job.exec;
    const auto& cores = *job.core_of_rank;
    const auto nrounds =
        static_cast<std::size_t>(exec.rank_rounds_begin.back());
    std::vector<RefRoute> routes;
    std::vector<double> floor;
    for (std::size_t m = 0; m < sched.messages.size(); ++m) {
      const simmpi::MsgInfo& msg = sched.messages[m];
      const RefRoute& route = routes.emplace_back(reference_route(
          machine, capacities, cores[static_cast<std::size_t>(msg.src)],
          cores[static_cast<std::size_t>(msg.dst)]));
      floor.push_back(route.latency +
                      static_cast<double>(exec.msg_bytes[m]) / route.cap_min);
      for (const simnet::ChannelId c : route.channels) {
        ref.load[c].first += msg.bytes() * job.repetitions;
        ref.load[c].second += job.repetitions;
      }
    }
    // Each rank's first round follows the previous repetition's last one.
    std::vector<std::int64_t> prev_round(nrounds);
    std::vector<bool> last_round(nrounds, false);
    for (std::size_t r = 0; r + 1 < exec.rank_rounds_begin.size(); ++r) {
      const std::int64_t first = exec.rank_rounds_begin[r];
      const std::int64_t end = exec.rank_rounds_begin[r + 1];
      for (std::int64_t gi = first; gi < end; ++gi) {
        prev_round[static_cast<std::size_t>(gi)] =
            gi == first ? end - 1 : gi - 1;
      }
      if (end > first) last_round[static_cast<std::size_t>(end - 1)] = true;
    }
    std::vector<double> finish(nrounds, 0.0);
    std::vector<double> inbound(nrounds, 0.0);
    for (int rep = 0; rep < job.repetitions; ++rep) {
      for (const std::int64_t event : exec.visit_order) {
        const auto gi = static_cast<std::size_t>(event / 2);
        const bool first_of_rank =
            prev_round[gi] >= static_cast<std::int64_t>(gi);
        const double post =
            !first_of_rank ? finish[static_cast<std::size_t>(prev_round[gi])]
            : rep == 0     ? job.start_time
                           : finish[static_cast<std::size_t>(prev_round[gi])];
        if (event % 2 == 1) {
          finish[gi] = std::max(post, inbound[gi]);
          inbound[gi] = 0.0;
          if (last_round[gi] && rep == job.repetitions - 1) {
            cp = std::max(cp, finish[gi]);
          }
          continue;
        }
        const double ready = post + reference_round_cpu(exec, costs, gi);
        bool eager_send = false;
        for (auto k = static_cast<std::size_t>(exec.send_begin[gi]);
             k < static_cast<std::size_t>(exec.send_begin[gi + 1]); ++k) {
          const auto m = static_cast<std::size_t>(exec.send_msg[k]);
          const double arrival = ready + floor[m];
          const auto ri = static_cast<std::size_t>(exec.msg_recv_round[m]);
          inbound[ri] = std::max(inbound[ri], arrival);
          if (exec.msg_bytes[m] <= costs.eager_threshold) {
            eager_send = true;
          } else {
            inbound[gi] = std::max(inbound[gi], arrival);
          }
          if (rep != 0) continue;
          for (const simnet::ChannelId id : routes[m].channels) {
            const auto c = static_cast<std::size_t>(id);
            touched[c] = true;
            chan_entry[c] = std::min(chan_entry[c], ready + routes[m].latency);
            chan_bytes[c] += exec.msg_bytes[m] * job.repetitions;
          }
        }
        for (auto k = static_cast<std::size_t>(exec.recv_begin[gi]);
             k < static_cast<std::size_t>(exec.recv_begin[gi + 1]); ++k) {
          const auto m = static_cast<std::size_t>(exec.recv_msg[k]);
          if (exec.msg_bytes[m] > costs.eager_threshold) {
            inbound[gi] = std::max(inbound[gi], ready + floor[m]);
          }
        }
        const bool has_ops = exec.send_begin[gi + 1] > exec.send_begin[gi] ||
                             exec.recv_begin[gi + 1] > exec.recv_begin[gi];
        if (eager_send || !has_ops) inbound[gi] = std::max(inbound[gi], ready);
      }
    }
  }
  double agg = 0;
  for (std::size_t c = 0; c < capacities.size(); ++c) {
    if (touched[c]) {
      agg = std::max(agg, chan_entry[c] + static_cast<double>(chan_bytes[c]) /
                                              capacities[c]);
    }
  }
  ref.bound.critical_path = cp;
  ref.bound.channel_serialization = agg;
  ref.bound.lower_bound = std::max(cp, agg);
  return ref;
}

// ---- Comparison -------------------------------------------------------------

std::string bits_differ(const std::string& where, const Bound& got,
                        const Bound& want) {
  std::ostringstream os;
  const auto field = [&](const char* name, double g, double w) {
    if (std::bit_cast<std::uint64_t>(g) != std::bit_cast<std::uint64_t>(w)) {
      os.precision(17);
      os << where << ": " << name << " " << g << " != reference " << w << "\n";
    }
  };
  field("critical_path", got.critical_path, want.critical_path);
  field("channel_serialization", got.channel_serialization,
        want.channel_serialization);
  field("lower_bound", got.lower_bound, want.lower_bound);
  return os.str();
}

std::vector<JobBinding> bindings_of(const std::vector<simmpi::PlanJob>& jobs) {
  std::vector<JobBinding> bindings;
  for (const simmpi::PlanJob& job : jobs) {
    bindings.push_back({&job.plan->schedule, &job.plan->exec,
                        job.plan->repetitions, &job.core_of_rank,
                        job.start_time});
  }
  return bindings;
}

/// Checks one job list three ways: the reusable workspace path and a fresh
/// analysis against the reference bits, and the fresh analysis's load
/// report against the reference per-channel traffic.
std::string check_jobs(const std::string& where, const topo::Machine& machine,
                       Workspace& workspace,
                       const std::vector<JobBinding>& jobs) {
  const Reference ref = reference_bound(machine, jobs);
  const Result reused = analyze_jobs(workspace, jobs);
  Options options;
  options.top_k = 1 << 20;  // keep every touched channel.
  const Result fresh = analyze_jobs(machine, jobs, options);
  if (!reused.clean() || !fresh.clean()) {
    return where + ": unexpected diagnostics\n" + fresh.to_string();
  }
  std::string failures =
      bits_differ(where + " (workspace)", reused.bound, ref.bound) +
      bits_differ(where + " (fresh)", fresh.bound, ref.bound);
  std::map<simnet::ChannelId, std::pair<std::int64_t, std::int64_t>> load;
  for (const ChannelLoad& cl : fresh.load.top_channels) {
    load[cl.channel] = {cl.bytes, cl.flows};
  }
  if (load != ref.load) failures += where + ": load report channels differ\n";
  return failures;
}

const simmpi::Collective kCollectives[] = {simmpi::Collective::Alltoall,
                                           simmpi::Collective::Allgather,
                                           simmpi::Collective::Allreduce};

TEST(BindingOracle, GeneratedMachinesMatchBruteForce) {
  Engine engine;
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const topo::Machine machine = generated_machine(seed);
    const TopoReport lint = mr::verify::analyze(machine);
    ASSERT_TRUE(lint.clean()) << lint.to_string();
    util::Xoshiro256 rng(seed * 7919);
    Workspace workspace(machine);
    for (int trial = 0; trial < 3; ++trial) {
      const Order order = random_order(machine.depth(), rng);
      const std::int64_t comm_size = random_comm_size(machine.cores(), rng);
      for (const simmpi::Collective collective : kCollectives) {
        for (const bool all_comms : {false, true}) {
          harness::MicrobenchConfig config;
          config.order = order;
          config.comm_size = comm_size;
          config.collective = collective;
          // 8 B to 8 MiB: both sides of the eager threshold.
          config.total_bytes = std::int64_t{8} << (3 * rng.next_below(8));
          config.all_comms = all_comms;
          config.repetitions = 1 + static_cast<int>(rng.next_below(3));
          const auto jobs = harness::protocol_jobs(engine, machine, config);
          std::ostringstream where;
          where << machine.name() << " depth " << machine.depth() << " order";
          for (const int level : order) where << ' ' << level;
          where << " comm " << comm_size << " collective "
                << tune::collective_name(collective) << " bytes "
                << config.total_bytes << (all_comms ? " all" : " single");
          const std::string failures =
              check_jobs(where.str(), machine, workspace, bindings_of(jobs));
          EXPECT_TRUE(failures.empty()) << failures;
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, 24 * 3 * 3 * 2);
}

TEST(BindingOracle, StaggeredSharedAndZeroByteJobsMatchBruteForce) {
  Engine engine;
  for (std::uint64_t seed = 101; seed <= 108; ++seed) {
    const topo::Machine machine = generated_machine(seed);
    util::Xoshiro256 rng(seed);
    Workspace workspace(machine);
    const std::int64_t comm_size = random_comm_size(machine.cores(), rng);
    harness::MicrobenchConfig config;
    config.order = random_order(machine.depth(), rng);
    config.comm_size = comm_size;
    config.total_bytes = 1 << 16;
    config.all_comms = true;
    std::vector<simmpi::PlanJob> jobs =
        harness::protocol_jobs(engine, machine, config);
    const auto p = static_cast<std::int32_t>(comm_size);
    const std::string where = machine.name();

    // One job starting late, next to translates starting at 0.
    std::vector<simmpi::PlanJob> staggered = jobs;
    staggered.back().start_time = 3.7e-6;
    EXPECT_EQ(check_jobs(where + " staggered", machine, workspace,
                         bindings_of(staggered)), "");

    // Two jobs on the same cores, one of them shifted onto half of them.
    std::vector<simmpi::PlanJob> shared = {jobs.front(), jobs.front()};
    for (std::size_t r = 0; r < shared[1].core_of_rank.size(); ++r) {
      shared[1].core_of_rank[r] = shared[0].core_of_rank[r / 2];
    }
    EXPECT_EQ(check_jobs(where + " shared cores", machine, workspace,
                         bindings_of(shared)), "");

    // Zero-byte messages alone (a barrier), then sharing channels with an
    // alltoall on the same cores.
    simmpi::PlanJob barrier = jobs.front();
    barrier.plan = std::make_shared<const simmpi::Plan>(
        simmpi::compile_plan("barrier_dissemination", p, 1, 0, 2));
    EXPECT_EQ(check_jobs(where + " barrier", machine, workspace,
                         bindings_of({barrier})), "");
    EXPECT_EQ(check_jobs(where + " barrier+alltoall", machine, workspace,
                         bindings_of({barrier, jobs.front()})), "");
  }
}

/// Every stage-2 bound tune computes with four pool slots (each with its
/// own workspace) equals the reference summed over the query's points.
TEST(BindingOracle, TuneBoundsAtFourThreadsMatchBruteForce) {
  Engine engine;
  // The first generated machines of depth 4 and 5 keep h! small.
  std::vector<std::uint64_t> seeds;
  for (const int depth : {4, 5}) {
    std::uint64_t seed = 1;
    while (generated_machine(seed).depth() != depth) ++seed;
    seeds.push_back(seed);
  }
  for (const std::uint64_t seed : seeds) {
    const topo::Machine machine = generated_machine(seed);
    util::Xoshiro256 rng(seed);
    for (const tune::Concurrency concurrency :
         {tune::Concurrency::SingleComm, tune::Concurrency::AllComms}) {
      tune::TuneQuery query;
      query.collectives = {simmpi::Collective::Alltoall,
                           simmpi::Collective::Allreduce};
      query.comm_sizes = {random_comm_size(machine.cores(), rng)};
      query.total_bytes = {4096, 1 << 20};
      query.concurrency = concurrency;
      query.k = 2;
      query.threads = 4;
      const tune::TuneReport report = tune::tune(engine, machine, query);
      ASSERT_EQ(report.stats.bounds_computed,
                static_cast<std::int64_t>(report.candidates.size()));
      ASSERT_GT(report.candidates.size(), 4u);
      for (const tune::TuneCandidate& c : report.candidates) {
        double want = 0;
        for (const tune::QueryPoint& point : report.points) {
          harness::MicrobenchConfig config;
          config.order = c.order;
          config.comm_size = point.comm_size;
          config.collective = point.collective;
          config.total_bytes = point.total_bytes;
          config.all_comms = concurrency == tune::Concurrency::AllComms;
          config.repetitions = query.repetitions;
          const auto jobs = harness::protocol_jobs(engine, machine, config);
          want += reference_bound(machine, bindings_of(jobs))
                      .bound.for_slack(query.completion_slack);
        }
        EXPECT_EQ(std::bit_cast<std::uint64_t>(c.lower_bound),
                  std::bit_cast<std::uint64_t>(want))
            << machine.name() << " candidate bound " << c.lower_bound
            << " != reference " << want;
      }
    }
  }
}

}  // namespace
}  // namespace mr::verify::binding
