// Binding-analyzer tests. The load-bearing property: the static
// critical-path lower bound NEVER exceeds the TimedExecutor's simulated
// makespan — checked across the full registry x preset x size x engine
// matrix, in exact (slack 0) and slack-merged timing, serial and from a
// thread pool.
#include "mixradix/verify/binding.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "mixradix/simmpi/plan.hpp"
#include "mixradix/simmpi/registry.hpp"
#include "mixradix/simmpi/timed_executor.hpp"
#include "mixradix/simnet/path.hpp"
#include "mixradix/topo/presets.hpp"
#include "mixradix/util/expect.hpp"
#include "mixradix/util/thread_pool.hpp"

namespace mr::verify::binding {
namespace {

using simmpi::ExecOptions;
using simmpi::PlanJob;

// Floating-point tolerance for "lb <= sim": both sides accumulate the same
// quantities in different orders.
constexpr double kFpSlop = 1.0 + 1e-9;

/// Identity binding: rank r on core r.
std::vector<std::int64_t> packed_cores(std::int32_t p) {
  std::vector<std::int64_t> cores(static_cast<std::size_t>(p));
  for (std::int32_t r = 0; r < p; ++r) {
    cores[static_cast<std::size_t>(r)] = r;
  }
  return cores;
}

/// Max-stride binding: ranks spread as far apart as the machine allows.
std::vector<std::int64_t> spread_cores(std::int32_t p, std::int64_t ncores) {
  std::vector<std::int64_t> cores(static_cast<std::size_t>(p));
  for (std::int32_t r = 0; r < p; ++r) {
    cores[static_cast<std::size_t>(r)] = r * (ncores / p);
  }
  return cores;
}

std::int32_t pick_p(const simmpi::AlgorithmInfo& info, std::int64_t ncores) {
  for (const std::int32_t p : {8, 4, 16, 6, 2}) {
    if (p <= ncores && info.supported(p)) return p;
  }
  return -1;
}

double run_sim(const topo::Machine& machine, const simmpi::Plan& plan,
               const std::vector<std::int64_t>& cores, double slack,
               bool reference) {
  PlanJob job;
  job.plan = std::make_shared<const simmpi::Plan>(plan);
  job.core_of_rank = cores;
  ExecOptions options;
  options.completion_slack = slack;
  options.reference = reference;
  return simmpi::run_timed(machine, {job}, options).makespan;
}

/// One matrix point: analyze + simulate in all four engine configurations,
/// returning a description of every violated bound ("" = all held).
std::string check_point(const topo::Machine& machine, const std::string& alg,
                        std::int32_t p, std::int64_t count, int repetitions,
                        const std::vector<std::int64_t>& cores) {
  const simmpi::Plan plan =
      simmpi::compile_plan(alg, p, count, 0, repetitions);
  const Result analysis = analyze(plan, machine, cores);
  if (!analysis.clean()) {
    return alg + ": analysis not clean:\n" + analysis.to_string();
  }
  std::string failures;
  for (const bool reference : {false, true}) {
    for (const double slack : {0.0, simmpi::kDefaultCompletionSlack}) {
      const double sim = run_sim(machine, plan, cores, slack, reference);
      const double lb = analysis.bound.for_slack(slack);
      if (!(lb <= sim * kFpSlop)) {
        failures += alg + " on " + machine.name() + " count=" +
                    std::to_string(count) + " slack=" + std::to_string(slack) +
                    (reference ? " reference" : " optimized") +
                    ": lower bound " + std::to_string(lb) +
                    " exceeds simulated " + std::to_string(sim) + "\n";
      }
    }
  }
  return failures;
}

TEST(BindingBound, NeverExceedsSimAcrossRegistryMatrix) {
  const topo::Machine machines[] = {topo::testbox(), topo::hydra(4),
                                    topo::lumi(2)};
  // Byte counts straddle the 16 KiB eager threshold (testbox is all
  // rendezvous regardless).
  const std::int64_t counts[] = {64, 2048, 65536};
  int points = 0;
  for (const auto& machine : machines) {
    for (const auto& info : simmpi::algorithm_registry()) {
      const std::int32_t p = pick_p(info, machine.cores());
      ASSERT_GT(p, 0) << info.name;
      for (const std::int64_t count : counts) {
        const std::string failures =
            check_point(machine, info.name, p, count, 1, packed_cores(p));
        EXPECT_EQ(failures, "");
        ++points;
      }
    }
  }
  EXPECT_GE(points, 3 * 19 * 3);  // machines x algorithms x sizes
}

TEST(BindingBound, HoldsForSpreadMappingAndRepetitions) {
  const auto machine = topo::lumi(2);
  for (const auto& info : simmpi::algorithm_registry()) {
    const std::int32_t p = pick_p(info, machine.cores());
    ASSERT_GT(p, 0) << info.name;
    EXPECT_EQ(check_point(machine, info.name, p, 4096, 3,
                          spread_cores(p, machine.cores())),
              "");
  }
}

TEST(BindingBound, HoldsUnderThreadPool) {
  // TSan target: concurrent analyses + simulations must not race.
  const auto machine = topo::hydra(4);
  const auto& registry = simmpi::algorithm_registry();
  std::mutex mu;
  std::string failures;
  util::ThreadPool pool(4);
  pool.parallel_for(registry.size(), [&](std::size_t i) {
    const auto& info = registry[i];
    const std::int32_t p = pick_p(info, machine.cores());
    const std::string f =
        check_point(machine, info.name, p, 2048, 1, packed_cores(p));
    if (!f.empty()) {
      const std::lock_guard<std::mutex> lock(mu);
      failures += f;
    }
  });
  EXPECT_EQ(failures, "");
}

TEST(BindingBound, ExactlyTightOnSerializedNicContention) {
  // Two 8 MB cross-node transfers share node 0's egress NIC (1 GB/s on
  // testbox): the channel-serialization bound equals the simulated time.
  const auto m = topo::testbox();
  constexpr std::int64_t kCount = 1'000'000;
  simmpi::ScheduleBuilder b(4, kCount);
  b.exchange(0, 0, {0, kCount}, 1, {0, kCount});
  b.exchange(0, 2, {0, kCount}, 3, {0, kCount});
  const simmpi::Plan plan = simmpi::make_plan(std::move(b).build());
  // Ranks 0,2 on node 0 (cores 0,1), ranks 1,3 on node 1 (cores 8,9).
  const std::vector<std::int64_t> cores = {0, 8, 1, 9};
  const Result r = analyze(plan, m, cores);
  ASSERT_TRUE(r.clean()) << r.report.to_string();
  const double sim = run_sim(m, plan, cores, 0.0, false);
  EXPECT_NEAR(sim, 2 * 8e6 / 1e9, 1e-12);
  EXPECT_NEAR(r.bound.lower_bound, sim, 1e-12);
  EXPECT_NEAR(r.bound.channel_serialization, sim, 1e-12);
  // Each flow alone would take 8 ms (node-link bottleneck).
  EXPECT_NEAR(r.bound.critical_path, 8e6 / 1e9, 1e-12);

  // Load report: 16 MB over one round, two flows, and the shared NIC
  // carries twice a single flow's worth -> oversubscription 2.
  EXPECT_EQ(r.load.total_bytes, 2 * 8'000'000);
  EXPECT_EQ(r.load.total_flows, 2);
  EXPECT_EQ(r.load.self_bytes, 0);
  ASSERT_EQ(r.load.rounds.size(), 1u);
  EXPECT_EQ(r.load.rounds[0].bytes, 2 * 8'000'000);
  EXPECT_EQ(r.load.rounds[0].flows, 2);
  EXPECT_NEAR(r.load.rounds[0].max_oversubscription, 2.0, 1e-12);
  ASSERT_FALSE(r.load.top_channels.empty());
  const ChannelLoad& hot = r.load.top_channels.front();
  EXPECT_NEAR(hot.serialization_seconds, 16e6 / 1e9, 1e-12);
  EXPECT_NEAR(hot.oversubscription, 2.0, 1e-12);
  // The two equally hot channels are the node uplinks.
  EXPECT_TRUE(hot.name == "node[0].egress" || hot.name == "node[1].ingress")
      << hot.name;
  EXPECT_NE(r.to_string().find("lower bound"), std::string::npos);
}

TEST(BindingBound, ForSlackDeflates) {
  Bound b;
  b.lower_bound = 1.0;
  EXPECT_EQ(b.for_slack(0.0), 1.0);
  EXPECT_EQ(b.for_slack(-1.0), 1.0);
  EXPECT_NEAR(b.for_slack(0.02), 1.0 / 1.04, 1e-15);
}

TEST(BindingDiagnostics, CoreOutOfRangeIsError) {
  const auto m = topo::testbox();
  const simmpi::Plan plan = simmpi::compile_plan("allgather_ring", 4, 16);
  const Result r = analyze(plan, m, {0, 1, 2, 99});
  EXPECT_FALSE(r.clean());
  ASSERT_FALSE(r.report.diagnostics.empty());
  const auto& d = r.report.diagnostics.front();
  EXPECT_EQ(d.check, Check::Binding);
  EXPECT_EQ(d.rank, 3);
  EXPECT_NE(d.text.find("core 99"), std::string::npos) << d.text;
  // No load report or bound on a broken binding.
  EXPECT_EQ(r.bound.lower_bound, 0.0);
  EXPECT_TRUE(r.load.rounds.empty());
}

TEST(BindingDiagnostics, BindingSizeMismatchIsError) {
  const auto m = topo::testbox();
  const simmpi::Plan plan = simmpi::compile_plan("allgather_ring", 4, 16);
  const Result r = analyze(plan, m, {0, 1, 2});
  EXPECT_FALSE(r.clean());
  EXPECT_NE(r.report.diagnostics.front().text.find("3 entries"),
            std::string::npos);
}

TEST(BindingDiagnostics, DuplicateCoreIsWarningOnly) {
  const auto m = topo::testbox();
  const simmpi::Plan plan = simmpi::compile_plan("allgather_ring", 4, 16);
  const Result r = analyze(plan, m, {0, 0, 1, 2});
  EXPECT_TRUE(r.clean());
  EXPECT_EQ(r.report.count(Severity::Warning), 1u) << r.report.to_string();
  EXPECT_NE(r.report.diagnostics.front().text.find("share core 0"),
            std::string::npos);
  // Rank 0 -> rank 1 traffic stays off the network.
  EXPECT_GT(r.load.self_bytes, 0);
  // The bound still holds on the degenerate mapping.
  const double sim = run_sim(m, plan, {0, 0, 1, 2}, 0.0, false);
  EXPECT_LE(r.bound.lower_bound, sim * kFpSlop);
}

TEST(BindingDiagnostics, TooDeepRouteIsErrorOnlyWhereItCrossesTooFar) {
  // Thirteen binary levels: a route diverging at the outermost level
  // crosses 26 channels, above the simulator's 24; one diverging at the
  // leaf crosses 2.
  std::vector<topo::LevelSpec> levels(13, {"level", 2, 1e-7, 1e10, 0});
  for (std::size_t k = 0; k < levels.size(); ++k) {
    levels[k].name += std::to_string(k);
  }
  const topo::Machine m("deep13", levels);
  const simmpi::Plan plan = simmpi::compile_plan("allgather_ring", 2, 16);
  const Result shallow = analyze(plan, m, {0, 1});
  EXPECT_TRUE(shallow.clean()) << shallow.to_string();
  EXPECT_GT(shallow.bound.lower_bound, 0.0);

  Workspace workspace(m);
  const std::vector<std::int64_t> cores = {0, 4096};
  const Result deep = analyze_jobs(
      workspace, {{&plan.schedule, &plan.exec, 1, &cores, 0.0}});
  ASSERT_FALSE(deep.clean());
  EXPECT_NE(deep.report.diagnostics.front().text.find(
                "route crosses 26 channels, above the simulator limit of 24"),
            std::string::npos)
      << deep.report.to_string();
  EXPECT_EQ(deep.bound.lower_bound, 0.0);
}

TEST(BindingDiagnostics, RepetitionOverflowIsError) {
  const auto m = topo::testbox();
  simmpi::ScheduleBuilder b(2, 8);
  b.exchange(0, 0, {0, 8}, 1, {0, 8});
  b.exchange(1, 1, {0, 8}, 0, {0, 8});
  const simmpi::Plan plan =
      simmpi::make_plan(std::move(b).build(), 1 << 30);
  const Result r = analyze(plan, m, {0, 1});
  EXPECT_FALSE(r.clean());
  EXPECT_NE(r.report.diagnostics.front().text.find("overflows"),
            std::string::npos)
      << r.report.to_string();
}

TEST(BindingDiagnostics, DeadlockedBindingReportsCycleAndZeroBound) {
  // Cross-round wait cycle, built by hand so ScheduleBuilder's verification
  // (in MIXRADIX_VERIFY_SCHEDULES builds) cannot reject it first: each rank
  // waits in round 0 for a message the peer only sends in round 1.
  simmpi::Schedule s;
  s.nranks = 2;
  s.arena_size = 4;
  s.messages = {simmpi::MsgInfo{1, 0, {0, 2}, {0, 2}, simmpi::Combine::Replace},
                simmpi::MsgInfo{0, 1, {2, 2}, {2, 2}, simmpi::Combine::Replace}};
  s.programs.resize(2);
  s.programs[0].rounds.resize(2);
  s.programs[0].rounds[0].recvs = {simmpi::RecvOp{0}};
  s.programs[0].rounds[1].sends = {simmpi::SendOp{1}};
  s.programs[1].rounds.resize(2);
  s.programs[1].rounds[0].recvs = {simmpi::RecvOp{1}};
  s.programs[1].rounds[1].sends = {simmpi::SendOp{0}};
  const simmpi::Plan plan = simmpi::make_plan(std::move(s));
  const Result r = analyze(plan, topo::testbox(), {0, 1});
  EXPECT_FALSE(r.clean());
  EXPECT_NE(r.report.to_string().find("cycle"), std::string::npos)
      << r.report.to_string();
  EXPECT_EQ(r.bound.lower_bound, 0.0);
}

TEST(BindingDiagnostics, MalformedExecutionStructureIsError) {
  // An op naming a message past the table: derive_exec counts it once,
  // the analyzer reports it instead of indexing out of bounds.
  simmpi::Schedule s;
  s.nranks = 2;
  s.arena_size = 4;
  s.messages = {
      simmpi::MsgInfo{0, 1, {0, 2}, {0, 2}, simmpi::Combine::Replace}};
  s.programs.resize(2);
  s.programs[0].rounds.resize(1);
  s.programs[0].rounds[0].sends = {simmpi::SendOp{0}, simmpi::SendOp{5}};
  s.programs[1].rounds.resize(1);
  s.programs[1].rounds[0].recvs = {simmpi::RecvOp{0}};
  const simmpi::Plan plan = simmpi::make_plan(std::move(s));
  const Result r = analyze(plan, topo::testbox(), {0, 1});
  EXPECT_FALSE(r.clean());
  EXPECT_NE(r.report.to_string().find("1 ops naming a message outside"),
            std::string::npos)
      << r.report.to_string();
  EXPECT_EQ(r.bound.lower_bound, 0.0);
}

TEST(BindingDiagnostics, SameRoundExchangeIsNotACycle) {
  // The classic sendrecv pattern: posts are non-blocking, so mutual
  // same-round messages must analyze clean with a finite bound.
  simmpi::ScheduleBuilder b(2, 8);
  b.exchange(0, 0, {0, 8}, 1, {0, 8});
  b.exchange(0, 1, {0, 8}, 0, {0, 8});
  const simmpi::Plan plan = simmpi::make_plan(std::move(b).build());
  const Result r = analyze(plan, topo::testbox(), {0, 8});
  EXPECT_TRUE(r.clean()) << r.report.to_string();
  EXPECT_GT(r.bound.lower_bound, 0.0);
}

TEST(BindingDiagnostics, MultiJobDiagnosticsArePrefixed) {
  const auto m = topo::testbox();
  const simmpi::Plan plan = simmpi::compile_plan("allgather_ring", 4, 16);
  JobBinding good{&plan.schedule, &plan.exec, plan.repetitions, nullptr, 0};
  const std::vector<std::int64_t> ok_cores = {0, 1, 2, 3};
  const std::vector<std::int64_t> bad_cores = {0, 1, 2, 999};
  good.core_of_rank = &ok_cores;
  JobBinding bad = good;
  bad.core_of_rank = &bad_cores;
  const Result r = analyze_jobs(m, {good, bad});
  EXPECT_FALSE(r.clean());
  EXPECT_NE(r.report.diagnostics.front().text.find("job 1:"),
            std::string::npos)
      << r.report.to_string();
}

TEST(BindingDiagnostics, ConcurrentJobsBoundHolds) {
  const auto m = topo::testbox();
  const simmpi::Plan plan = simmpi::compile_plan("alltoall_pairwise", 4, 512);
  const std::vector<std::int64_t> cores_a = {0, 4, 8, 12};
  const std::vector<std::int64_t> cores_b = {1, 5, 9, 13};
  JobBinding ja{&plan.schedule, &plan.exec, plan.repetitions, &cores_a, 0.0};
  JobBinding jb{&plan.schedule, &plan.exec, plan.repetitions, &cores_b, 1e-4};
  const Result r = analyze_jobs(m, {ja, jb});
  ASSERT_TRUE(r.clean()) << r.report.to_string();

  PlanJob pa, pb;
  pa.plan = std::make_shared<const simmpi::Plan>(plan);
  pa.core_of_rank = cores_a;
  pb.plan = pa.plan;
  pb.core_of_rank = cores_b;
  pb.start_time = 1e-4;
  ExecOptions options;
  options.completion_slack = 0.0;
  const double sim = simmpi::run_timed(m, {pa, pb}, options).makespan;
  EXPECT_LE(r.bound.lower_bound, sim * kFpSlop);
  EXPECT_GT(r.bound.lower_bound, 1e-4);  // the delayed job's start counts.
}

TEST(BindingDiagnostics, EmptyJobListIsClean) {
  const Result r = analyze_jobs(topo::testbox(), {});
  EXPECT_TRUE(r.clean());
  EXPECT_EQ(r.bound.lower_bound, 0.0);
}

TEST(BindingPreverify, ThrowsOnBadBindingAndPassesGoodOne) {
  const auto m = topo::testbox();
  PlanJob job;
  job.plan = std::make_shared<const simmpi::Plan>(
      simmpi::compile_plan("allgather_ring", 4, 16));
  job.core_of_rank = {0, 1, 2, 99};
  ExecOptions options;
  options.preverify_binding = true;
  EXPECT_THROW(simmpi::run_timed(m, {job}, options), mr::invalid_argument);
  try {
    simmpi::run_timed(m, {job}, options);
    FAIL() << "expected mr::invalid_argument";
  } catch (const mr::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("core 99"), std::string::npos)
        << e.what();
  }
  job.core_of_rank = {0, 1, 2, 3};
  EXPECT_GT(simmpi::run_timed(m, {job}, options).makespan, 0.0);
}

// The analyzer's RouteCache derives routes from precomputed per-machine
// tables instead of walking the hierarchy API per pair; this pins its
// channel accounting against simnet::flow_channels — the simulator's
// route derivation — across machines, mappings, and a rooted algorithm
// whose traffic is asymmetric.
TEST(BindingLoad, ChannelAccountingMatchesFlowChannels) {
  const topo::Machine machines[] = {topo::testbox(), topo::hydra(4, 2),
                                    topo::lumi(2)};
  constexpr std::int32_t kP = 8;
  constexpr int kReps = 2;
  for (const auto& machine : machines) {
    for (const std::string alg : {"alltoall_pairwise", "gather_linear"}) {
      for (const bool spread : {false, true}) {
        const simmpi::Plan plan = simmpi::compile_plan(alg, kP, 512, 0, kReps);
        const auto cores =
            spread ? spread_cores(kP, machine.cores()) : packed_cores(kP);
        // Reference accounting straight from flow_channels; sort+unique is
        // FlowSim's dedupe of the shared memory controller above the
        // divergence level.
        std::map<simnet::ChannelId, std::pair<std::int64_t, std::int64_t>>
            want;  // channel -> (bytes, flows)
        for (const simmpi::MsgInfo& msg : plan.schedule.messages) {
          auto chans = simnet::flow_channels(
              machine, cores[static_cast<std::size_t>(msg.src)],
              cores[static_cast<std::size_t>(msg.dst)]);
          std::sort(chans.begin(), chans.end());
          chans.erase(std::unique(chans.begin(), chans.end()), chans.end());
          for (const simnet::ChannelId id : chans) {
            want[id].first += msg.bytes() * kReps;
            want[id].second += kReps;
          }
        }
        Options options;
        options.top_k = 1 << 20;  // keep every touched channel.
        const Result result = analyze(plan, machine, cores, options);
        ASSERT_TRUE(result.clean());
        const std::string where = machine.name() + "/" + alg +
                                  (spread ? "/spread" : "/packed");
        ASSERT_EQ(result.load.top_channels.size(), want.size()) << where;
        for (const ChannelLoad& cl : result.load.top_channels) {
          const auto it = want.find(cl.channel);
          ASSERT_NE(it, want.end())
              << where << ": unexpected channel " << cl.name;
          EXPECT_EQ(cl.bytes, it->second.first) << where << " " << cl.name;
          EXPECT_EQ(cl.flows, it->second.second) << where << " " << cl.name;
        }
      }
    }
  }
}

// ---- Workspace fast path, visit-order independence, BoundStructure -------
//
// The contract is BIT-identity: the workspace path, a different topological
// visit order, and BoundStructure::evaluate must all return the exact
// doubles a fresh analyze_jobs returns.

/// Fresh analysis in the tuner's configuration (bound only, no load
/// report) — the reference every other path is compared against.
Result fresh_bound(const topo::Machine& machine,
                   const std::vector<JobBinding>& jobs) {
  Options options;
  options.load_report = false;
  options.lower_bound = true;
  return analyze_jobs(machine, jobs, options);
}

/// "" when `got` equals `want` bit for bit (bound, clean flag, report).
std::string same_result(const std::string& where, const Result& got,
                        const Result& want) {
  std::string failures;
  if (got.clean() != want.clean()) failures += where + ": clean() mismatch\n";
  if (got.report.to_string() != want.report.to_string()) {
    failures += where + ": diagnostics differ\n";
  }
  if (got.bound.lower_bound != want.bound.lower_bound) {
    failures += where + ": lower_bound " +
                std::to_string(got.bound.lower_bound) + " != " +
                std::to_string(want.bound.lower_bound) + "\n";
  }
  if (got.bound.critical_path != want.bound.critical_path) {
    failures += where + ": critical_path mismatch\n";
  }
  if (got.bound.channel_serialization != want.bound.channel_serialization) {
    failures += where + ": channel_serialization mismatch\n";
  }
  return failures;
}

TEST(BindingWorkspace, ReusedWorkspaceMatchesFreshAnalysis) {
  // One workspace per machine serves the whole registry x payload x
  // mapping matrix, so its route memo and buffers carry over between
  // plans of different shapes; every result must still be exact.
  const topo::Machine machines[] = {topo::hydra(4), topo::lumi(2)};
  std::string failures;
  for (const auto& machine : machines) {
    Workspace workspace(machine);
    for (const auto& info : simmpi::algorithm_registry()) {
      const std::int32_t p = pick_p(info, machine.cores());
      ASSERT_GT(p, 0) << info.name;
      for (const std::int64_t count : {64, 2048, 65536}) {
        const simmpi::Plan plan =
            simmpi::compile_plan(info.name, p, count, 0, 2);
        for (const bool spread : {false, true}) {
          const auto cores =
              spread ? spread_cores(p, machine.cores()) : packed_cores(p);
          const std::vector<JobBinding> jobs = {
              {&plan.schedule, &plan.exec, plan.repetitions, &cores, 0.0},
              {&plan.schedule, &plan.exec, plan.repetitions, &cores, 1e-6}};
          failures += same_result(
              machine.name() + "/" + info.name + "/" + std::to_string(count),
              analyze_jobs(workspace, jobs), fresh_bound(machine, jobs));
        }
      }
    }
  }
  EXPECT_EQ(failures, "");
}

TEST(BindingWorkspace, FindingsFallBackToFullDiagnostics) {
  // Errors and warnings alike take the full path: the Result, report text
  // included, is the fresh analysis'.
  const auto m = topo::testbox();
  Workspace workspace(m);
  const simmpi::Plan plan = simmpi::compile_plan("allgather_ring", 4, 16);
  for (const std::vector<std::int64_t>& cores :
       std::vector<std::vector<std::int64_t>>{
           {0, 1, 2, 99}, {0, 0, 1, 2}, {0, 1, 2}, {0, 1, 2, 3}}) {
    const std::vector<JobBinding> jobs = {
        {&plan.schedule, &plan.exec, plan.repetitions, &cores, 0.0},
        {&plan.schedule, &plan.exec, plan.repetitions, &cores, 0.0}};
    const Result got = analyze_jobs(workspace, jobs);
    EXPECT_EQ(same_result("cores", got, fresh_bound(m, jobs)), "");
  }
  const std::vector<std::int64_t> dup = {0, 0, 1, 2};
  const Result warned = analyze_jobs(
      workspace, {{&plan.schedule, &plan.exec, plan.repetitions, &dup, 0.0}});
  EXPECT_TRUE(warned.clean());
  EXPECT_EQ(warned.report.count(Severity::Warning), 1u);
  EXPECT_GT(warned.bound.lower_bound, 0.0);
}

TEST(BindingWorkspace, PerThreadWorkspacesMatchFresh) {
  // TSan target: concurrent analyses, one workspace per pool slot.
  const auto machine = topo::hydra(4);
  const auto& registry = simmpi::algorithm_registry();
  util::ThreadPool pool(4);
  std::vector<Workspace> workspaces;
  for (unsigned s = 0; s < pool.size(); ++s) workspaces.emplace_back(machine);
  std::vector<std::string> failures(registry.size() * 3);
  pool.parallel_for_slots(registry.size() * 3,
                          [&](unsigned slot, std::size_t i) {
    const auto& info = registry[i / 3];
    const std::int64_t count = std::int64_t{64} << (5 * (i % 3));
    const std::int32_t p = pick_p(info, machine.cores());
    const simmpi::Plan plan = simmpi::compile_plan(info.name, p, count, 0, 1);
    const auto cores = packed_cores(p);
    const std::vector<JobBinding> jobs = {
        {&plan.schedule, &plan.exec, plan.repetitions, &cores, 0.0}};
    failures[i] = same_result(info.name, analyze_jobs(workspaces[slot], jobs),
                              fresh_bound(machine, jobs));
  });
  for (const std::string& f : failures) EXPECT_EQ(f, "");
}

/// A topological order of one repetition that breaks ties the other way
/// from derive_exec's: a FIFO queue seeded from the highest rank down.
std::vector<std::int64_t> reverse_rank_order(const simmpi::PlanExec& exec) {
  const std::int64_t nrounds = exec.rank_rounds_begin.back();
  std::vector<std::int32_t> pend(static_cast<std::size_t>(nrounds));
  std::vector<bool> last(static_cast<std::size_t>(nrounds), false);
  std::vector<std::int64_t> queue;
  for (std::size_t r = exec.rank_rounds_begin.size() - 1; r-- > 0;) {
    if (exec.rank_rounds_begin[r] == exec.rank_rounds_begin[r + 1]) continue;
    last[static_cast<std::size_t>(exec.rank_rounds_begin[r + 1] - 1)] = true;
    queue.push_back(2 * exec.rank_rounds_begin[r]);
  }
  for (std::int64_t gi = 0; gi < nrounds; ++gi) {
    const auto i = static_cast<std::size_t>(gi);
    pend[i] = 1 + static_cast<std::int32_t>(exec.recv_begin[i + 1] -
                                            exec.recv_begin[i]);
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::int64_t event = queue[head];
    const auto gi = static_cast<std::size_t>(event / 2);
    if (event % 2 == 1) {
      if (!last[gi]) queue.push_back(event + 1);
      continue;
    }
    for (std::int64_t k = exec.send_begin[gi + 1]; k-- > exec.send_begin[gi];) {
      const std::int64_t dst = exec.msg_recv_round[static_cast<std::size_t>(
          exec.send_msg[static_cast<std::size_t>(k)])];
      if (--pend[static_cast<std::size_t>(dst)] == 0) {
        queue.push_back(2 * dst + 1);
      }
    }
    if (--pend[gi] == 0) queue.push_back(event + 1);
  }
  return queue;
}

TEST(BindingWorkspace, AnyTopologicalOrderGivesIdenticalBits) {
  // Every DP step is a max, a min, a `+` of fixed operands or an exact
  // int64 sum, so a second valid visit order must reproduce the bound
  // bit for bit.
  const topo::Machine machines[] = {topo::testbox(), topo::lumi(2)};
  int reordered = 0;
  for (const auto& machine : machines) {
    for (const auto& info : simmpi::algorithm_registry()) {
      const std::int32_t p = pick_p(info, machine.cores());
      for (const std::int64_t count : {64, 65536}) {
        const simmpi::Plan plan =
            simmpi::compile_plan(info.name, p, count, 0, 3);
        simmpi::PlanExec other = plan.exec;
        other.visit_order = reverse_rank_order(plan.exec);
        ASSERT_EQ(other.visit_order.size(), plan.exec.visit_order.size());
        reordered += other.visit_order != plan.exec.visit_order;
        for (const bool spread : {false, true}) {
          const auto cores =
              spread ? spread_cores(p, machine.cores()) : packed_cores(p);
          const Result want = fresh_bound(
              machine,
              {{&plan.schedule, &plan.exec, plan.repetitions, &cores, 0.0}});
          const Result got = fresh_bound(
              machine,
              {{&plan.schedule, &other, plan.repetitions, &cores, 0.0}});
          EXPECT_EQ(same_result(info.name, got, want), "");
        }
      }
    }
  }
  EXPECT_GT(reordered, 0);  // the property is not vacuous.
}

TEST(BoundStructure, EvaluateMatchesFreshAnalysisBitExactly) {
  // A structure built at one payload evaluates another payload of the same
  // shape exactly; the size axis straddles the eager threshold, so eager
  // flags, transfer floors and compute times must follow the live payload.
  const topo::Machine machines[] = {topo::hydra(4), topo::lumi(2)};
  std::string failures;
  int evaluated = 0;
  for (const auto& machine : machines) {
    for (const auto& info : simmpi::algorithm_registry()) {
      const std::int32_t p = pick_p(info, machine.cores());
      const auto cores = spread_cores(p, machine.cores());
      const simmpi::Plan base = simmpi::compile_plan(info.name, p, 64, 0, 1);
      Result built;
      const BoundStructure structure = BoundStructure::build(
          machine, {{&base.schedule, &base.exec, 1, &cores, 0.0}}, built);
      ASSERT_TRUE(structure.clean()) << info.name;
      for (const std::int64_t count : {2048, 65536}) {
        const simmpi::Plan plan =
            simmpi::compile_plan(info.name, p, count, 0, 1);
        const std::vector<JobBinding> jobs = {
            {&plan.schedule, &plan.exec, 1, &cores, 0.0}};
        if (!structure.compatible(machine, jobs)) continue;
        const std::vector<JobBinding> base_jobs = {
            {&base.schedule, &base.exec, 1, &cores, 0.0}};
        EXPECT_EQ(structure_key(machine, jobs),
                  structure_key(machine, base_jobs));
        failures += same_result(info.name, structure.evaluate(machine, jobs),
                                fresh_bound(machine, jobs));
        ++evaluated;
      }
    }
  }
  EXPECT_EQ(failures, "");
  EXPECT_GT(evaluated, 0);
}

TEST(BoundStructure, SnapshotOutlivesSourcePlanAndRejectsOtherCores) {
  const auto machine = topo::hydra(4);
  const auto cores = packed_cores(4);
  BoundStructure structure;
  {
    const simmpi::Plan doomed = simmpi::compile_plan("allgather_ring", 4, 64);
    Result fresh;
    structure = BoundStructure::build(
        machine, {{&doomed.schedule, &doomed.exec, 1, &cores, 0.0}}, fresh);
  }
  const simmpi::Plan plan = simmpi::compile_plan("allgather_ring", 4, 64);
  const std::vector<JobBinding> jobs = {
      {&plan.schedule, &plan.exec, 1, &cores, 0.0}};
  ASSERT_TRUE(structure.compatible(machine, jobs));
  EXPECT_EQ(structure.evaluate(machine, jobs).bound.lower_bound,
            fresh_bound(machine, jobs).bound.lower_bound);
  const auto other = spread_cores(4, machine.cores());
  const std::vector<JobBinding> moved = {
      {&plan.schedule, &plan.exec, 1, &other, 0.0}};
  EXPECT_FALSE(structure.compatible(machine, moved));
  EXPECT_NE(structure_key(machine, moved), structure_key(machine, jobs));
  // A defective binding never yields a clean structure.
  const std::vector<std::int64_t> bad = {0, 1, 2, machine.cores()};
  Result fresh;
  EXPECT_FALSE(BoundStructure::build(
                   machine, {{&plan.schedule, &plan.exec, 1, &bad, 0.0}}, fresh)
                   .clean());
  EXPECT_FALSE(fresh.clean());
}

TEST(BindingChannelName, NamesFollowLevelAndKind) {
  const auto m = topo::testbox();  // ⟦2,2,4⟧: 2 nodes, 4 sockets, 16 cores.
  EXPECT_EQ(channel_name(m, 0), "node[0].egress");
  EXPECT_EQ(channel_name(m, 4), "node[1].ingress");
  EXPECT_EQ(channel_name(m, 3 * 2), "socket[0].egress");
  EXPECT_EQ(channel_name(m, 3 * 5 + 2), "socket[3].mem");
  EXPECT_EQ(channel_name(m, 3 * 6), "core[0].egress");
  EXPECT_EQ(channel_name(m, 3 * 21 + 1), "core[15].ingress");
  EXPECT_EQ(channel_name(m, -1), "channel[-1]");
}

}  // namespace
}  // namespace mr::verify::binding
