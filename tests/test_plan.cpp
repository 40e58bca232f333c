// Compiled-plan tests: registry/selector consistency, the flattened
// execution CSR, and the executor's repetition loop against materialized
// repeat() schedules.
#include "mixradix/simmpi/plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "mixradix/simmpi/collectives.hpp"
#include "mixradix/simmpi/data_executor.hpp"
#include "mixradix/simmpi/registry.hpp"
#include "mixradix/simmpi/timed_executor.hpp"
#include "mixradix/topo/presets.hpp"
#include "mixradix/util/expect.hpp"
#include "mixradix/verify/generator_matrix.hpp"

namespace mr::simmpi {
namespace {

TEST(Registry, EveryEntryHasNamePredicateAndGenerator) {
  const auto& reg = algorithm_registry();
  ASSERT_FALSE(reg.empty());
  for (const AlgorithmInfo& e : reg) {
    EXPECT_NE(e.name, nullptr);
    EXPECT_NE(e.supported, nullptr);
    EXPECT_NE(e.make, nullptr);
    EXPECT_EQ(find_algorithm(e.name), &e);
  }
}

TEST(Registry, FindUnknownReturnsNull) {
  EXPECT_EQ(find_algorithm("alltoall_quantum"), nullptr);
}

TEST(Registry, MakeAlgorithmMatchesDirectGenerators) {
  const Schedule direct = alltoall_bruck(8, 100);
  const Schedule named = make_algorithm("alltoall_bruck", 8, 100);
  EXPECT_EQ(named.nranks, direct.nranks);
  EXPECT_EQ(named.arena_size, direct.arena_size);
  EXPECT_EQ(named.messages.size(), direct.messages.size());
  EXPECT_EQ(named.total_bytes(), direct.total_bytes());
}

TEST(Registry, MakeAlgorithmValidatesArguments) {
  EXPECT_THROW(make_algorithm("no_such_algorithm", 4, 1), mr::invalid_argument);
  EXPECT_THROW(make_algorithm("allgather_recursive_doubling", 6, 1),
               mr::invalid_argument);
  EXPECT_THROW(make_algorithm("alltoall_bruck", 4, 0), mr::invalid_argument);
  EXPECT_THROW(make_algorithm("bcast_binomial", 4, 1, 4), mr::invalid_argument);
  EXPECT_THROW(make_algorithm("bcast_binomial", 4, 1, -1),
               mr::invalid_argument);
}

// The selector must only ever pick names the registry can compile — this is
// the contract that lets the harness route every collective through the
// plan cache by name.
TEST(Registry, SelectorOnlyPicksRegisteredAlgorithms) {
  const std::vector<Collective> kinds = {
      Collective::Alltoall,  Collective::Allgather, Collective::Allreduce,
      Collective::Bcast,     Collective::Reduce,    Collective::Gather,
      Collective::Scatter,   Collective::ReduceScatter,
      Collective::Scan,      Collective::Barrier,
  };
  for (const Collective kind : kinds) {
    for (const std::int32_t p : {2, 3, 16}) {
      for (const std::int64_t count : {std::int64_t{1}, std::int64_t{65536}}) {
        const std::string name = selected_algorithm(kind, p, count, 8192);
        const AlgorithmInfo* info = find_algorithm(name);
        ASSERT_NE(info, nullptr) << name;
        EXPECT_TRUE(info->supported(p)) << name << " p=" << p;
      }
    }
  }
}

// The verify generator matrix delegates to the same registry: every
// registry name is a matrix name and instantiates identically.
TEST(Registry, VerifyMatrixDelegatesToRegistry) {
  const auto names = verify::algorithm_names();
  for (const AlgorithmInfo& e : algorithm_registry()) {
    EXPECT_NE(std::find(names.begin(), names.end(), e.name), names.end())
        << e.name;
    EXPECT_EQ(verify::supports(e.name, 16), e.supported(16));
    const Schedule a = verify::make_named(e.name, 4, 40, 0);
    const Schedule b = make_algorithm(e.name, 4, 40, 0);
    EXPECT_EQ(a.messages.size(), b.messages.size()) << e.name;
    EXPECT_EQ(a.total_bytes(), b.total_bytes()) << e.name;
  }
}

TEST(PlanExec, VisitOrderIsTopologicalForEveryRegistryPlan) {
  // Every event appears once, a READY follows its rank's previous FINISH,
  // and a FINISH follows its own READY and every sender's READY.
  for (const AlgorithmInfo& info : algorithm_registry()) {
    for (const std::int32_t p : {8, 6, 4, 2}) {
      if (!info.supported(p)) continue;
      const Plan plan = compile_plan(info.name, p, 4096);
      const PlanExec& exec = plan.exec;
      const auto nrounds =
          static_cast<std::size_t>(exec.rank_rounds_begin.back());
      ASSERT_EQ(exec.visit_order.size(), 2 * nrounds) << info.name;
      EXPECT_EQ(exec.malformed_ops, 0);
      std::vector<std::int64_t> pos(2 * nrounds, -1);
      for (std::size_t i = 0; i < exec.visit_order.size(); ++i) {
        const auto e = static_cast<std::size_t>(exec.visit_order[i]);
        ASSERT_EQ(pos[e], -1) << info.name << ": event " << e << " twice";
        pos[e] = static_cast<std::int64_t>(i);
      }
      const auto before = [&](std::size_t a, std::size_t b) {
        return pos[a] < pos[b];
      };
      for (std::size_t r = 0; r + 1 < exec.rank_rounds_begin.size(); ++r) {
        for (auto gi = static_cast<std::size_t>(exec.rank_rounds_begin[r]);
             gi < static_cast<std::size_t>(exec.rank_rounds_begin[r + 1]);
             ++gi) {
          EXPECT_TRUE(before(2 * gi, 2 * gi + 1)) << info.name;
          if (gi > static_cast<std::size_t>(exec.rank_rounds_begin[r])) {
            EXPECT_TRUE(before(2 * gi - 1, 2 * gi)) << info.name;
          }
        }
      }
      for (std::size_t m = 0; m < plan.schedule.messages.size(); ++m) {
        const auto send = static_cast<std::size_t>(exec.msg_send_round[m]);
        const auto recv = static_cast<std::size_t>(exec.msg_recv_round[m]);
        EXPECT_TRUE(before(2 * send, 2 * recv + 1)) << info.name;
      }
    }
  }
}

TEST(PlanExec, DerivationFlagsMalformedAndCyclicCsr) {
  // Each rank waits in round 0 for a message the peer sends in round 1.
  Schedule s;
  s.nranks = 2;
  s.arena_size = 4;
  s.messages = {MsgInfo{1, 0, {0, 2}, {0, 2}, Combine::Replace},
                MsgInfo{0, 1, {2, 2}, {2, 2}, Combine::Replace}};
  s.programs.resize(2);
  s.programs[0].rounds.resize(2);
  s.programs[0].rounds[0].recvs = {RecvOp{0}};
  s.programs[0].rounds[1].sends = {SendOp{1}};
  s.programs[1].rounds.resize(2);
  s.programs[1].rounds[0].recvs = {RecvOp{1}};
  s.programs[1].rounds[1].sends = {SendOp{0}};
  const PlanExec cyclic = derive_exec(s);
  EXPECT_EQ(cyclic.malformed_ops, 0);
  EXPECT_EQ(cyclic.msg_send_round, (std::vector<std::int64_t>{3, 1}));
  EXPECT_EQ(cyclic.msg_recv_round, (std::vector<std::int64_t>{0, 2}));
  EXPECT_LT(cyclic.visit_order.size(), 8u);

  // An unsent message leaves its round -1; an id past the table and a
  // second send of one message are malformed ops.
  s.programs[1].rounds[1].sends = {};
  const PlanExec unsent = derive_exec(s);
  EXPECT_EQ(unsent.msg_send_round[0], -1);
  EXPECT_EQ(unsent.malformed_ops, 0);
  s.programs[1].rounds[1].sends = {SendOp{7}, SendOp{1}};
  EXPECT_EQ(derive_exec(s).malformed_ops, 2);
}

TEST(PlanExec, CsrMatchesSchedule) {
  const Schedule s = make_algorithm("allgather_ring", 5, 20);
  const PlanExec exec = derive_exec(s);
  ASSERT_EQ(exec.rank_rounds_begin.size(), static_cast<std::size_t>(s.nranks) + 1);
  EXPECT_EQ(exec.rank_rounds_begin.front(), 0);
  EXPECT_EQ(exec.msg_bytes.size(), s.messages.size());
  for (std::size_t m = 0; m < s.messages.size(); ++m) {
    EXPECT_EQ(exec.msg_bytes[m], s.messages[m].bytes());
  }
  std::int64_t flat = 0;
  for (std::int32_t rank = 0; rank < s.nranks; ++rank) {
    const auto& rounds = s.programs[static_cast<std::size_t>(rank)].rounds;
    EXPECT_EQ(exec.rounds_of(rank), static_cast<std::int64_t>(rounds.size()));
    for (const Round& round : rounds) {
      const auto gi = static_cast<std::size_t>(flat);
      EXPECT_EQ(exec.round_compute[gi], round.compute_seconds);
      const auto sends_begin = static_cast<std::size_t>(exec.send_begin[gi]);
      const auto recvs_begin = static_cast<std::size_t>(exec.recv_begin[gi]);
      ASSERT_EQ(exec.send_begin[gi + 1] - exec.send_begin[gi],
                static_cast<std::int64_t>(round.sends.size()));
      ASSERT_EQ(exec.recv_begin[gi + 1] - exec.recv_begin[gi],
                static_cast<std::int64_t>(round.recvs.size()));
      for (std::size_t i = 0; i < round.sends.size(); ++i) {
        EXPECT_EQ(exec.send_msg[sends_begin + i], round.sends[i].msg);
      }
      for (std::size_t i = 0; i < round.recvs.size(); ++i) {
        EXPECT_EQ(exec.recv_msg[recvs_begin + i], round.recvs[i].msg);
      }
      std::int64_t copy_doubles = 0;
      for (const CopyOp& op : round.copies) copy_doubles += op.dst.count;
      EXPECT_EQ(exec.round_copy_doubles[gi], copy_doubles);
      ++flat;
    }
  }
  EXPECT_EQ(exec.rank_rounds_begin.back(), flat);
}

TEST(Plan, MakePlanRejectsNonPositiveRepetitions) {
  EXPECT_THROW(make_plan(make_algorithm("barrier_dissemination", 4, 1), 0),
               mr::invalid_argument);
}

TEST(Plan, CompilePlanCarriesAlgorithmAndCounts) {
  const Plan plan = compile_plan("alltoall_pairwise", 8, 64, 0, 3);
  EXPECT_EQ(plan.algorithm, "alltoall_pairwise");
  EXPECT_EQ(plan.nranks(), 8);
  EXPECT_EQ(plan.repetitions, 3);
  EXPECT_EQ(plan.total_messages(), plan.messages_per_rep() * 3);
#ifdef MIXRADIX_VERIFY_SCHEDULES
  ASSERT_NE(plan.report, nullptr);
  EXPECT_TRUE(plan.report->clean());
#else
  EXPECT_EQ(plan.report, nullptr);
#endif
}

// The load-bearing equivalence: executing a plan's repetition count as a
// loop must reproduce the materialized repeat() schedule bit for bit —
// the sweep CSVs depend on it.
TEST(Plan, RepetitionLoopMatchesMaterializedRepeat) {
  const auto machine = topo::testbox();
  const std::vector<std::int64_t> cores = {0, 1, 4, 5, 8, 9, 12, 13};
  for (const char* name :
       {"alltoall_pairwise", "allreduce_recursive_doubling",
        "allgather_bruck", "reduce_scatter_ring"}) {
    for (const int reps : {1, 2, 5}) {
      const Schedule once = make_algorithm(name, 8, 300);
      const Schedule materialized = repeat(once, reps);
      const double expect =
          run_timed_single(machine, materialized, cores);
      const Plan plan = make_plan(once, reps, name);
      const double got = run_timed_plan_single(machine, plan, cores);
      EXPECT_EQ(got, expect) << name << " reps=" << reps;
    }
  }
}

TEST(Plan, RepetitionLoopMatchesRepeatUnderContention) {
  const auto machine = topo::testbox();
  const Schedule once = make_algorithm("alltoall_pairwise", 4, 2048);
  const Schedule materialized = repeat(once, 3);
  const auto plan = std::make_shared<const Plan>(make_plan(once, 3));
  const std::vector<std::vector<std::int64_t>> bindings = {
      {0, 1, 2, 3}, {8, 9, 10, 11}};

  std::vector<JobSpec> legacy;
  std::vector<PlanJob> jobs;
  for (const auto& cores : bindings) {
    legacy.push_back(JobSpec{&materialized, cores, 0.0});
    jobs.push_back(PlanJob{plan, cores, 0.0});
  }
  const TimedResult a = run_timed(machine, legacy);
  const TimedResult b = run_timed(machine, jobs);
  EXPECT_EQ(a.makespan, b.makespan);
  ASSERT_EQ(a.job_finish.size(), b.job_finish.size());
  for (std::size_t i = 0; i < a.job_finish.size(); ++i) {
    EXPECT_EQ(a.job_finish[i], b.job_finish[i]);
  }
  EXPECT_EQ(a.total_messages, b.total_messages);
}

TEST(Plan, EmptyRankProgramsFinishImmediately) {
  // A schedule where some ranks have no rounds at all must not trip the
  // repetition arithmetic (rounds_per_rep == 0).
  ScheduleBuilder b(3, 4);
  b.exchange(0, 0, Region{0, 4}, 2, Region{0, 4});  // rank 1 idle
  const Plan plan = make_plan(std::move(b).build(), 4);
  const auto machine = topo::testbox();
  const double t = run_timed_plan_single(machine, plan, {0, 1, 2});
  EXPECT_GT(t, 0.0);
}

TEST(Plan, DataExecutorRunsPlansWithRepetitions) {
  // allreduce twice: the second repetition re-sums the already-reduced
  // arenas, so every rank ends with p^2 * initial (initial = rank + 1,
  // summed = p(p+1)/2, then p * that... verified against the materialized
  // DataExecutor run instead of hand-arithmetic).
  const auto plan = std::make_shared<const Plan>(
      make_plan(make_algorithm("allreduce_recursive_doubling", 4, 8), 2));
  DataExecutor via_plan(plan);
  DataExecutor materialized(repeat(plan->schedule, 2));
  for (std::int32_t rank = 0; rank < 4; ++rank) {
    for (auto* ex : {&via_plan, &materialized}) {
      auto& arena = ex->arena(rank);
      std::fill(arena.begin(), arena.end(), static_cast<double>(rank + 1));
    }
  }
  via_plan.run();
  materialized.run();
  for (std::int32_t rank = 0; rank < 4; ++rank) {
    EXPECT_EQ(via_plan.arena(rank), materialized.arena(rank)) << rank;
  }
}

}  // namespace
}  // namespace mr::simmpi
