#include "mixradix/simmpi/plan.hpp"

#include <utility>

#include "mixradix/simmpi/registry.hpp"
#include "mixradix/util/expect.hpp"

namespace mr::simmpi {

PlanExec derive_exec(const Schedule& schedule) {
  PlanExec exec;
  const auto nranks = static_cast<std::size_t>(schedule.nranks);
  exec.rank_rounds_begin.reserve(nranks + 1);
  exec.rank_rounds_begin.push_back(0);
  std::size_t total_rounds = 0, total_sends = 0, total_recvs = 0;
  for (const RankProgram& prog : schedule.programs) {
    total_rounds += prog.rounds.size();
    exec.rank_rounds_begin.push_back(static_cast<std::int64_t>(total_rounds));
    for (const Round& round : prog.rounds) {
      total_sends += round.sends.size();
      total_recvs += round.recvs.size();
    }
  }
  exec.round_compute.reserve(total_rounds);
  exec.round_copy_doubles.reserve(total_rounds);
  exec.send_begin.reserve(total_rounds + 1);
  exec.recv_begin.reserve(total_rounds + 1);
  exec.send_msg.reserve(total_sends);
  exec.recv_msg.reserve(total_recvs);
  exec.send_begin.push_back(0);
  exec.recv_begin.push_back(0);
  for (const RankProgram& prog : schedule.programs) {
    for (const Round& round : prog.rounds) {
      exec.round_compute.push_back(round.compute_seconds);
      std::int64_t copy_doubles = 0;
      for (const CopyOp& op : round.copies) copy_doubles += op.dst.count;
      exec.round_copy_doubles.push_back(copy_doubles);
      for (const SendOp& op : round.sends) exec.send_msg.push_back(op.msg);
      for (const RecvOp& op : round.recvs) exec.recv_msg.push_back(op.msg);
      exec.send_begin.push_back(static_cast<std::int64_t>(exec.send_msg.size()));
      exec.recv_begin.push_back(static_cast<std::int64_t>(exec.recv_msg.size()));
    }
  }
  exec.msg_bytes.reserve(schedule.messages.size());
  for (const MsgInfo& m : schedule.messages) exec.msg_bytes.push_back(m.bytes());

  // Locate each message's send and receive round, once per plan.
  const auto nmsgs = static_cast<std::int64_t>(schedule.messages.size());
  exec.msg_send_round.assign(schedule.messages.size(), -1);
  exec.msg_recv_round.assign(schedule.messages.size(), -1);
  const auto locate = [&](const std::vector<std::int32_t>& ops,
                          const std::vector<std::int64_t>& begin,
                          std::vector<std::int64_t>& round_of) {
    for (std::size_t gi = 0; gi < total_rounds; ++gi) {
      for (auto k = static_cast<std::size_t>(begin[gi]);
           k < static_cast<std::size_t>(begin[gi + 1]); ++k) {
        const std::int32_t m = ops[k];
        if (m < 0 || m >= nmsgs || round_of[static_cast<std::size_t>(m)] >= 0) {
          ++exec.malformed_ops;
        } else {
          round_of[static_cast<std::size_t>(m)] = static_cast<std::int64_t>(gi);
        }
      }
    }
  };
  locate(exec.send_msg, exec.send_begin, exec.msg_send_round);
  locate(exec.recv_msg, exec.recv_begin, exec.msg_recv_round);
  if (exec.malformed_ops > 0) return exec;

  // Kahn's algorithm over one repetition's READY/FINISH events. A FINISH
  // waits for its own READY plus one READY per received message; an
  // unsent message's receiver never becomes ready, leaving the order short.
  std::vector<std::int32_t> pend(total_rounds);
  std::vector<bool> last_of_rank(total_rounds, false);
  std::vector<std::int64_t> stack;
  for (std::size_t r = 0; r < nranks; ++r) {
    const auto first = static_cast<std::size_t>(exec.rank_rounds_begin[r]);
    const auto end = static_cast<std::size_t>(exec.rank_rounds_begin[r + 1]);
    if (first == end) continue;
    last_of_rank[end - 1] = true;
    stack.push_back(2 * static_cast<std::int64_t>(first));
  }
  for (std::size_t gi = 0; gi < total_rounds; ++gi) {
    pend[gi] = 1 + static_cast<std::int32_t>(exec.recv_begin[gi + 1] -
                                             exec.recv_begin[gi]);
  }
  exec.visit_order.reserve(2 * total_rounds);
  while (!stack.empty()) {
    const std::int64_t event = stack.back();
    stack.pop_back();
    exec.visit_order.push_back(event);
    const auto gi = static_cast<std::size_t>(event / 2);
    if (event % 2 == 1) {
      if (!last_of_rank[gi]) stack.push_back(event + 1);  // READY(gi + 1).
      continue;
    }
    for (auto k = static_cast<std::size_t>(exec.send_begin[gi]);
         k < static_cast<std::size_t>(exec.send_begin[gi + 1]); ++k) {
      const std::int64_t dst = exec.msg_recv_round[static_cast<std::size_t>(
          exec.send_msg[k])];
      if (dst >= 0 && --pend[static_cast<std::size_t>(dst)] == 0) {
        stack.push_back(2 * dst + 1);
      }
    }
    if (--pend[gi] == 0) stack.push_back(event + 1);
  }
  return exec;
}

Plan make_plan(Schedule schedule, int repetitions, std::string algorithm) {
  MR_EXPECT(repetitions >= 1, "repetition count must be >= 1");
  Plan plan;
  plan.schedule = std::move(schedule);
  plan.repetitions = repetitions;
  plan.algorithm = std::move(algorithm);
  plan.exec = derive_exec(plan.schedule);
  return plan;
}

Plan compile_plan(const std::string& algorithm, std::int32_t p,
                  std::int64_t count, std::int32_t root, int repetitions) {
  MR_EXPECT(repetitions >= 1, "repetition count must be >= 1");
  Schedule schedule;
  {
    // Defer build()-time verification to the single whole-plan analysis
    // below: a compile is one verify::analyze per distinct plan key.
    detail::PlanCompileScope scope;
    schedule = make_algorithm(algorithm, p, count, root);
  }
  Plan plan = make_plan(std::move(schedule), repetitions, algorithm);
#ifdef MIXRADIX_VERIFY_SCHEDULES
  auto report = std::make_shared<verify::Report>(verify::analyze(plan.schedule));
  MR_EXPECT(report->clean(), "plan " + algorithm +
                                 " fails static verification:\n" +
                                 report->to_string());
  plan.report = std::move(report);
#endif
  return plan;
}

}  // namespace mr::simmpi
