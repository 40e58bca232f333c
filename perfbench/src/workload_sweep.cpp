// Workload `sweep`: figure-shaped harness::run_sweep queries on ONE engine
// shared across the run, as in a fig-bench process — the plan cache stays
// warm, where `tune` keeps it cold. The simmpi timed executor and the simnet
// FlowSim do nearly all the work; verify, tune and slurm never run.
//
// A query is one figure: the same SweepConfig run single-comm, then
// all-comms. Fixed settings: the first six distinct_orders at
// SameSetsAndInternal, paper_sizes(8 MiB), default completion slack. Mix:
// machine {hydra:8, lumi:4} x collective {alltoall, allreduce, allgather} x
// comm size {16, 32}; a deck holds these twelve cells once, in seeded order.
// Larger machines and 64-rank communicators are left out: their all-comms
// figures cost 2-40 s each on a 4-core host, too long for a query.
#include <algorithm>
#include <cmath>
#include <iterator>
#include <sstream>

#include "bench.hpp"
#include "mixradix/engine/engine.hpp"
#include "mixradix/harness/microbench.hpp"
#include "mixradix/mr/equivalence.hpp"
#include "mixradix/simmpi/collectives.hpp"
#include "mixradix/simmpi/timed_executor.hpp"
#include "mixradix/topo/presets.hpp"
#include "mixradix/tune/search.hpp"
#include "mixradix/util/prng.hpp"

namespace perfbench {
namespace {

using mr::simmpi::Collective;

constexpr Collective kCollectives[] = {Collective::Alltoall,
                                       Collective::Allreduce,
                                       Collective::Allgather};
constexpr std::int64_t kCommSizes[] = {16, 32};
constexpr std::size_t kOrders = 6;

struct SweepCell {
  std::size_t machine = 0;
  Collective collective = Collective::Alltoall;
  std::size_t comm = 0;  ///< index into kCommSizes.
};

class SweepWorkload final : public Workload {
 public:
  SweepWorkload(std::uint64_t seed, unsigned width, Trace* trace) {
    const std::pair<const char*, mr::topo::Machine> machines[] = {
        {"hydra:8", mr::topo::hydra(8)}, {"lumi:4", mr::topo::lumi(4)}};
    for (const auto& [label, machine] : machines) {
      check_machine(machine, trace);
      labels_.push_back(label);
      machines_.push_back(machine);
    }
    generate(seed);
    // The legend orders of every (machine, comm size): part of the query
    // mix, computed once.
    for (const auto& machine : machines_) {
      auto& per_size = orders_.emplace_back();
      for (const std::int64_t s : kCommSizes) {
        auto distinct = mr::distinct_orders(
            engine_, machine.hierarchy(), s,
            mr::Equivalence::SameSetsAndInternal, static_cast<int>(width));
        if (distinct.size() > kOrders) distinct.resize(kOrders);
        per_size.push_back(std::move(distinct));
      }
    }
    warm_ = {0, Collective::Alltoall, 0};
  }

  std::size_t size() const override { return queries_.size(); }
  std::size_t deck() const override { return kDeck; }

  QueryOutcome run(std::size_t index, unsigned width, Trace* trace) override {
    return run_cell(queries_[index], width, trace);
  }
  QueryOutcome warm_up(unsigned width) override {
    return run_cell(warm_, width, nullptr);
  }

  void engine_counters(Trace& trace) const override {
    trace.add("engine.workspaces_created",
              static_cast<double>(traced_.workspaces_created));
    trace.add("engine.workspace_checkouts",
              static_cast<double>(traced_.workspace_checkouts));
    trace.add("simmpi.plan_cache.hits",
              static_cast<double>(traced_.plan_cache.hits));
    trace.add("simmpi.plan_cache.misses",
              static_cast<double>(traced_.plan_cache.misses));
  }

 private:
  static constexpr std::size_t kDeck = 12;
  static constexpr std::size_t kDecks = 20;

  void generate(std::uint64_t seed) {
    mr::util::Xoshiro256 rng(seed);
    for (std::size_t d = 0; d < kDecks; ++d) {
      std::vector<SweepCell> cells;
      for (std::size_t m = 0; m < machines_.size(); ++m) {
        for (const Collective collective : kCollectives) {
          for (std::size_t s = 0; s < std::size(kCommSizes); ++s) {
            cells.push_back({m, collective, s});
          }
        }
      }
      for (std::size_t i = cells.size(); i > 1; --i) {
        std::swap(cells[i - 1], cells[rng.next_below(i)]);
      }
      queries_.insert(queries_.end(), cells.begin(), cells.end());
    }
  }

  QueryOutcome run_cell(const SweepCell& cell, unsigned width, Trace* trace) {
    const mr::topo::Machine& machine = machines_[cell.machine];
    mr::harness::SweepConfig config;
    config.orders = orders_[cell.machine][cell.comm];
    config.sizes = mr::harness::paper_sizes(8ll << 20);
    config.comm_size = kCommSizes[cell.comm];
    config.collective = cell.collective;
    config.threads = static_cast<int>(width);

    QueryOutcome out;
    const std::string figure =
        labels_[cell.machine] + "/" +
        std::string(mr::tune::collective_name(cell.collective)) + "/p" +
        std::to_string(config.comm_size);
    out.key = "sweep/" + figure;

    const mr::Engine::Stats before = engine_.stats();
    std::vector<mr::harness::SweepSeries> halves[2];
    for (const bool all : {false, true}) {
      config.all_comms = all;
      Trace::Span span(trace, "harness.run_sweep");
      halves[all] = mr::harness::run_sweep(engine_, machine, config);
    }
    std::ostringstream csv;
    mr::harness::write_figure_csv(csv, figure, halves[0], halves[1]);
    out.digest = fnv1a(csv.str());

    for (const auto& half : halves) {
      if (half.size() != config.orders.size()) {
        return fail(out, "sweep returned " + std::to_string(half.size()) +
                             " series for " +
                             std::to_string(config.orders.size()) + " orders");
      }
      for (const auto& series : half) {
        for (const auto& r : series.results) {
          for (const double bw : {r.mean_bandwidth, r.bw_p10, r.bw_p90}) {
            if (!std::isfinite(bw) || bw <= 0) {
              return fail(out, "bandwidth " + std::to_string(bw) +
                                   " is not finite and positive");
            }
          }
        }
      }
    }

    if (trace != nullptr) {
      const mr::Engine::Stats after = engine_.stats();
      traced_.workspaces_created +=
          after.workspaces_created - before.workspaces_created;
      traced_.workspace_checkouts +=
          after.workspace_checkouts - before.workspace_checkouts;
      traced_.plan_cache.hits += after.plan_cache.hits - before.plan_cache.hits;
      traced_.plan_cache.misses +=
          after.plan_cache.misses - before.plan_cache.misses;
      trace->add("harness.sweep_points",
                 2.0 * static_cast<double>(config.orders.size() *
                                           config.sizes.size()));
      for (const bool all : {false, true}) {
        config.all_comms = all;
        out.error = replay(machine, config, halves[all], *trace);
        if (!out.error.empty()) break;
      }
    }
    return out;
  }

  static QueryOutcome fail(QueryOutcome out, std::string error) {
    out.error = std::move(error);
    return out;
  }

  /// Replay every (order, size) point of one sweep half as protocol_jobs
  /// plus run_timed on the shared engine, rebuilding run_microbench's
  /// bandwidth statistics; they must equal the sweep's bit for bit.
  std::string replay(const mr::topo::Machine& machine,
                     const mr::harness::SweepConfig& config,
                     const std::vector<mr::harness::SweepSeries>& half,
                     Trace& trace) {
    mr::harness::MicrobenchConfig mb;
    mb.comm_size = config.comm_size;
    mb.collective = config.collective;
    mb.all_comms = config.all_comms;
    mb.repetitions = config.repetitions;
    mb.completion_slack = config.completion_slack;
    std::vector<std::shared_ptr<const mr::simmpi::Plan>> plans;
    for (const std::int64_t bytes : config.sizes) {
      mb.total_bytes = bytes;
      plans.push_back(compile_point(engine_, machine, mb, trace));
    }
    mr::Engine::WorkspaceLease lease = engine_.workspace();
    for (std::size_t oi = 0; oi < config.orders.size(); ++oi) {
      mb.order = config.orders[oi];
      for (std::size_t si = 0; si < config.sizes.size(); ++si) {
        mb.total_bytes = config.sizes[si];
        const auto jobs = traced_jobs(engine_, machine, mb, trace);
        if (jobs.front().plan != plans[si]) {
          return "replay's plan key differs from protocol_jobs'";
        }
        const mr::simmpi::TimedResult timed = traced_run(
            machine, jobs, mb.completion_slack, lease.get(), trace);
        std::vector<double> bandwidths;
        for (const double finish : timed.job_finish) {
          bandwidths.push_back(static_cast<double>(mb.total_bytes) /
                               (finish / mb.repetitions));
        }
        std::sort(bandwidths.begin(), bandwidths.end());
        double mean = 0;
        for (const double bw : bandwidths) mean += bw;
        mean /= static_cast<double>(bandwidths.size());
        if (!same_bits(mean, half[oi].results[si].mean_bandwidth)) {
          return "replayed bandwidth differs for order " +
                 mr::order_to_string(mb.order) + " at " +
                 std::to_string(mb.total_bytes) + " B";
        }
      }
    }
    return {};
  }

  mr::Engine engine_;
  std::vector<std::string> labels_;
  std::vector<mr::topo::Machine> machines_;
  /// orders_[machine][comm size index]: the legend orders of a figure.
  std::vector<std::vector<std::vector<mr::Order>>> orders_;
  std::vector<SweepCell> queries_;
  SweepCell warm_;
  mr::Engine::Stats traced_;  ///< engine counter deltas of traced queries.
};

}  // namespace

std::unique_ptr<Workload> make_sweep(std::uint64_t seed, unsigned width,
                                     Trace* trace) {
  return std::make_unique<SweepWorkload>(seed, width, trace);
}

}  // namespace perfbench
