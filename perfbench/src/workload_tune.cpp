// Workload `tune`: cold mr::tune queries, each on a fresh mr::Engine — the
// way mrtune_cli serves one query per process. verify (stage-2 bounds) and
// tune do most of the work; the simulator runs only the survivors.
//
// Fixed settings: AllComms, k=3, 2 repetitions, completion slack 0, comm
// size 16. Catalog: machine {deep6, deep7, lumi:2} x collective {alltoall,
// allgather, allreduce} x five payload grids of 2-4 sizes in 256 KiB ...
// 16 MiB, drawn once from a fixed catalog seed. A deck is the whole
// 45-query catalog in an order drawn from the run seed. Query cost depends
// irregularly on the grid (0.2-2.5 s), so grids drawn per seed made the
// latency quantiles swing by a third between seeds; a fixed catalog keeps
// every seed timing the same mix.
#include <algorithm>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "bench.hpp"
#include "mixradix/engine/engine.hpp"
#include "mixradix/harness/microbench.hpp"
#include "mixradix/mr/equivalence.hpp"
#include "mixradix/simmpi/collectives.hpp"
#include "mixradix/simmpi/timed_executor.hpp"
#include "mixradix/topo/presets.hpp"
#include "mixradix/tune/report.hpp"
#include "mixradix/tune/search.hpp"
#include "mixradix/util/prng.hpp"
#include "mixradix/verify/binding.hpp"

namespace perfbench {
namespace {

using mr::simmpi::Collective;
using mr::tune::Fate;

constexpr std::int64_t kCommSize = 16;
constexpr Collective kCollectives[] = {Collective::Alltoall,
                                       Collective::Allgather,
                                       Collective::Allreduce};

/// Depth-6 variant of Hydra (bench/tune_scaling.cpp): 720 orders.
mr::topo::Machine deep6() {
  std::vector<mr::topo::LevelSpec> levels = {
      {"node", 4, 1.0e-6, 12.5e9, 0.0},
      {"socket", 2, 4.0e-7, 20.0e9, 85.0e9},
      {"numa", 2, 2.5e-7, 30.0e9, 60.0e9},
      {"half", 2, 1.5e-7, 40.0e9, 48.0e9},
      {"l3", 2, 1.2e-7, 25.0e9, 30.0e9},
      {"core", 2, 1.0e-7, 9.0e9, 12.0e9},
  };
  return mr::topo::Machine("deep6", std::move(levels));
}

/// Depth-7 binary cache/NUMA tree over 4-core leaves
/// (bench/tune_scaling.cpp): 5040 orders.
mr::topo::Machine deep7() {
  std::vector<mr::topo::LevelSpec> levels = {
      {"cabinet", 2, 2.0e-6, 25.0e9, 0.0},
      {"node", 2, 1.0e-6, 12.5e9, 0.0},
      {"socket", 2, 4.0e-7, 20.0e9, 85.0e9},
      {"numa", 2, 2.5e-7, 30.0e9, 60.0e9},
      {"half", 2, 1.5e-7, 40.0e9, 48.0e9},
      {"l3", 2, 1.2e-7, 25.0e9, 30.0e9},
      {"core", 4, 1.0e-7, 9.0e9, 12.0e9},
  };
  return mr::topo::Machine("deep7", std::move(levels));
}

struct TuneCell {
  std::size_t machine = 0;
  Collective collective = Collective::Alltoall;
  std::vector<std::int64_t> bytes;
};

class TuneWorkload final : public Workload {
 public:
  TuneWorkload(std::uint64_t seed, Trace* trace) {
    machines_.push_back(deep6());
    machines_.push_back(deep7());
    machines_.push_back(mr::topo::lumi(2));
    for (const auto& m : machines_) check_machine(m, trace);
    generate(seed);
    warm_ = {2, Collective::Allreduce, {1ll << 20, 4ll << 20}};
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
    trace.add("engine.workspaces_created", totals_.workspaces_created);
    trace.add("engine.workspace_checkouts", totals_.workspace_checkouts);
    trace.add("simmpi.plan_cache.hits",
              static_cast<double>(totals_.plan_cache.hits));
    trace.add("simmpi.plan_cache.misses",
              static_cast<double>(totals_.plan_cache.misses));
  }

 private:
  static constexpr std::size_t kGrids = 5;  ///< per (machine, collective).
  static constexpr std::size_t kDeck = 9 * kGrids;
  static constexpr std::size_t kDecks = 3;
  static constexpr std::uint64_t kCatalogSeed = 0x74756e65;  // "tune"

  void generate(std::uint64_t seed) {
    std::vector<TuneCell> catalog;
    mr::util::Xoshiro256 draw(kCatalogSeed);
    const std::int64_t kMinBytes = 256ll << 10;
    for (std::size_t m = 0; m < machines_.size(); ++m) {
      for (const Collective collective : kCollectives) {
        for (const std::size_t length : {2, 2, 3, 3, 4}) {
          TuneCell cell{m, collective, {}};
          // A sorted draw of `length` distinct sizes out of 2^18 ... 2^24.
          std::vector<int> shifts(7);
          std::iota(shifts.begin(), shifts.end(), 0);
          for (std::size_t i = 0; i < length; ++i) {
            std::swap(shifts[i], shifts[i + draw.next_below(7 - i)]);
          }
          std::sort(shifts.begin(),
                    shifts.begin() + static_cast<std::ptrdiff_t>(length));
          for (std::size_t i = 0; i < length; ++i) {
            cell.bytes.push_back(kMinBytes << shifts[i]);
          }
          catalog.push_back(std::move(cell));
        }
      }
    }
    mr::util::Xoshiro256 rng(seed);
    for (std::size_t d = 0; d < kDecks; ++d) {
      for (std::size_t i = catalog.size(); i > 1; --i) {
        std::swap(catalog[i - 1], catalog[rng.next_below(i)]);
      }
      queries_.insert(queries_.end(), catalog.begin(), catalog.end());
    }
  }

  mr::tune::TuneQuery make_query(const TuneCell& cell, unsigned width) const {
    mr::tune::TuneQuery query;
    query.collectives = {cell.collective};
    query.comm_sizes = {kCommSize};
    query.total_bytes = cell.bytes;
    query.concurrency = mr::tune::Concurrency::AllComms;
    query.k = 3;
    query.repetitions = 2;
    query.completion_slack = 0.0;
    query.threads = static_cast<int>(width);
    return query;
  }

  static std::string key_of(const mr::topo::Machine& machine,
                            const TuneCell& cell) {
    std::string key = "tune/" + machine.name() + "/" +
                      std::string(mr::tune::collective_name(cell.collective)) +
                      "/";
    for (std::size_t i = 0; i < cell.bytes.size(); ++i) {
      if (i > 0) key += ',';
      key += std::to_string(cell.bytes[i]);
    }
    return key;
  }

  QueryOutcome run_cell(const TuneCell& cell, unsigned width, Trace* trace) {
    const mr::topo::Machine& machine = machines_[cell.machine];
    const mr::tune::TuneQuery query = make_query(cell, width);
    QueryOutcome out;
    out.key = key_of(machine, cell);

    mr::Engine engine;  // cold: fresh plan cache, bound cache, workspaces.
    mr::tune::TuneReport report;
    {
      Trace::Span span(trace, "tune.tune");
      report = mr::tune::tune(engine, machine, query);
    }
    std::ostringstream json;
    mr::tune::write_json(json, report, /*candidates=*/true);
    out.digest = fnv1a(json.str());
    out.error = check_report(report);

    if (trace != nullptr) {
      const mr::Engine::Stats stats = engine.stats();
      totals_.workspaces_created += stats.workspaces_created;
      totals_.workspace_checkouts += stats.workspace_checkouts;
      totals_.plan_cache.hits += stats.plan_cache.hits;
      totals_.plan_cache.misses += stats.plan_cache.misses;
      const mr::tune::TuneStats& s = report.stats;
      trace->add("tune.classes", static_cast<double>(s.classes));
      trace->add("tune.shard_classes", static_cast<double>(s.shard_classes));
      trace->add("tune.pruned", static_cast<double>(s.pruned));
      trace->add("tune.simulated", static_cast<double>(s.simulated));
      trace->add("tune.sim_points", static_cast<double>(s.sim_points));
      trace->add("tune.stage2_bound_s", s.bound_seconds);
      if (out.error.empty()) out.error = replay(machine, query, report, *trace);
    }
    return out;
  }

  /// Invariants every tune report must satisfy, on any seed.
  static std::string check_report(const mr::tune::TuneReport& report) {
    const mr::tune::TuneStats& s = report.stats;
    if (s.screened_out + s.pruned + s.simulated + s.budget_skipped !=
        s.shard_classes) {
      return "funnel accounting does not close: screened + pruned + "
             "simulated + skipped != shard_classes";
    }
    if (!s.exhausted) return "search did not run to completion";
    if (report.top.size() != static_cast<std::size_t>(report.query.k)) {
      return "top-k has " + std::to_string(report.top.size()) + " entries";
    }
    for (const auto& c : report.candidates) {
      if (c.fate == Fate::Simulated && !(c.lower_bound <= c.score)) {
        return "lower bound " + exact(c.lower_bound) +
               " exceeds simulated score " + exact(c.score) +
               " for order " + mr::order_to_string(c.order);
      }
    }
    return {};
  }

  /// Replay the funnel of `report` from outside, layer by layer, through a
  /// fresh engine: stage 0-1 classification and characterization, the
  /// stage-2 bound of every candidate x point (BoundStructure build or
  /// evaluate, keyed by structure_key as the engine's BoundCache does), and
  /// the stage-3 simulation of every Simulated candidate. The replayed
  /// bounds and makespans must equal the report's bit for bit.
  std::string replay(const mr::topo::Machine& machine,
                     const mr::tune::TuneQuery& query,
                     const mr::tune::TuneReport& report, Trace& trace) {
    namespace binding = mr::verify::binding;
    const mr::Hierarchy& h = machine.hierarchy();
    mr::Engine engine;
    const int threads = 1;

    // Stage 1: AllComms at slack 0 dedups by SameSetsAndInternal.
    mr::ClassifyStats cs;
    std::vector<mr::OrderClass> classes;
    {
      Trace::Span span(&trace, "mr.classify");
      classes = mr::classify_orders(engine, h, kCommSize,
                                    mr::Equivalence::SameSetsAndInternal,
                                    threads, mr::MetricsImpl::Fast, &cs);
    }
    trace.add("mr.classify.orders", static_cast<double>(cs.orders));
    trace.add("mr.classify.hash_collisions",
              static_cast<double>(cs.hash_collisions));
    if (classes.size() != report.candidates.size()) {
      return "replayed classification has " + std::to_string(classes.size()) +
             " classes, report has " +
             std::to_string(report.candidates.size());
    }

    // Stage 0: the representatives' closed-form characters.
    std::vector<mr::Order> reps;
    for (const auto& c : report.candidates) reps.push_back(c.order);
    std::vector<mr::OrderCharacter> characters;
    {
      Trace::Span span(&trace, "mr.characterize");
      characters =
          mr::characterize_orders(engine, h, reps, kCommSize, threads);
    }
    for (std::size_t i = 0; i < reps.size(); ++i) {
      if (characters[i].ring_cost != report.candidates[i].character.ring_cost ||
          characters[i].pair_pct != report.candidates[i].character.pair_pct) {
        return "replayed character differs for order " +
               mr::order_to_string(reps[i]);
      }
    }

    // Plans first, so the protocol_jobs calls below compile nothing.
    std::vector<mr::harness::MicrobenchConfig> configs;
    std::vector<std::shared_ptr<const mr::simmpi::Plan>> plans;
    for (const auto& point : report.points) {
      mr::harness::MicrobenchConfig mb;
      mb.comm_size = point.comm_size;
      mb.collective = point.collective;
      mb.total_bytes = point.total_bytes;
      mb.all_comms = true;
      mb.repetitions = query.repetitions;
      mb.completion_slack = query.completion_slack;
      plans.push_back(compile_point(engine, machine, mb, trace));
      configs.push_back(mb);
    }
    const auto jobs_for = [&](const mr::Order& order, std::size_t point) {
      configs[point].order = order;
      auto jobs = traced_jobs(engine, machine, configs[point], trace);
      if (jobs.front().plan != plans[point]) {
        throw std::logic_error("replay's plan key differs from protocol_jobs'");
      }
      return jobs;
    };

    // Stage 2: every candidate's summed bound.
    std::unordered_map<std::uint64_t, binding::BoundStructure> structures;
    double hits = 0;
    double misses = 0;
    for (const auto& candidate : report.candidates) {
      double bound = 0;
      for (std::size_t pi = 0; pi < configs.size(); ++pi) {
        const auto jobs = jobs_for(candidate.order, pi);
        std::vector<binding::JobBinding> bindings;
        for (const auto& job : jobs) {
          bindings.push_back({&job.plan->schedule, &job.plan->exec,
                              job.plan->repetitions, &job.core_of_rank,
                              job.start_time});
        }
        std::uint64_t key = 0;
        {
          Trace::Span span(&trace, "verify.structure_key");
          key = binding::structure_key(machine, bindings);
        }
        binding::Result result;
        const auto it = structures.find(key);
        bool evaluated = false;
        if (it != structures.end()) {
          Trace::Span span(&trace, "verify.bound_evaluate");
          if (it->second.compatible(machine, bindings)) {
            result = it->second.evaluate(machine, bindings);
            evaluated = true;
          }
        }
        if (evaluated) {
          ++hits;
        } else {
          ++misses;
          Trace::Span span(&trace, "verify.bound_build");
          binding::BoundStructure built =
              binding::BoundStructure::build(machine, bindings, result);
          if (built.clean()) structures[key] = std::move(built);
        }
        if (result.clean()) {
          bound += result.bound.for_slack(query.completion_slack);
        }
      }
      if (!same_bits(bound, candidate.lower_bound)) {
        return "replayed bound " + exact(bound) +
               " differs from the report's lower_bound " +
               exact(candidate.lower_bound) + " for order " +
               mr::order_to_string(candidate.order);
      }
    }
    trace.add("verify.bound_cache.hits", hits);
    trace.add("verify.bound_cache.misses", misses);

    // Stage 3: re-simulate every candidate the report marks Simulated.
    for (const auto& candidate : report.candidates) {
      if (candidate.fate != Fate::Simulated) continue;
      mr::Engine::WorkspaceLease lease = engine.workspace();
      double score = 0;
      for (std::size_t pi = 0; pi < configs.size(); ++pi) {
        const mr::simmpi::TimedResult timed =
            traced_run(machine, jobs_for(candidate.order, pi),
                       query.completion_slack, lease.get(), trace);
        if (!same_bits(timed.makespan, candidate.points[pi].makespan)) {
          return "replayed makespan " + exact(timed.makespan) +
                 " differs from the report's " +
                 exact(candidate.points[pi].makespan) + " at point " +
                 report.points[pi].to_string() + " for order " +
                 mr::order_to_string(candidate.order);
        }
        score += timed.makespan;
      }
      if (!same_bits(score, candidate.score)) {
        return "replayed score differs for order " +
               mr::order_to_string(candidate.order);
      }
    }
    return {};
  }

  std::vector<mr::topo::Machine> machines_;
  std::vector<TuneCell> queries_;
  TuneCell warm_;
  mr::Engine::Stats totals_;  ///< summed over the traced queries' engines.
};

}  // namespace

std::unique_ptr<Workload> make_tune(std::uint64_t seed, Trace* trace) {
  return std::make_unique<TuneWorkload>(seed, trace);
}

}  // namespace perfbench
