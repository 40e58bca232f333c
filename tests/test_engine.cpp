// mr::Engine — scoped execution contexts. Under test:
//  * SHARED COMPAT — Engine::shared() wraps the process singletons, and
//    every backward-compat shim produces byte-identical output to the
//    Engine-first overload it routes through;
//  * SCOPED STATE — plan-cache capacity and contents, workspace pools and
//    stats never leak between engines;
//  * WORKSPACE POOL — leases check out LIFO, reuse memory, and return on
//    destruction;
//  * MULTI-ENGINE — two engines with different machines and cache caps
//    running interleaved on overlapping pool threads produce output
//    byte-identical to serial single-engine runs, with disjoint stats.
//    Run under -DMIXRADIX_SAN=thread this doubles as the race check.
#include "mixradix/engine/engine.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "mixradix/harness/microbench.hpp"
#include "mixradix/mr/equivalence.hpp"
#include "mixradix/simmpi/plan.hpp"
#include "mixradix/topo/presets.hpp"
#include "mixradix/tune/report.hpp"
#include "mixradix/tune/search.hpp"

namespace mr {
namespace {

harness::SweepConfig small_sweep(int threads) {
  harness::SweepConfig config;
  config.orders = {parse_order("0-1-2-3"), parse_order("3-2-1-0"),
                   parse_order("1-3-2-0")};
  config.sizes = {1 << 16, 1 << 18};
  config.comm_size = 16;
  config.collective = simmpi::Collective::Alltoall;
  config.repetitions = 2;
  config.threads = threads;
  return config;
}

std::string sweep_csv(Engine& engine, const topo::Machine& machine,
                      harness::SweepConfig config) {
  config.all_comms = false;
  const auto single = run_sweep(engine, machine, config);
  config.all_comms = true;
  const auto simultaneous = run_sweep(engine, machine, config);
  std::ostringstream csv;
  harness::write_figure_csv(csv, "engine", single, simultaneous);
  return csv.str();
}

tune::TuneQuery small_query(std::int64_t bytes, int threads) {
  tune::TuneQuery query;
  query.comm_sizes = {16};
  query.total_bytes = {bytes};
  query.k = 3;
  query.threads = threads;
  return query;
}

std::string tune_json(Engine& engine, const topo::Machine& machine,
                      const tune::TuneQuery& query) {
  std::ostringstream json;
  tune::write_json(json, tune::tune(engine, machine, query));
  return json.str();
}

TEST(Engine, SharedWrapsTheProcessSingletons) {
  Engine& shared = Engine::shared();
  EXPECT_EQ(&shared, &Engine::shared());
  EXPECT_EQ(&shared.plan_cache(), &simmpi::PlanCache::shared());
  EXPECT_EQ(&shared.thread_pool(), &util::ThreadPool::shared());
}

TEST(Engine, PlanCacheCapacityIsScopedToTheEngine) {
  EngineConfig config;
  config.plan_cache_capacity = 1;
  Engine bounded(config);
  Engine unbounded;
  EXPECT_EQ(bounded.config().plan_cache_capacity, 1u);

  const simmpi::PlanKey a{"alltoall_bruck", 8, 64, 0, 1};
  const simmpi::PlanKey b{"allgather_ring", 8, 64, 0, 1};
  (void)bounded.plan_cache().get(a);
  (void)bounded.plan_cache().get(b);  // evicts a: capacity 1.
  (void)unbounded.plan_cache().get(a);
  (void)unbounded.plan_cache().get(b);

  const auto bounded_stats = bounded.plan_cache().stats();
  EXPECT_EQ(bounded_stats.entries, 1u);
  EXPECT_EQ(bounded_stats.evictions, 1u);
  const auto unbounded_stats = unbounded.plan_cache().stats();
  EXPECT_EQ(unbounded_stats.entries, 2u);
  EXPECT_EQ(unbounded_stats.evictions, 0u);

  // A third engine starts cold: nothing leaked through shared state.
  Engine fresh;
  EXPECT_EQ(fresh.plan_cache().stats().entries, 0u);
}

TEST(Engine, WorkspacePoolChecksOutLifoAndReusesMemory) {
  Engine engine;
  simmpi::SimWorkspace* first = nullptr;
  {
    Engine::WorkspaceLease lease = engine.workspace();
    ASSERT_NE(lease.get(), nullptr);
    first = lease.get();
    // A second simultaneous lease is a distinct workspace.
    Engine::WorkspaceLease other = engine.workspace();
    ASSERT_NE(other.get(), nullptr);
    EXPECT_NE(other.get(), first);
    const auto stats = engine.stats();
    EXPECT_EQ(stats.workspace_checkouts, 2);
    EXPECT_EQ(stats.workspaces_created, 2);
    EXPECT_EQ(stats.workspaces_idle, 0);
  }
  EXPECT_EQ(engine.stats().workspaces_idle, 2);

  // LIFO: the next checkout returns the most recently released workspace
  // (warm interned routes), not a new allocation.
  Engine::WorkspaceLease lease = engine.workspace();
  EXPECT_EQ(lease.get(), first);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.workspace_checkouts, 3);
  EXPECT_EQ(stats.workspaces_created, 2);
  EXPECT_EQ(stats.workspaces_idle, 1);
}

TEST(Engine, WorkspaceLeaseMovesAndReleasesOnce) {
  Engine engine;
  Engine::WorkspaceLease empty;
  EXPECT_EQ(empty.get(), nullptr);

  Engine::WorkspaceLease lease = engine.workspace();
  simmpi::SimWorkspace* const workspace = lease.get();
  Engine::WorkspaceLease moved = std::move(lease);
  EXPECT_EQ(moved.get(), workspace);
  EXPECT_EQ(lease.get(), nullptr);  // NOLINT: moved-from is empty.
  empty = std::move(moved);
  EXPECT_EQ(empty.get(), workspace);
  EXPECT_EQ(engine.stats().workspaces_idle, 0);  // still checked out.
  empty = Engine::WorkspaceLease();
  EXPECT_EQ(engine.stats().workspaces_idle, 1);  // returned exactly once.
  EXPECT_EQ(engine.stats().workspace_checkouts, 1);
}

TEST(Engine, SweepRecordsRunCountersAndResetClears) {
  Engine engine;
  const auto machine = topo::hydra(2);
  auto config = small_sweep(/*threads=*/1);
  config.all_comms = false;
  (void)run_sweep(engine, machine, config);

  const auto stats = engine.stats();
  const auto points =
      static_cast<std::int64_t>(config.orders.size() * config.sizes.size());
  EXPECT_EQ(stats.sim_runs, points);
  EXPECT_GT(stats.events_processed, 0);
  EXPECT_GT(stats.flow_completions, 0);
  EXPECT_GT(stats.plan_cache.misses, 0u);  // snapshot of the engine's cache.

  engine.reset_stats();
  const auto after = engine.stats();
  EXPECT_EQ(after.sim_runs, 0);
  EXPECT_EQ(after.events_processed, 0);
  // Plan-cache stats belong to the cache, not the counters.
  EXPECT_GT(after.plan_cache.misses, 0u);
}

TEST(Engine, ClassifyRecordsCountersMatchingTheOutParam) {
  Engine engine;
  const Hierarchy h{2, 2, 2, 4};
  ClassifyStats out;
  const auto classes = classify_orders(engine, h, /*comm_size=*/8,
                                       Equivalence::SameSetsAndInternal,
                                       /*threads=*/1, MetricsImpl::Fast, &out);
  EXPECT_FALSE(classes.empty());
  const auto stats = engine.stats();
  EXPECT_EQ(stats.classify_runs, 1);
  EXPECT_EQ(stats.orders_classified, out.orders);
  EXPECT_EQ(stats.orders_classified, 24);  // 4! orders.
  EXPECT_EQ(stats.classes_found, static_cast<std::int64_t>(classes.size()));
  EXPECT_EQ(stats.signatures_hashed, out.signatures_hashed);
  EXPECT_EQ(stats.collision_checks, out.collision_checks);
}

TEST(Engine, TuneRecordsFunnelTotals) {
  Engine engine;
  const auto machine = topo::hydra(2);
  const auto query = small_query(/*bytes=*/1 << 18, /*threads=*/1);
  const tune::TuneReport report = tune::tune(engine, machine, query);

  const auto stats = engine.stats();
  EXPECT_EQ(stats.tune_runs, 1);
  EXPECT_EQ(stats.tune_candidates_simulated, report.stats.simulated);
  EXPECT_EQ(stats.tune_sim_points, report.stats.sim_points);
  EXPECT_GT(stats.tune_sim_points, 0);
  // Stage 3 runs each simulation through the engine: the run counters and
  // the tune totals describe the same work.
  EXPECT_EQ(stats.sim_runs, report.stats.sim_points);
  // Stage 1 (hashed dedup) classified through this engine too.
  EXPECT_EQ(stats.classify_runs, 1);
}

TEST(Engine, ShimsMatchEngineFirstOverloads) {
  const auto machine = topo::hydra(2);
  const auto config = small_sweep(/*threads=*/1);

  // Sweep: shim == explicit shared engine == fresh private engine.
  harness::SweepConfig single = config;
  single.all_comms = false;
  std::ostringstream shim_csv;
  harness::write_figure_csv(shim_csv, "engine", run_sweep(machine, single), {});
  Engine fresh;
  std::ostringstream shared_csv, fresh_csv;
  harness::write_figure_csv(shared_csv, "engine",
                            run_sweep(Engine::shared(), machine, single), {});
  harness::write_figure_csv(fresh_csv, "engine",
                            run_sweep(fresh, machine, single), {});
  EXPECT_FALSE(shim_csv.str().empty());
  EXPECT_EQ(shim_csv.str(), shared_csv.str());
  EXPECT_EQ(shim_csv.str(), fresh_csv.str());

  // Classify: shim result == engine-first result.
  const Hierarchy h{2, 2, 2, 4};
  Engine classify_engine;
  const auto via_engine = classify_orders(classify_engine, h, 8,
                                          Equivalence::SameSetsAndInternal);
  const auto via_shim = classify_orders(h, 8, Equivalence::SameSetsAndInternal);
  ASSERT_EQ(via_engine.size(), via_shim.size());
  for (std::size_t c = 0; c < via_engine.size(); ++c) {
    EXPECT_EQ(via_engine[c].members, via_shim[c].members);
  }

  // Tune: the canonical JSON is byte-identical through the shim, the
  // shared engine, and a cold private engine.
  const auto query = small_query(/*bytes=*/1 << 18, /*threads=*/1);
  std::ostringstream shim_json;
  tune::write_json(shim_json, tune::tune(machine, query));
  Engine tune_engine;
  EXPECT_EQ(shim_json.str(), tune_json(tune_engine, machine, query));
}

TEST(Engine, DedicatedThreadBudgetIsCooperative) {
  // The budget is process-global state; this test owns it for its scope
  // and restores the unlimited default on every path out.
  ASSERT_EQ(Engine::dedicated_thread_budget(), 0u);
  ASSERT_EQ(Engine::dedicated_threads_in_use(), 0u);
  Engine::set_dedicated_thread_budget(4);
  EngineConfig eight;
  eight.dedicated_threads = 8;
  {
    Engine a(eight);
    EXPECT_EQ(a.dedicated_threads_granted(), 4u);  // clamped to the budget.
    EXPECT_EQ(Engine::dedicated_threads_in_use(), 4u);
    // Budget exhausted: a second tenant still gets ONE worker (progress
    // guarantee) — oversubscription is bounded by one thread per engine,
    // not by each engine's full request.
    Engine b(eight);
    EXPECT_EQ(b.dedicated_threads_granted(), 1u);
    EXPECT_EQ(Engine::dedicated_threads_in_use(), 5u);
    // Both tenants stay fully functional at their granted widths, with
    // byte-identical output.
    const auto machine = topo::hydra(2);
    EXPECT_EQ(sweep_csv(a, machine, small_sweep(/*threads=*/4)),
              sweep_csv(b, machine, small_sweep(/*threads=*/4)));
  }
  // Grants return when tenants die (pool joined first), so a successor
  // sees the whole budget again.
  EXPECT_EQ(Engine::dedicated_threads_in_use(), 0u);
  {
    Engine c(eight);
    EXPECT_EQ(c.dedicated_threads_granted(), 4u);
  }
  Engine::set_dedicated_thread_budget(0);
  {
    Engine unlimited(eight);  // 0 = no cap: the full request is granted.
    EXPECT_EQ(unlimited.dedicated_threads_granted(), 8u);
  }
  EXPECT_EQ(Engine::dedicated_threads_in_use(), 0u);
}

// Two engines with different machines and different plan-cache capacities,
// interleaving threaded sweeps and tunes on the SAME process-wide pool.
// Outputs must be byte-identical to serial single-engine references, and
// each engine's cache/stats must describe exactly its own workload.
TEST(MultiEngine, InterleavedWorkMatchesSerialRunsWithDisjointStats) {
  const auto machine_a = topo::hydra(2);
  const auto machine_b = topo::hydra(4);
  const auto query_b = small_query(/*bytes=*/1 << 16, /*threads=*/4);

  // Serial references, each from its own throwaway engine.
  std::string reference_a, reference_b_csv, reference_b_json;
  {
    Engine reference;
    reference_a = sweep_csv(reference, machine_a, small_sweep(/*threads=*/1));
  }
  {
    Engine reference;
    reference_b_csv = sweep_csv(reference, machine_b, small_sweep(/*threads=*/1));
    auto serial_query = query_b;
    serial_query.threads = 1;
    reference_b_json = tune_json(reference, machine_b, serial_query);
  }

  EngineConfig bounded;
  bounded.plan_cache_capacity = 2;
  Engine engine_a(bounded);
  Engine engine_b;
  std::string csv_a, csv_b, json_b;
  std::thread worker([&] {
    csv_b = sweep_csv(engine_b, machine_b, small_sweep(/*threads=*/4));
    json_b = tune_json(engine_b, machine_b, query_b);
  });
  csv_a = sweep_csv(engine_a, machine_a, small_sweep(/*threads=*/4));
  worker.join();

  // Byte-identity against the serial single-engine world.
  EXPECT_EQ(csv_a, reference_a);
  EXPECT_EQ(csv_b, reference_b_csv);
  EXPECT_EQ(json_b, reference_b_json);

  // Disjoint accounting: each engine saw exactly its own sweep points
  // (plus, for b, the tune's stage-3 simulations).
  const auto config = small_sweep(0);
  const auto sweep_points =
      static_cast<std::int64_t>(2 * config.orders.size() * config.sizes.size());
  const auto stats_a = engine_a.stats();
  const auto stats_b = engine_b.stats();
  EXPECT_EQ(stats_a.sim_runs, sweep_points);
  EXPECT_EQ(stats_a.tune_runs, 0);
  EXPECT_EQ(stats_b.sim_runs, sweep_points + stats_b.tune_sim_points);
  EXPECT_EQ(stats_b.tune_runs, 1);
  EXPECT_EQ(stats_b.classify_runs, 1);  // the tune's dedup stage.
  // engine_a's LRU capacity applied only to engine_a.
  EXPECT_LE(engine_a.plan_cache().stats().entries, 2u);
  EXPECT_EQ(engine_b.plan_cache().stats().evictions, 0u);
}

TEST(MultiEngine, BudgetedDedicatedEnginesRunConcurrently) {
  // Two dedicated-pool tenants under a budget smaller than their combined
  // request, driving sweeps at the same time: the cap must change worker
  // counts only, never output bytes. TSan target for the budget plumbing.
  ASSERT_EQ(Engine::dedicated_threads_in_use(), 0u);
  Engine::set_dedicated_thread_budget(3);
  EngineConfig dedicated;
  dedicated.dedicated_threads = 4;
  {
    Engine a(dedicated);
    Engine b(dedicated);
    EXPECT_EQ(a.dedicated_threads_granted(), 3u);
    EXPECT_EQ(b.dedicated_threads_granted(), 1u);
    const auto machine = topo::hydra(2);
    std::string csv_a, csv_b;
    std::thread worker(
        [&] { csv_b = sweep_csv(b, machine, small_sweep(/*threads=*/4)); });
    csv_a = sweep_csv(a, machine, small_sweep(/*threads=*/4));
    worker.join();
    EXPECT_FALSE(csv_a.empty());
    EXPECT_EQ(csv_a, csv_b);
  }
  Engine::set_dedicated_thread_budget(0);
  EXPECT_EQ(Engine::dedicated_threads_in_use(), 0u);
}

TEST(MultiEngine, ConcurrentTunesMatchSerialReferences) {
  const auto machine = topo::hydra(2);
  const auto query_a = small_query(/*bytes=*/1 << 18, /*threads=*/2);
  const auto query_b = small_query(/*bytes=*/1 << 20, /*threads=*/2);

  std::string reference_a, reference_b;
  {
    Engine reference;
    reference_a = tune_json(reference, machine, query_a);
  }
  {
    Engine reference;
    reference_b = tune_json(reference, machine, query_b);
  }

  Engine engine_a, engine_b;
  std::string json_a, json_b;
  std::thread worker([&] { json_b = tune_json(engine_b, machine, query_b); });
  json_a = tune_json(engine_a, machine, query_a);
  worker.join();

  EXPECT_EQ(json_a, reference_a);
  EXPECT_EQ(json_b, reference_b);
  EXPECT_EQ(engine_a.stats().tune_runs, 1);
  EXPECT_EQ(engine_b.stats().tune_runs, 1);
}

}  // namespace
}  // namespace mr
