// mr::Engine: a scoped execution context replacing the process-global
// singletons.
//
// Every evaluation layer used to reach for process-wide state — the
// compiled-plan cache (PlanCache::shared()), the worker pool
// (ThreadPool::shared()) and function-scoped thread_local simulation
// workspaces — which made concurrent independent queries share caches,
// leaked LRU capacity settings across queries, and pinned workspace
// memory to pool threads for the life of the process. An Engine owns all
// three per query (or per service tenant):
//
//   Engine
//    ├── simmpi::PlanCache        compiled plans, per-engine LRU capacity
//    ├── util::ThreadPool handle  the process pool by default, or a
//    │                            dedicated pool (EngineConfig)
//    ├── SimWorkspace pool        checkout/return leases; reclaimed when
//    │                            the Engine dies, never shared across
//    │                            engines (no cross-query fingerprint
//    │                            state)
//    └── Stats                    plan-cache, route-table, flow-sim,
//                                 classify and tune counters in one place
//
// Entry points that used a singleton (harness::run_microbench/run_sweep,
// tune::tune, classify_orders/characterize_orders, simmpi::World) now take
// an Engine&; their original signatures remain as backward-compat shims
// routing through Engine::shared(), whose plan cache and pool ARE the
// process-wide singletons — existing callers observe byte-identical
// behaviour and output. Two engines never share plan-cache or workspace
// state even when their work interleaves on the same pool threads; only
// the (stateless-per-task) worker threads are shared.
//
// Thread safety: plan_cache(), thread_pool(), workspace() and the record_*
// methods are safe to call concurrently; an Engine must outlive every
// lease checked out of it and every call it is passed to.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "mixradix/simmpi/plan_cache.hpp"
#include "mixradix/simmpi/timed_executor.hpp"
#include "mixradix/util/thread_pool.hpp"

namespace mr {

struct ClassifyStats;  // mixradix/mr/equivalence.hpp

/// Construction-time knobs of a private Engine. Engine::shared() ignores
/// them (it wraps the process-wide singletons).
struct EngineConfig {
  /// Plan-cache LRU capacity: 0 = unbounded, N = keep at most N compiled
  /// plans (see PlanCache). Scoped to this engine — never leaks into other
  /// engines or the shared cache.
  std::size_t plan_cache_capacity = 0;
  /// 0 = fan work out over the process-wide pool (workers are stateless
  /// per task, so engines stay isolated even on shared threads); N =
  /// spawn a dedicated N-thread pool owned — and joined — by this engine.
  /// The actual thread count may be reduced by the cooperative budget
  /// (Engine::set_dedicated_thread_budget); dedicated_threads_granted()
  /// reports what this engine received.
  unsigned dedicated_threads = 0;
};

class Engine {
 public:
  /// A private engine: fresh plan cache, empty workspace pool, zeroed
  /// stats. Byte-identical results to Engine::shared(), isolated state.
  Engine() : Engine(EngineConfig{}) {}
  explicit Engine(const EngineConfig& config);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// This engine's compiled-plan cache. For Engine::shared() this is
  /// PlanCache::shared() itself (the backward-compat story).
  simmpi::PlanCache& plan_cache() noexcept { return *cache_; }

  /// The pool this engine fans work over: its dedicated pool when
  /// EngineConfig::dedicated_threads > 0, else the process-wide pool
  /// (created lazily — serial callers never spawn workers).
  util::ThreadPool& thread_pool() {
    return pool_ != nullptr ? *pool_ : util::ThreadPool::shared();
  }

  const EngineConfig& config() const noexcept { return config_; }

  /// RAII checkout of one SimWorkspace from the engine's pool: the
  /// workspace returns to the pool when the lease dies, and the pool's
  /// memory dies with the engine. Replaces the old function-scoped
  /// `static thread_local SimWorkspace` (which pinned fingerprint state
  /// and memory to pool threads for the life of the process).
  class WorkspaceLease {
   public:
    /// An empty lease (get() == nullptr); assign from Engine::workspace().
    WorkspaceLease() = default;
    WorkspaceLease(WorkspaceLease&& other) noexcept
        : engine_(other.engine_), workspace_(std::move(other.workspace_)) {
      other.engine_ = nullptr;
    }
    WorkspaceLease& operator=(WorkspaceLease&& other) noexcept {
      if (this != &other) {
        release();
        engine_ = other.engine_;
        workspace_ = std::move(other.workspace_);
        other.engine_ = nullptr;
      }
      return *this;
    }
    WorkspaceLease(const WorkspaceLease&) = delete;
    WorkspaceLease& operator=(const WorkspaceLease&) = delete;
    ~WorkspaceLease() { release(); }

    simmpi::SimWorkspace& operator*() noexcept { return *workspace_; }
    simmpi::SimWorkspace* operator->() noexcept { return workspace_.get(); }
    simmpi::SimWorkspace* get() noexcept { return workspace_.get(); }

   private:
    friend class Engine;
    WorkspaceLease(Engine* engine,
                   std::unique_ptr<simmpi::SimWorkspace> workspace)
        : engine_(engine), workspace_(std::move(workspace)) {}
    void release();

    Engine* engine_ = nullptr;
    std::unique_ptr<simmpi::SimWorkspace> workspace_;
  };

  /// Check a workspace out of the pool (most recently returned first, so
  /// interned routes stay warm), creating one on first use. One lease per
  /// thread — a SimWorkspace is not thread-safe.
  WorkspaceLease workspace();

  /// Aggregated per-engine counters: a plan-cache snapshot plus the
  /// executor/flow-sim/route-table, classification and tune totals
  /// recorded against this engine. Queries served by different engines
  /// have fully disjoint stats.
  struct Stats {
    simmpi::PlanCache::Stats plan_cache;

    // Timed-executor runs recorded via record_run (sweeps, tune stage 3).
    std::int64_t sim_runs = 0;
    std::int64_t events_processed = 0;   ///< engine events popped.
    std::int64_t flow_completions = 0;   ///< network flow completions.
    std::int64_t route_cache_hits = 0;   ///< route lookups served interned.
    std::int64_t route_cache_misses = 0; ///< route lookups that derived.

    // classify_orders runs recorded via record_classify.
    std::int64_t classify_runs = 0;
    std::int64_t orders_classified = 0;
    std::int64_t classes_found = 0;
    std::int64_t signatures_hashed = 0;
    std::int64_t collision_checks = 0;
    std::int64_t hash_collisions = 0;

    // tune::tune runs recorded via record_tune.
    std::int64_t tune_runs = 0;
    std::int64_t tune_candidates_simulated = 0;
    std::int64_t tune_sim_points = 0;

    // Workspace-pool accounting.
    std::int64_t workspace_checkouts = 0;
    std::int64_t workspaces_created = 0;
    std::int64_t workspaces_idle = 0;  ///< pooled and currently unleased.
  };
  Stats stats() const;

  /// Zero the recorded counters (plan-cache stats are the cache's own and
  /// are NOT reset; use plan_cache().clear() for that).
  void reset_stats();

  /// Roll one timed-executor result's counters into the engine totals.
  void record_run(const simmpi::TimedResult& result);
  /// Roll one classification run's counters into the engine totals.
  void record_classify(const ClassifyStats& classify);
  /// Roll one tune run's funnel totals into the engine totals.
  void record_tune(std::int64_t candidates_simulated,
                   std::int64_t sim_points);

  /// The process-wide engine every backward-compat shim routes through:
  /// its plan cache is PlanCache::shared(), its pool is
  /// ThreadPool::shared(), and its workspace pool lives for the process.
  static Engine& shared();

  // ---- Cooperative dedicated-pool budget ----------------------------------
  //
  // N tenant engines each asking for `dedicated_threads` workers would
  // oversubscribe the host N-fold. The budget is a process-wide cap on the
  // SUM of dedicated threads alive at once: an engine constructed while the
  // budget is tight is granted min(requested, max(1, budget - in_use)) —
  // never zero, so it always makes progress — and returns its grant when it
  // is destroyed. 0 (the default) disables the cap entirely.

  /// Set the process-wide dedicated-thread budget; 0 = unlimited. Applies
  /// to engines constructed AFTER the call (live grants are not reclaimed).
  static void set_dedicated_thread_budget(unsigned budget);
  static unsigned dedicated_thread_budget();
  /// Dedicated threads currently granted across all live engines.
  static unsigned dedicated_threads_in_use();
  /// Threads this engine's dedicated pool actually got (0 = shared pool).
  unsigned dedicated_threads_granted() const noexcept { return granted_; }

 private:
  struct SharedTag {};
  explicit Engine(SharedTag);
  void return_workspace(std::unique_ptr<simmpi::SimWorkspace> workspace);

  EngineConfig config_;
  std::unique_ptr<simmpi::PlanCache> owned_cache_;
  simmpi::PlanCache* cache_ = nullptr;
  std::unique_ptr<util::ThreadPool> owned_pool_;
  util::ThreadPool* pool_ = nullptr;  ///< null = use the process pool.
  unsigned granted_ = 0;  ///< dedicated threads drawn from the budget.

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<simmpi::SimWorkspace>> idle_;  ///< LIFO.
  Stats counters_;  ///< guarded by mutex_; plan_cache field unused here.
};

}  // namespace mr
