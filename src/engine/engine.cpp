#include "mixradix/engine/engine.hpp"

#include <algorithm>
#include <utility>

#include "mixradix/mr/equivalence.hpp"

namespace mr {

namespace {

/// Process-wide dedicated-thread budget state (cooperative cap).
struct ThreadBudget {
  std::mutex mutex;
  unsigned budget = 0;  ///< 0 = unlimited.
  unsigned in_use = 0;  ///< granted to live engines.
};

ThreadBudget& thread_budget() {
  static ThreadBudget budget;
  return budget;
}

/// Draw up to `requested` threads from the budget; never returns 0 so a
/// tenant engine arriving after the budget is exhausted still progresses
/// (one worker oversubscribes by at most 1 per engine, not by N).
unsigned acquire_dedicated_threads(unsigned requested) {
  ThreadBudget& b = thread_budget();
  std::lock_guard<std::mutex> lock(b.mutex);
  unsigned grant = requested;
  if (b.budget > 0) {
    const unsigned available = b.budget > b.in_use ? b.budget - b.in_use : 0;
    grant = std::min(requested, std::max(1u, available));
  }
  b.in_use += grant;
  return grant;
}

void release_dedicated_threads(unsigned grant) {
  if (grant == 0) return;
  ThreadBudget& b = thread_budget();
  std::lock_guard<std::mutex> lock(b.mutex);
  b.in_use -= std::min(b.in_use, grant);
}

}  // namespace

Engine::Engine(const EngineConfig& config)
    : config_(config),
      owned_cache_(
          std::make_unique<simmpi::PlanCache>(config.plan_cache_capacity)),
      cache_(owned_cache_.get()) {
  if (config.dedicated_threads > 0) {
    granted_ = acquire_dedicated_threads(config.dedicated_threads);
    owned_pool_ = std::make_unique<util::ThreadPool>(granted_);
    pool_ = owned_pool_.get();
  }
}

Engine::Engine(SharedTag)
    : cache_(&simmpi::PlanCache::shared()) {
  // pool_ stays null: thread_pool() resolves to ThreadPool::shared()
  // lazily, so serial callers routed through the shared engine still
  // never spawn worker threads.
}

Engine::~Engine() {
  // Join the dedicated pool before returning its threads to the budget so
  // a successor engine never sees the budget free while workers still run.
  owned_pool_.reset();
  release_dedicated_threads(granted_);
}

void Engine::set_dedicated_thread_budget(unsigned budget) {
  ThreadBudget& b = thread_budget();
  std::lock_guard<std::mutex> lock(b.mutex);
  b.budget = budget;
}

unsigned Engine::dedicated_thread_budget() {
  ThreadBudget& b = thread_budget();
  std::lock_guard<std::mutex> lock(b.mutex);
  return b.budget;
}

unsigned Engine::dedicated_threads_in_use() {
  ThreadBudget& b = thread_budget();
  std::lock_guard<std::mutex> lock(b.mutex);
  return b.in_use;
}

Engine::WorkspaceLease Engine::workspace() {
  std::unique_ptr<simmpi::SimWorkspace> ws;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.workspace_checkouts;
    if (!idle_.empty()) {
      ws = std::move(idle_.back());
      idle_.pop_back();
    } else {
      ++counters_.workspaces_created;
    }
  }
  if (!ws) ws = std::make_unique<simmpi::SimWorkspace>();
  return WorkspaceLease(this, std::move(ws));
}

void Engine::return_workspace(std::unique_ptr<simmpi::SimWorkspace> ws) {
  std::lock_guard<std::mutex> lock(mutex_);
  idle_.push_back(std::move(ws));
}

void Engine::WorkspaceLease::release() {
  if (engine_ != nullptr && workspace_ != nullptr) {
    engine_->return_workspace(std::move(workspace_));
  }
  engine_ = nullptr;
}

Engine::Stats Engine::stats() const {
  Stats out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out = counters_;
    out.workspaces_idle = static_cast<std::int64_t>(idle_.size());
  }
  out.plan_cache = cache_->stats();
  return out;
}

void Engine::reset_stats() {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_ = Stats{};
}

void Engine::record_run(const simmpi::TimedResult& result) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++counters_.sim_runs;
  counters_.events_processed += result.engine_stats.events_processed;
  counters_.flow_completions += result.total_flow_events;
  counters_.route_cache_hits += result.engine_stats.route_cache_hits;
  counters_.route_cache_misses += result.engine_stats.route_cache_misses;
}

void Engine::record_classify(const ClassifyStats& classify) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++counters_.classify_runs;
  counters_.orders_classified += classify.orders;
  counters_.classes_found += classify.classes;
  counters_.signatures_hashed += classify.signatures_hashed;
  counters_.collision_checks += classify.collision_checks;
  counters_.hash_collisions += classify.hash_collisions;
}

void Engine::record_tune(std::int64_t candidates_simulated,
                         std::int64_t sim_points) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++counters_.tune_runs;
  counters_.tune_candidates_simulated += candidates_simulated;
  counters_.tune_sim_points += sim_points;
}

Engine& Engine::shared() {
  static Engine engine{SharedTag{}};
  return engine;
}

}  // namespace mr
