// Shared pieces of the in-process benchmark program: the span recorder used
// by traced runs, output digests, and the interface every workload
// implements.
//
// A workload owns its machines, its generated query mix and the engine(s)
// its queries run on. main.cpp builds it during set-up, runs
// one untimed warm-up query, then issues the generated queries one at a
// time from a single closed-loop client. Every query's output is checked
// inside the workload: invariants on every seed, and a digest of the
// canonical output that main.cpp compares with the recorded table.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "mixradix/harness/microbench.hpp"
#include "mixradix/simmpi/timed_executor.hpp"
#include "mixradix/topo/machine.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// 64-bit FNV-1a of a canonical output document.
std::uint64_t fnv1a(std::string_view text);

/// A double with all 17 significant digits (for mismatch messages).
std::string exact(double value);

/// Bit-level equality of two doubles (the replay cross-check: "equal" means
/// the same IEEE-754 bits, not within a tolerance).
bool same_bits(double a, double b);

/// Span and counter recorder of a traced run. Spans are opened by the
/// benchmark around its own calls into a layer's public functions and are
/// aggregated in memory per name (busy time and call count); the time
/// covered by outermost spans is kept separately for trace.coverage.
/// Single-threaded: traced queries run at pool width 1.
class Trace {
 public:
  struct Layer {
    double busy_s = 0;
    std::int64_t calls = 0;
  };

  /// RAII span; a null trace makes it a no-op that reads no clock, so
  /// untraced queries share the traced code path at zero cost.
  class Span {
   public:
    Span(Trace* trace, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Trace* trace_;
    const char* name_;
    Clock::time_point start_;
  };

  void add(const std::string& counter, double value) {
    counters_[counter] += value;
  }
  void max(const std::string& counter, double value);
  double counter(const std::string& name) const;
  const Layer& layer(const std::string& name) const;
  double top_level_s() const { return top_level_s_; }

 private:
  std::map<std::string, Layer> layers_;
  std::map<std::string, double> counters_;
  int depth_ = 0;
  double top_level_s_ = 0;
};

/// Add `value` to counter `name` when tracing.
inline void count(Trace* trace, const std::string& name, double value) {
  if (trace != nullptr) trace->add(name, value);
}

/// What one query produced: its identity, the digest of its canonical
/// output, and the first failed check (empty = every check passed).
struct QueryOutcome {
  std::string key;
  std::uint64_t digest = 0;
  std::string error;
};

/// Lint a machine with verify::topo_check (span verify.topo_check); throws
/// with the report when it is not clean.
void check_machine(const mr::topo::Machine& machine, Trace* trace);

// ---- Replay steps shared by the tune and sweep replays ----------------------

/// Resolve one protocol point's compiled plan through `engine`'s plan cache
/// under a simmpi.compile_plan span, so the replay's protocol_jobs calls hit
/// the cache. The key mirrors harness::protocol_jobs (count =
/// max(1, bytes / (8 * comm_size)), root 0); replays check that the jobs
/// they get carry this very plan.
std::shared_ptr<const mr::simmpi::Plan> compile_point(
    mr::Engine& engine, const mr::topo::Machine& machine,
    const mr::harness::MicrobenchConfig& config, Trace& trace);

/// harness::protocol_jobs under a harness.protocol_jobs span.
std::vector<mr::simmpi::PlanJob> traced_jobs(
    mr::Engine& engine, const mr::topo::Machine& machine,
    const mr::harness::MicrobenchConfig& config, Trace& trace);

/// simmpi::run_timed under a simmpi.run_timed span; the run's executor and
/// flow-simulator counters are added to the trace.
mr::simmpi::TimedResult traced_run(const mr::topo::Machine& machine,
                                   const std::vector<mr::simmpi::PlanJob>& jobs,
                                   double completion_slack,
                                   mr::simmpi::SimWorkspace* workspace,
                                   Trace& trace);

class Workload {
 public:
  virtual ~Workload() = default;
  /// Number of generated queries; a timed run walks them in order.
  virtual std::size_t size() const = 0;
  /// Queries per deck: every deck holds the same balanced mix of query
  /// cells, and a timed run stops only at a deck boundary.
  virtual std::size_t deck() const = 0;
  /// Run generated query `index` with `width` pool workers. A non-null
  /// `trace` records spans and counters and replays the query layer by
  /// layer, cross-checking the replay against the query's own output.
  virtual QueryOutcome run(std::size_t index, unsigned width, Trace* trace) = 0;
  /// The fixed, seed-independent warm-up query of set-up.
  virtual QueryOutcome warm_up(unsigned width) = 0;
  /// Engine::stats() counters of the traced queries (plan cache,
  /// workspaces), added to the trace once at the end of a traced run.
  virtual void engine_counters(Trace& trace) const = 0;
};

/// Build a workload: machines (linted), the seeded query mix and the
/// engine. `trace` (may be null) records the set-up's topo_check calls.
std::unique_ptr<Workload> make_tune(std::uint64_t seed, Trace* trace);
std::unique_ptr<Workload> make_sweep(std::uint64_t seed, unsigned width,
                                     Trace* trace);
std::unique_ptr<Workload> make_enumerate(std::uint64_t seed);

}  // namespace perfbench
