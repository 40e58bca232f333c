// Static binding analysis: proves properties of a compiled Plan BOUND to a
// Machine through a rank->core mapping, without running the simulator.
//
// mr::verify::analyze(Schedule) proves machine-independent properties;
// topo_check.hpp lints the Machine itself. This header closes the loop on
// the third ingredient of every experiment — the binding — with three
// products per analysis:
//
//  * diagnostics — every send must resolve to a route the flow simulator
//    can carry (channel count within ChanSet's inline capacity, channel
//    ids inside the capacity table), no self-send may cross a channel,
//    bindings must be in range, and suspicious-but-legal shapes (two ranks
//    of one job sharing a core) are flagged as warnings;
//  * a load report — per-round and per-channel traffic (bytes, flow
//    count, serialization seconds, oversubscription ratios) with the
//    top-k congested channels named by level/component, the quantities
//    process-mapping papers rank mappings by;
//  * a critical-path lower bound — the longest chain through the
//    happens-before graph where each message contributes
//    max(path latency, bytes / bottleneck-channel capacity) and each round
//    its CPU serialisation, combined with a per-channel serialization
//    bound (all bytes crossing a channel must drain through its
//    capacity). Under exact max-min fairness (completion slack 0) the
//    bound NEVER exceeds the TimedExecutor's simulated makespan — a
//    standing oracle every current and future engine fast path is tested
//    against; Bound::for_slack deflates it for slack-merged runs.
//
// Soundness sketch (details in DESIGN.md §12): a flow's max-min rate never
// exceeds the capacity of any channel it crosses, so a message's transfer
// lasts at least bytes / min-capacity after a start that the
// happens-before edges delay at least as much as the DP's `ready` chain;
// and a channel's aggregate allocated rate never exceeds its capacity, so
// the last completion on it trails the first entry by at least
// total-bytes / capacity. Both arguments survive every engine fast path
// (interned routes, lazy deadline heap, workspace reuse) because those are
// bit-identical by construction.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mixradix/simmpi/plan.hpp"
#include "mixradix/simnet/flow_sim.hpp"
#include "mixradix/topo/machine.hpp"
#include "mixradix/verify/verify.hpp"

namespace mr::verify::binding {

/// Aggregated traffic of one simulator channel over the whole analysis
/// (all jobs, all repetitions).
struct ChannelLoad {
  simnet::ChannelId channel = -1;
  std::string name;   ///< "socket[3].egress", "numa[0].mem", ...
  std::int64_t bytes = 0;
  std::int64_t flows = 0;
  /// bytes / capacity: the time this channel alone needs to drain its
  /// share of the traffic.
  double serialization_seconds = 0;
  /// Max over rounds of (round bytes on this channel / capacity) divided
  /// by the round's slowest uncontended message — 1.0 means the channel
  /// is no more loaded than the round's natural straggler, k means
  /// contention stretches the round k-fold even under perfect sharing.
  double oversubscription = 0;
};

/// Traffic of one schedule round (round r = the r-th round of each rank's
/// program, for ONE repetition; repetitions repeat the pattern).
struct RoundLoad {
  std::int64_t round = 0;
  std::int64_t bytes = 0;          ///< network-crossing payload posted.
  std::int64_t flows = 0;          ///< messages that cross >= 1 channel.
  double max_oversubscription = 0; ///< over this round's channels.
  simnet::ChannelId hottest = -1;  ///< channel attaining the max, -1 = none.
  std::string hottest_name;
};

struct LoadReport {
  std::vector<RoundLoad> rounds;          ///< indexed by round number.
  std::vector<ChannelLoad> top_channels;  ///< top-k by serialization time.
  std::int64_t total_bytes = 0;  ///< network-crossing, all jobs and reps.
  std::int64_t self_bytes = 0;   ///< same-core payload (latency-only).
  std::int64_t total_flows = 0;  ///< network-crossing messages, all reps.
};

/// The static lower bound and its ingredients.
struct Bound {
  /// max(critical_path, channel_serialization); sound for completion
  /// slack 0 in both engine modes.
  double lower_bound = 0;
  /// Longest happens-before chain: round CPU serialisation plus per-message
  /// max-min transfer floors.
  double critical_path = 0;
  /// max over channels of (earliest entry + total bytes / capacity).
  double channel_serialization = 0;

  /// Deflated bound that stays sound when the run merges completions with
  /// FlowSim's completion slack: slack lets a flow finish early by at most
  /// a slack fraction of each event horizon, and the deferred-allocation
  /// steal path can transiently oversubscribe a channel by ~1% between
  /// exact recomputations, so a 2*slack haircut covers both with margin.
  double for_slack(double completion_slack) const {
    return completion_slack <= 0
               ? lower_bound
               : lower_bound / (1.0 + 2.0 * completion_slack);
  }
};

struct Result {
  std::string machine;  ///< analyzed machine's name.
  Report report;        ///< binding diagnostics (verify::Diagnostic).
  LoadReport load;
  Bound bound;
  bool clean() const { return report.clean(); }
  /// Human-readable load + bound digest (CLI / CI artifact).
  std::string to_string() const;
};

struct Options {
  int top_k = 8;            ///< congested channels kept in the load report.
  bool load_report = true;  ///< skip to make preverify cheapest.
  bool lower_bound = true;
};

/// One plan bound to machine cores — a non-owning mirror of
/// simmpi::PlanJob that also fits ad-hoc schedules (the JobSpec path).
struct JobBinding {
  const simmpi::Schedule* schedule = nullptr;
  const simmpi::PlanExec* exec = nullptr;
  int repetitions = 1;
  const std::vector<std::int64_t>* core_of_rank = nullptr;
  double start_time = 0;
};

/// Analyze one bound plan. Never throws on a bad binding: every defect
/// becomes a located diagnostic (rank/round/msg fields of
/// verify::Diagnostic). The load report and lower bound are computed only
/// when the binding has no Error-level findings.
Result analyze(const simmpi::Plan& plan, const topo::Machine& machine,
               const std::vector<std::int64_t>& core_of_rank,
               const Options& options = {});

/// Analyze several concurrently-launched bound plans — the exact shape
/// simmpi::run_timed executes. Diagnostics from job k are prefixed
/// "job k:" when more than one job is analyzed.
Result analyze_jobs(const topo::Machine& machine,
                    const std::vector<JobBinding>& jobs,
                    const Options& options = {});

/// Human-readable channel name: "socket[3].egress" etc.
std::string channel_name(const topo::Machine& machine, simnet::ChannelId id);

// ---- The bound kernel's reusable workspace ---------------------------------
//
// A message's route is fixed by its divergence level fd, the outermost
// level where its endpoints' components differ, so the route facts the
// check and the bound read (latency, bottleneck capacity, channel count,
// too-deep flag) form one per-machine table indexed by fd. The
// critical-path DP's control flow depends only on each job's plan: its
// PlanExec carries one repetition's topological visit order, which the
// kernel replays once per repetition over flat buffers, once per job
// SHAPE (plan, repetitions, start time, per-message fd sequence) — the
// concurrent jobs of one point are usually translates of one another.
// Channel serialization keeps each rank's earliest entry and total bytes
// per fd and folds them into the egress, ingress and memory channels of
// its components. Every step is a max, a min, a `+` of fixed operands or
// an exact int64 sum over the same operands as a per-message, per-channel
// walk, so the result is the same bit for bit (DESIGN.md §12, §15).

/// Scratch of the bound kernel for one machine: the per-level route table,
/// the machine's channel capacities, the job shapes and the DP buffers.
/// Reuse across calls is what makes a bound cheap. Not thread-safe: one per
/// thread (tune gives each pool slot its own for the whole query). The
/// machine must outlive the workspace.
class Workspace {
 public:
  explicit Workspace(const topo::Machine& machine);
  ~Workspace();
  Workspace(Workspace&&) noexcept;
  Workspace& operator=(Workspace&&) noexcept;

  const topo::Machine& machine() const;

  struct Impl;

 private:
  friend Result analyze_jobs(Workspace& workspace,
                             const std::vector<JobBinding>& jobs);
  std::unique_ptr<Impl> impl_;
};

/// Equivalent to analyze_jobs(workspace.machine(), jobs, {load_report =
/// false}) — a bit-identical Result — computed in a reusable workspace. A
/// clean binding costs the core and fd checks plus one kernel pass; any
/// finding (error or warning) re-runs the full analysis for its located
/// diagnostics.
Result analyze_jobs(Workspace& workspace, const std::vector<JobBinding>& jobs);

// ---- Structural snapshots (replay oracle) -----------------------------------

/// A structural snapshot of one analyze_jobs call: the jobs' payload-
/// invariant arrays plus the diagnostics they produced. compatible() proves
/// a later job list has the same structure, and evaluate() recomputes the
/// bound for its live payload with the same kernel analyze_jobs uses, so
/// evaluate() is BIT-IDENTICAL to a fresh
/// analyze_jobs(machine, jobs, {load_report=false}) on any compatible job
/// list. Immutable once built; evaluate() may run concurrently.
class BoundStructure {
 public:
  BoundStructure();
  ~BoundStructure();
  BoundStructure(BoundStructure&&) noexcept;
  BoundStructure& operator=(BoundStructure&&) noexcept;
  BoundStructure(const BoundStructure&) = delete;
  BoundStructure& operator=(const BoundStructure&) = delete;

  /// Run the full analysis (diagnostics + lower bound, no load report) and
  /// snapshot the structure alongside. `fresh` receives exactly what
  /// analyze_jobs(machine, jobs, {load_report=false}) returns.
  static BoundStructure build(const topo::Machine& machine,
                              const std::vector<JobBinding>& jobs,
                              Result& fresh);

  /// True when the recorded binding had no Error diagnostics; only clean
  /// structures can evaluate (a defective binding computes no bound anyway).
  bool clean() const;

  /// Exact structural-equality check: machine fingerprint, job count, and
  /// every payload-invariant array (ranks, repetitions, start times, message
  /// endpoints, execution CSR, core bindings) must match bit for bit. This
  /// is a full comparison, not a hash.
  bool compatible(const topo::Machine& machine,
                  const std::vector<JobBinding>& jobs) const;

  /// The bound of `jobs` at their live payload, with the recorded
  /// diagnostics. Requires clean() && compatible(machine, jobs).
  Result evaluate(const topo::Machine& machine,
                  const std::vector<JobBinding>& jobs) const;

  struct Impl;

 private:
  std::unique_ptr<Impl> impl_;
};

/// 64-bit structural key of (machine fingerprint, jobs), hashed a word at a
/// time; each distinct (schedule, exec) pair is hashed once per call. It
/// only routes lookups — collisions are survivable because callers re-check
/// BoundStructure::compatible before reusing an entry.
std::uint64_t structure_key(const topo::Machine& machine,
                            const std::vector<JobBinding>& jobs);

}  // namespace mr::verify::binding
