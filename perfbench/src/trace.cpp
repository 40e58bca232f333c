#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "bench.hpp"
#include "mixradix/engine/engine.hpp"
#include "mixradix/simmpi/collectives.hpp"
#include "mixradix/simmpi/plan_cache.hpp"
#include "mixradix/verify/topo_check.hpp"

namespace perfbench {

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string exact(double value) {
  char text[32];
  std::snprintf(text, sizeof text, "%.17g", value);
  return text;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

Trace::Span::Span(Trace* trace, const char* name)
    : trace_(trace), name_(name) {
  if (trace_ == nullptr) return;
  ++trace_->depth_;
  start_ = Clock::now();
}

Trace::Span::~Span() {
  if (trace_ == nullptr) return;
  const double elapsed = seconds_since(start_);
  Layer& layer = trace_->layers_[name_];
  layer.busy_s += elapsed;
  ++layer.calls;
  if (--trace_->depth_ == 0) trace_->top_level_s_ += elapsed;
}

void Trace::max(const std::string& counter, double value) {
  double& slot = counters_[counter];
  slot = std::max(slot, value);
}

double Trace::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

const Trace::Layer& Trace::layer(const std::string& name) const {
  static const Layer kIdle;
  const auto it = layers_.find(name);
  return it == layers_.end() ? kIdle : it->second;
}

void check_machine(const mr::topo::Machine& machine, Trace* trace) {
  mr::verify::TopoReport report;
  {
    Trace::Span span(trace, "verify.topo_check");
    report = mr::verify::analyze(machine);
  }
  if (!report.clean()) {
    throw std::runtime_error("topo_check rejected machine '" + machine.name() +
                             "':\n" + report.to_string());
  }
}

namespace {

void add_run_counters(Trace& trace, const mr::simmpi::TimedResult& timed) {
  const auto& engine = timed.engine_stats;
  const auto& flows = timed.flow_stats;
  trace.add("simmpi.events", static_cast<double>(engine.events_processed));
  trace.max("simmpi.peak_event_queue",
            static_cast<double>(engine.peak_event_queue));
  trace.add("simnet.route_hits", static_cast<double>(engine.route_cache_hits));
  trace.add("simnet.route_misses",
            static_cast<double>(engine.route_cache_misses));
  trace.add("simnet.flow_completions",
            static_cast<double>(timed.total_flow_events));
  trace.add("simnet.full_recomputes",
            static_cast<double>(flows.full_recomputes));
  trace.add("simnet.deferred_allocations",
            static_cast<double>(flows.deferred_allocations));
  trace.add("simnet.deferred_rejections",
            static_cast<double>(flows.deferred_rejections));
  trace.max("simnet.peak_active_flows",
            static_cast<double>(flows.peak_active_flows));
}

}  // namespace

std::shared_ptr<const mr::simmpi::Plan> compile_point(
    mr::Engine& engine, const mr::topo::Machine& machine,
    const mr::harness::MicrobenchConfig& config, Trace& trace) {
  const auto p = static_cast<std::int32_t>(config.comm_size);
  const std::int64_t count =
      std::max<std::int64_t>(1, config.total_bytes / (8 * config.comm_size));
  const mr::simmpi::PlanKey key{
      mr::simmpi::selected_algorithm(config.collective, p, count,
                                     machine.costs().eager_threshold),
      p, count, /*root=*/0, config.repetitions};
  Trace::Span span(&trace, "simmpi.compile_plan");
  return engine.plan_cache().get(key);
}

std::vector<mr::simmpi::PlanJob> traced_jobs(
    mr::Engine& engine, const mr::topo::Machine& machine,
    const mr::harness::MicrobenchConfig& config, Trace& trace) {
  Trace::Span span(&trace, "harness.protocol_jobs");
  return mr::harness::protocol_jobs(engine, machine, config);
}

mr::simmpi::TimedResult traced_run(const mr::topo::Machine& machine,
                                   const std::vector<mr::simmpi::PlanJob>& jobs,
                                   double completion_slack,
                                   mr::simmpi::SimWorkspace* workspace,
                                   Trace& trace) {
  mr::simmpi::ExecOptions exec;
  exec.completion_slack = completion_slack;
  exec.workspace = workspace;
  mr::simmpi::TimedResult timed;
  {
    Trace::Span span(&trace, "simmpi.run_timed");
    timed = mr::simmpi::run_timed(machine, jobs, exec);
  }
  add_run_counters(trace, timed);
  return timed;
}

}  // namespace perfbench
