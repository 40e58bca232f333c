// perfbench — the repository benchmark program. One process runs one
// workload in-process against libmixradix, from a single closed-loop
// client issuing one query at a time.
//
//   perfbench --workload tune|sweep|enumerate --seed N --seconds S
//             --trace 0|1 [--width W] [--digests FILE]
//   perfbench --workload W --seed N --record-digests FILE --count N
//
// --trace 0 times the generated queries at pool width W (default 2) and
// prints the end-to-end metrics; --trace 1 runs a fixed number of the same
// queries three ways (width W untraced, width 1 untraced, width 1 traced
// with a layer-by-layer replay) and prints the per-layer metrics. The last
// line of standard output is the JSON result object.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.hpp"
#include "mixradix/util/thread_pool.hpp"

namespace perfbench {
namespace {

const Clock::time_point kProgramStart = Clock::now();

/// Set-ups per timed run; setup_s reports their median.
constexpr int kSetups = 3;
/// Minimum timed queries: p75 keeps at least ten samples beyond it.
constexpr std::size_t kMinQueries = 40;
/// The timed loop stops here whatever its query count (process limit).
constexpr double kHardCapSeconds = 140;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  unsigned width = 2;
  std::string digests;
  std::string record;
  std::size_t record_count = 0;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "perfbench: " << message << "\n";
  std::exit(2);
}

std::uint64_t parse_number(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  unsigned long long value = 0;
  try {
    value = std::stoull(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != text.size()) {
    usage_error(flag + ": expected a non-negative integer, got '" + text + "'");
  }
  return value;
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage_error(flag + ": missing value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = parse_number(flag, value);
    } else if (flag == "--seconds") {
      o.seconds = static_cast<double>(parse_number(flag, value));
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage_error("--trace: expected 0 or 1");
      o.trace = value == "1";
    } else if (flag == "--width") {
      o.width = static_cast<unsigned>(parse_number(flag, value));
    } else if (flag == "--digests") {
      o.digests = value;
    } else if (flag == "--record-digests") {
      o.record = value;
    } else if (flag == "--count") {
      o.record_count = parse_number(flag, value);
    } else {
      usage_error("unknown flag '" + flag + "'");
    }
  }
  if (o.workload != "tune" && o.workload != "sweep" &&
      o.workload != "enumerate") {
    usage_error("--workload: expected tune, sweep or enumerate, got '" +
                o.workload + "'");
  }
  return o;
}

unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

/// Refuse settings whose numbers would not mean what they claim: a pool
/// wider than the host, or a build that is unoptimized or instrumented.
void check_environment(const Options& o) {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release" && build_type != "RelWithDebInfo") {
    usage_error("build type '" + build_type +
                "' is not optimized; configure with "
                "-DCMAKE_BUILD_TYPE=Release");
  }
#if !defined(__OPTIMIZE__)
  usage_error("compiled without optimization (__OPTIMIZE__ unset)");
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  usage_error("sanitizer build: timings would measure the instrumentation");
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  usage_error("sanitizer build: timings would measure the instrumentation");
#endif
#endif
  if (o.width < 1) usage_error("--width: must be at least 1");
  if (o.width > nproc()) {
    usage_error("--width " + std::to_string(o.width) + " exceeds nproc = " +
                std::to_string(nproc()));
  }
}

std::unique_ptr<Workload> make_workload(const Options& o, Trace* trace) {
  if (o.workload == "tune") return make_tune(o.seed, trace);
  if (o.workload == "sweep") return make_sweep(o.seed, o.width, trace);
  return make_enumerate(o.seed);
}

using DigestTable = std::unordered_map<std::string, std::uint64_t>;

DigestTable load_digests(const std::string& path) {
  DigestTable table;
  if (path.empty()) return table;
  std::ifstream in(path);
  if (!in) usage_error("--digests: cannot read '" + path + "'");
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto tab = line.find('\t');
    if (tab == std::string::npos) {
      usage_error(path + ":" + std::to_string(lineno) + ": expected key<TAB>digest");
    }
    table[line.substr(0, tab)] = std::stoull(line.substr(tab + 1), nullptr, 16);
  }
  return table;
}

/// The outcome's first failure: its own check, or a digest that differs
/// from the recorded one.
std::string verdict(const QueryOutcome& out, const DigestTable& digests) {
  if (!out.error.empty()) return out.error;
  const auto it = digests.find(out.key);
  if (it != digests.end() && it->second != out.digest) {
    std::ostringstream msg;
    msg << "output digest " << std::hex << out.digest << " differs from the "
        << "recorded " << it->second;
    return msg.str();
  }
  return {};
}

/// Regularized incomplete beta function I_x(a, b), by Lentz's continued
/// fraction (converges fast for x < (a + 1) / (a + b + 2); the symmetry
/// I_x(a, b) = 1 - I_{1-x}(b, a) covers the rest).
double incomplete_beta(double a, double b, double x) {
  if (x <= 0) return 0;
  if (x >= 1) return 1;
  if (x > (a + 1) / (a + b + 2)) return 1 - incomplete_beta(b, a, 1 - x);
  constexpr double kTiny = 1e-300;
  const auto clamp = [](double v) { return std::abs(v) < kTiny ? kTiny : v; };
  double c = 1;
  double d = 1 / clamp(1 - (a + b) * x / (a + 1));
  double f = d;
  for (int m = 1; m <= 500; ++m) {
    const double m2 = 2.0 * m;
    for (const double num :
         {m * (b - m) * x / ((a + m2 - 1) * (a + m2)),
          -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1))}) {
      d = 1 / clamp(1 + num * d);
      c = clamp(1 + num / c);
      f *= d * c;
    }
    if (std::abs(d * c - 1) < 1e-15) break;
  }
  const double log_front = std::lgamma(a + b) - std::lgamma(a) -
                           std::lgamma(b) + a * std::log(x) +
                           b * std::log1p(-x);
  return std::exp(log_front) * f / a;
}

/// Harrell-Davis estimate of the q-quantile: a beta-weighted mean of all
/// order statistics. The query mixes are heterogeneous (0.15-3.5 s), so the
/// gap between neighbouring order statistics near a quantile is as wide as
/// the run-to-run noise of one query; the plain sample quantile jumps
/// between neighbours from run to run, the Harrell-Davis estimate does not.
double quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  const double a = q * (n + 1);
  const double b = (1 - q) * (n + 1);
  double estimate = 0;
  double below = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double upto = incomplete_beta(a, b, static_cast<double>(i + 1) / n);
    estimate += (upto - below) * values[i];
    below = upto;
  }
  return estimate;
}

/// Run one query; a query that throws is a failed query, not a failed run.
QueryOutcome guarded(const std::function<QueryOutcome()>& query,
                     std::size_t index) {
  try {
    return query();
  } catch (const std::exception& e) {
    QueryOutcome out;
    out.key = "query " + std::to_string(index);
    out.error = std::string("threw: ") + e.what();
    return out;
  }
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  void record(const std::string& failure, const std::string& key) {
    ++attempted;
    if (failure.empty()) return;
    if (failed++ < 5) std::cerr << "perfbench: FAIL " << key << ": " << failure << "\n";
  }
};

void print_result(const Tally& tally,
                  const std::vector<Metric>& metrics) {
  const double error_rate =
      static_cast<double>(tally.failed) / static_cast<double>(tally.attempted);
  char line[256];
  std::snprintf(line, sizeof line, "%-30s %.6g ratio (%zu of %zu queries)",
                "error_rate", error_rate, tally.failed, tally.attempted);
  std::cout << line << "\n";
  for (const Metric& m : metrics) {
    std::snprintf(line, sizeof line, "%-30s %.6g %s", m.name.c_str(), m.value,
                  m.unit.c_str());
    std::cout << line << "\n";
  }
  std::cout << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << tally.attempted
            << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(line, sizeof line, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    std::cout << line;
  }
  std::cout << "}}" << std::endl;
}

void print_stamp(const Options& o, std::size_t queries) {
  std::cout << "perfbench workload=" << o.workload << " seed=" << o.seed
            << " trace=" << o.trace << " nproc=" << nproc()
            << " width=" << o.width << " build=" << PERFBENCH_BUILD_TYPE
            << " git=" << PERFBENCH_GIT_DESCRIBE << " queries=" << queries
            << "\n";
}

/// Set up `kSetups` times (the first one from program start) and keep the
/// last workload; returns the median set-up time. The first warm-up query's
/// check counts as an attempted query.
double set_up(const Options& o, const DigestTable& digests,
              std::unique_ptr<Workload>& workload, Tally& tally) {
  std::vector<double> times;
  for (int i = 0; i < kSetups; ++i) {
    workload.reset();
    const Clock::time_point start = i == 0 ? kProgramStart : Clock::now();
    workload = make_workload(o, nullptr);
    mr::util::ThreadPool::shared();
    const QueryOutcome warm =
        guarded([&] { return workload->warm_up(o.width); }, 0);
    times.push_back(seconds_since(start));
    if (i == 0) tally.record(verdict(warm, digests), warm.key);
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

int timed_run(const Options& o, const DigestTable& digests) {
  Tally tally;
  std::unique_ptr<Workload> workload;
  const double setup_s = set_up(o, digests, workload, tally);

  std::vector<double> latencies;
  const Clock::time_point start = Clock::now();
  double wall = 0;
  for (std::size_t i = 0;; ++i) {
    const Clock::time_point q0 = Clock::now();
    const QueryOutcome out = guarded(
        [&] { return workload->run(i % workload->size(), o.width, nullptr); },
        i);
    latencies.push_back(seconds_since(q0));
    tally.record(verdict(out, digests), out.key);
    wall = seconds_since(start);
    const bool deck_done = (i + 1) % workload->deck() == 0;
    if ((deck_done && wall >= o.seconds && latencies.size() >= kMinQueries) ||
        wall >= kHardCapSeconds) {
      break;
    }
  }
  print_stamp(o, latencies.size());
  if (latencies.size() < kMinQueries) {
    std::cout << "warning: " << latencies.size() << " queries; p75 keeps fewer "
              << "than ten samples beyond it\n";
  }
  std::cout << "latency samples: " << latencies.size() << " (p50 and p75)\n";
  const auto n = static_cast<double>(latencies.size());
  print_result(tally,
               {{"throughput_qps", n / wall, "1/s"},
                {"latency_p50_s", quantile(latencies, 0.50), "s"},
                {"latency_p75_s", quantile(latencies, 0.75), "s"},
                {"setup_s", setup_s, "s"},
                {"peak_rss_mb", peak_rss_mb(), "MB"},
                {"success_rate",
                 1.0 - static_cast<double>(tally.failed) /
                           static_cast<double>(tally.attempted),
                 "ratio"}});
  return 0;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Queries a traced run replays: a fixed count, so a seed's per-layer counts
/// repeat exactly (tune and sweep queries cost 0.2-3.5 s each, three ways).
std::size_t traced_queries(const std::string& workload) {
  if (workload == "tune") return 9;
  if (workload == "sweep") return 6;
  return 8;
}

int traced_run(const Options& o, const DigestTable& digests) {
  Tally tally;
  Trace setup_trace;
  std::unique_ptr<Workload> workload = make_workload(o, &setup_trace);
  mr::util::ThreadPool::shared();
  const QueryOutcome warm =
      guarded([&] { return workload->warm_up(o.width); }, 0);
  tally.record(verdict(warm, digests), warm.key);

  Trace trace;
  double wide_wall = 0;
  double wide_cpu = 0;
  double plain_wall = 0;
  double traced_wall = 0;
  const std::size_t n = std::min(traced_queries(o.workload), workload->size());
  for (std::size_t i = 0; i < n; ++i) {
    // Width W untraced: the pool's CPU use per wall second.
    const double cpu0 = cpu_seconds();
    Clock::time_point t0 = Clock::now();
    const QueryOutcome wide =
        guarded([&] { return workload->run(i, o.width, nullptr); }, i);
    wide_wall += seconds_since(t0);
    wide_cpu += cpu_seconds() - cpu0;
    // Width 1 untraced, then traced: the overhead base and the spans.
    t0 = Clock::now();
    const QueryOutcome plain =
        guarded([&] { return workload->run(i, 1, nullptr); }, i);
    plain_wall += seconds_since(t0);
    t0 = Clock::now();
    const QueryOutcome traced =
        guarded([&] { return workload->run(i, 1, &trace); }, i);
    traced_wall += seconds_since(t0);

    std::string failure = verdict(wide, digests);
    if (failure.empty()) failure = verdict(plain, digests);
    if (failure.empty()) failure = verdict(traced, digests);
    if (failure.empty() &&
        (plain.digest != wide.digest || traced.digest != wide.digest)) {
      failure = "output differs between pool widths or with tracing";
    }
    tally.record(failure, wide.key);
  }
  workload->engine_counters(trace);

  const auto L = [&](const char* name) { return trace.layer(name); };
  const auto C = [&](const char* name) { return trace.counter(name); };
  const auto calls = [&](const char* name) {
    return static_cast<double>(L(name).calls);
  };
  const double bound_calls =
      calls("verify.bound_build") + calls("verify.bound_evaluate");
  const double bound_busy =
      L("verify.bound_build").busy_s + L("verify.bound_evaluate").busy_s;
  const double deferred =
      C("simnet.deferred_allocations") + C("simnet.deferred_rejections");

  print_stamp(o, n);
  print_result(
      tally,
      {{"tune.tune.busy_s", L("tune.tune").busy_s, "s"},
       {"tune.stage2_bound_s", C("tune.stage2_bound_s"), "s"},
       {"tune.classes", C("tune.classes"), "count"},
       {"tune.pruned", C("tune.pruned"), "count"},
       {"tune.simulated", C("tune.simulated"), "count"},
       {"tune.sim_points", C("tune.sim_points"), "count"},
       {"tune.prune_ratio", ratio(C("tune.pruned"), C("tune.shard_classes")),
        "ratio"},
       {"verify.bound_build.busy_s", L("verify.bound_build").busy_s, "s"},
       {"verify.bound_build.calls", calls("verify.bound_build"), "count"},
       {"verify.bound_evaluate.busy_s", L("verify.bound_evaluate").busy_s, "s"},
       {"verify.bound_evaluate.calls", calls("verify.bound_evaluate"), "count"},
       {"verify.structure_key.busy_s", L("verify.structure_key").busy_s, "s"},
       {"verify.bound_cache.hit_rate",
        ratio(C("verify.bound_cache.hits"),
              C("verify.bound_cache.hits") + C("verify.bound_cache.misses")),
        "ratio"},
       {"verify.bound_over_sim",
        ratio(ratio(bound_busy, bound_calls),
              ratio(L("simmpi.run_timed").busy_s, calls("simmpi.run_timed"))),
        "ratio"},
       {"verify.topo_check.busy_s", setup_trace.layer("verify.topo_check").busy_s,
        "s"},
       {"harness.protocol_jobs.busy_s", L("harness.protocol_jobs").busy_s, "s"},
       {"harness.protocol_jobs.calls", calls("harness.protocol_jobs"), "count"},
       {"harness.run_sweep.busy_s", L("harness.run_sweep").busy_s, "s"},
       {"harness.sweep_points", C("harness.sweep_points"), "count"},
       {"simmpi.run_timed.busy_s", L("simmpi.run_timed").busy_s, "s"},
       {"simmpi.run_timed.calls", calls("simmpi.run_timed"), "count"},
       {"simmpi.events", C("simmpi.events"), "count"},
       {"simmpi.peak_event_queue", C("simmpi.peak_event_queue"), "count"},
       {"simmpi.compile_plan.busy_s", L("simmpi.compile_plan").busy_s, "s"},
       {"simmpi.compile_plan.calls", calls("simmpi.compile_plan"), "count"},
       {"simmpi.plan_cache.hit_rate",
        ratio(C("simmpi.plan_cache.hits"),
              C("simmpi.plan_cache.hits") + C("simmpi.plan_cache.misses")),
        "ratio"},
       {"simnet.flow_completions", C("simnet.flow_completions"), "count"},
       {"simnet.full_recomputes", C("simnet.full_recomputes"), "count"},
       {"simnet.deferred_ratio", ratio(C("simnet.deferred_allocations"), deferred),
        "ratio"},
       {"simnet.peak_active_flows", C("simnet.peak_active_flows"), "count"},
       {"simnet.route_hit_rate",
        ratio(C("simnet.route_hits"),
              C("simnet.route_hits") + C("simnet.route_misses")),
        "ratio"},
       {"mr.classify.busy_s", L("mr.classify").busy_s, "s"},
       {"mr.classify.orders_per_s",
        ratio(C("mr.classify.orders"), L("mr.classify").busy_s), "1/s"},
       {"mr.classify.hash_collisions", C("mr.classify.hash_collisions"), "count"},
       {"mr.characterize.busy_s", L("mr.characterize").busy_s, "s"},
       {"mr.characterize.calls", calls("mr.characterize"), "count"},
       {"mr.unrank.busy_s", L("mr.unrank").busy_s, "s"},
       {"slurm.equivalent.busy_s", L("slurm.equivalent").busy_s, "s"},
       {"slurm.equivalent.calls", calls("slurm.equivalent"), "count"},
       {"slurm.equivalent.found_ratio",
        ratio(C("slurm.equivalent.found"), calls("slurm.equivalent")), "ratio"},
       {"engine.workspaces_created", C("engine.workspaces_created"), "count"},
       {"engine.workspace_checkouts", C("engine.workspace_checkouts"), "count"},
       {"util.pool.cpu_per_wall", ratio(wide_cpu, wide_wall), "ratio"},
       {"trace.coverage", ratio(trace.top_level_s(), traced_wall), "ratio"},
       {"trace.overhead", ratio(traced_wall, plain_wall), "ratio"}});
  return 0;
}

/// Write the digests of the first `count` generated queries (and the
/// warm-up query) of this seed: the reference outputs later runs check.
int record_digests(const Options& o) {
  std::unique_ptr<Workload> workload = make_workload(o, nullptr);
  std::map<std::string, std::uint64_t> table;
  const auto keep = [&](const QueryOutcome& out) {
    if (!out.error.empty()) {
      std::cerr << "perfbench: " << out.key << ": " << out.error << "\n";
      std::exit(1);
    }
    table[out.key] = out.digest;
  };
  keep(workload->warm_up(o.width));
  const std::size_t n = std::min(o.record_count, workload->size());
  for (std::size_t i = 0; i < n; ++i) keep(workload->run(i, o.width, nullptr));
  std::ofstream file(o.record);
  for (const auto& [key, digest] : table) {
    file << key << '\t' << std::hex << digest << std::dec << '\n';
  }
  std::cout << "recorded " << table.size() << " digests to " << o.record << "\n";
  return file ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options o = parse_options(argc, argv);
  check_environment(o);
  // Pin the process pool every engine fans out over to the benchmark's
  // width; every query also passes the width in its `threads` field.
  setenv("MIXRADIX_THREADS", std::to_string(o.width).c_str(), 1);
  try {
    if (!o.record.empty()) return record_digests(o);
    const DigestTable digests = load_digests(o.digests);
    return o.trace ? traced_run(o, digests) : timed_run(o, digests);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
