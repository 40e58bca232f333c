// mrtune: the mapping autotuner from the command line — "which enumeration
// orders should my job script use on this machine for this workload?"
//
//   $ ./mrtune --machine lumi:2 --size 256 --collective alltoall --k 5
//   $ ./mrtune --machine hydra:4 --size 16 --collective allgather,allreduce
//              --bytes 1048576,8388608 --json 1
//   $ ./mrtune --machine testbox --size 4 --concurrency single --k 2
//   $ ./mrtune --machine lumi:2 --size 32 --budget-points 40 --k 3
//   $ ./mrtune --machine lumi:2 --size 32 --shard 0/4   # 1 of 4 workers
//
// Prints the top-k orders with their §3.3 metric tuples, simulated scores
// and funnel provenance; --json 1 emits the canonical machine-readable
// report instead (byte-identical across runs and thread counts when the
// budget is a point budget or absent).
#include <algorithm>
#include <cstring>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "mixradix/engine/engine.hpp"
#include "mixradix/topo/presets.hpp"
#include "mixradix/tune/report.hpp"
#include "mixradix/tune/search.hpp"
#include "mixradix/util/expect.hpp"

namespace {

int usage() {
  std::cerr <<
      "usage: mrtune [flags]\n"
      "  --machine SPEC      testbox | hydra:N[:nics] | hydra_node |\n"
      "                      lumi:N | lumi_node | generic:n:s:c\n"
      "  --size S[,S...]     communicator sizes (default: machine cores)\n"
      "  --collective C[,C]  alltoall (default), allgather, allreduce,\n"
      "                      bcast, reduce, reduce_scatter, gather,\n"
      "                      scatter, scan, barrier\n"
      "  --bytes B[,B...]    total payload per point (default 8388608)\n"
      "  --concurrency MODE  all (default) | single subcommunicator\n"
      "  --k K               orders to return (default 3)\n"
      "  --reps N            repetitions per point (default 2)\n"
      "  --threads N         0 = default pool width, 1 = serial\n"
      "  --slack S           completion slack (default 0 = exact)\n"
      "  --budget-points N   stop after N point simulations (anytime)\n"
      "  --budget-seconds S  wall-clock cap (non-deterministic)\n"
      "  --shard i/n         search only candidate shard i of n\n"
      "  --plan-cache-cap N  bound this query's plan cache (LRU, 0 = off)\n"
      "  --json 1            canonical JSON report on stdout (plan-cache\n"
      "                      stats go to stderr)\n";
  return 2;
}

mr::topo::Machine parse_machine(const std::string& spec) {
  std::vector<std::string> parts;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ':')) parts.push_back(item);
  MR_EXPECT(!parts.empty(), "empty machine spec");
  const auto arg = [&](std::size_t i, int fallback) {
    return i < parts.size() ? std::stoi(parts[i]) : fallback;
  };
  if (parts[0] == "testbox") return mr::topo::testbox();
  if (parts[0] == "hydra") return mr::topo::hydra(arg(1, 4), arg(2, 1));
  if (parts[0] == "hydra_node") return mr::topo::hydra_node(arg(1, 1));
  if (parts[0] == "lumi") return mr::topo::lumi(arg(1, 2));
  if (parts[0] == "lumi_node") return mr::topo::lumi_node();
  if (parts[0] == "generic") {
    return mr::topo::generic(arg(1, 2), arg(2, 2), arg(3, 8));
  }
  throw mr::invalid_argument("unknown machine spec: " + spec);
}

std::vector<std::string> split(const std::string& spec, char sep) {
  std::vector<std::string> out;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, sep)) out.push_back(item);
  MR_EXPECT(!out.empty(), "empty list: " + spec);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mr;
  // Every flag takes a value; a flag the tuner does not read is an error,
  // not a silently ignored typo.
  static const std::vector<std::string> known = {
      "machine", "size", "collective", "bytes", "concurrency", "k", "reps",
      "threads", "slack", "budget-points", "budget-seconds", "shard",
      "plan-cache-cap", "json"};
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; i += 2) {
    const std::string name = std::strncmp(argv[i], "--", 2) == 0 ? argv[i] + 2 : "";
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      std::cerr << "error: unknown flag " << argv[i] << "\n";
      return usage();
    }
    if (i + 1 == argc) {
      std::cerr << "error: flag " << argv[i] << " needs a value\n";
      return usage();
    }
    flags[name] = argv[i + 1];
  }
  const auto flag = [&](const char* name, const char* fallback) {
    const auto it = flags.find(name);
    return it == flags.end() ? std::string(fallback) : it->second;
  };

  try {
    const topo::Machine machine = parse_machine(flag("machine", "testbox"));
    tune::TuneQuery query;
    query.collectives.clear();
    for (const std::string& name : split(flag("collective", "alltoall"), ',')) {
      query.collectives.push_back(tune::parse_collective(name));
    }
    for (const std::string& s :
         split(flag("size", std::to_string(machine.cores()).c_str()), ',')) {
      query.comm_sizes.push_back(std::stoll(s));
    }
    query.total_bytes.clear();
    for (const std::string& b : split(flag("bytes", "8388608"), ',')) {
      query.total_bytes.push_back(std::stoll(b));
    }
    const std::string mode = flag("concurrency", "all");
    MR_EXPECT(mode == "all" || mode == "single",
              "--concurrency must be 'all' or 'single'");
    query.concurrency = mode == "all" ? tune::Concurrency::AllComms
                                      : tune::Concurrency::SingleComm;
    query.k = std::stoi(flag("k", "3"));
    query.repetitions = std::stoi(flag("reps", "2"));
    query.threads = std::stoi(flag("threads", "0"));
    query.completion_slack = std::stod(flag("slack", "0"));
    query.budget.max_points = std::stoll(flag("budget-points", "0"));
    query.budget.max_seconds = std::stod(flag("budget-seconds", "0"));
    const std::string shard = flag("shard", "0/1");
    const auto slash = shard.find('/');
    MR_EXPECT(slash != std::string::npos, "--shard must be i/n");
    query.shard_index = std::stoi(shard.substr(0, slash));
    query.shard_count = std::stoi(shard.substr(slash + 1));
    // The query runs in its own Engine so --plan-cache-cap bounds THIS
    // query's cache; it used to set_capacity on the process-wide
    // PlanCache singleton, leaking the LRU bound into every later query
    // in the process.
    EngineConfig config;
    config.plan_cache_capacity = std::stoull(flag("plan-cache-cap", "0"));
    Engine engine(config);

    const tune::TuneReport report = tune::tune(engine, machine, query);
    const Engine::Stats stats = engine.stats();
    // Plan-cache statistics; in --json mode they go to stderr so stdout
    // stays the canonical document.
    std::ostringstream cache_line;
    cache_line << "plan cache: " << stats.plan_cache.hits << " hits, "
               << stats.plan_cache.misses << " misses, "
               << stats.plan_cache.entries << " entries, "
               << stats.plan_cache.evictions << " evictions\n";
    if (flag("json", "0") != "0") {
      tune::write_json(std::cout, report, /*candidates=*/false);
      std::cerr << cache_line.str();
    } else {
      std::cout << tune::to_string(report) << cache_line.str();
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
