// mrenum: a command-line front end to the enumeration algorithms — what a
// cluster user would actually invoke from a job script.
//
//   $ ./mrenum rank --hierarchy 2:2:4 --order 0-2-1 --rank 10
//   $ ./mrenum rankfile --hierarchy 16:2:2:8 --order 1-3-2-0
//   $ ./mrenum map_cpu --hierarchy 2:4:2:8 --order 2-1-0-3 --nprocs 16
//   $ ./mrenum orders --hierarchy 2:2:4 --comm-size 4
#include <algorithm>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "mixradix/mr/core_select.hpp"
#include "mixradix/mr/equivalence.hpp"
#include "mixradix/mr/reorder.hpp"
#include "mixradix/slurm/distribution.hpp"
#include "mixradix/util/expect.hpp"

namespace {

int usage() {
  std::cerr <<
      "usage: mrenum <command> [--hierarchy H] [--order O] [--rank R]\n"
      "              [--nprocs N] [--comm-size S] [--metrics fast|reference]\n"
      "commands:\n"
      "  rank      new rank of --rank under --order\n"
      "  rankfile  Open MPI rankfile realising --order on --hierarchy\n"
      "  map_cpu   Slurm --cpu-bind list selecting --nprocs cores per node\n"
      "  orders    all orders with metrics and Slurm equivalents\n"
      "flags:\n"
      "  --metrics fast|reference   metric kernels for `orders`: closed-form\n"
      "                             (default) or the brute-force reference;\n"
      "                             the output is identical either way\n"
      "  --shard i/n                `orders` emits only lexicographic ranks\n"
      "                             i, i+n, i+2n, ... (factorial-number-\n"
      "                             system unranking, no enumeration of the\n"
      "                             other shards); the n shards partition\n"
      "                             the h! orders exactly. Default 0/1.\n";
  return 2;
}

/// Parse "i/n" (e.g. "1/4") into {index, count}; throws on malformed specs.
std::pair<long long, long long> parse_shard(const std::string& value) {
  const auto slash = value.find('/');
  long long index = -1, count = -1;
  try {
    if (slash != std::string::npos) {
      index = std::stoll(value.substr(0, slash));
      count = std::stoll(value.substr(slash + 1));
    }
  } catch (const std::exception&) {
  }
  if (index < 0 || count < 1 || index >= count) {
    throw mr::invalid_argument("--shard must be i/n with 0 <= i < n, got '" +
                               value + "'");
  }
  return {index, count};
}

/// Flags each command reads; --hierarchy is shared by all of them.
std::vector<std::string> known_flags(const std::string& command) {
  if (command == "rank") return {"hierarchy", "order", "rank"};
  if (command == "rankfile") return {"hierarchy", "order"};
  if (command == "map_cpu") return {"hierarchy", "order", "nprocs"};
  if (command == "orders") return {"hierarchy", "comm-size", "metrics", "shard"};
  return {};
}

mr::MetricsImpl parse_metrics_impl(const std::string& value) {
  if (value == "fast") return mr::MetricsImpl::Fast;
  if (value == "reference") return mr::MetricsImpl::Reference;
  throw mr::invalid_argument("--metrics must be 'fast' or 'reference', got '" +
                             value + "'");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mr;
  if (argc < 2) return usage();
  const std::string command = argv[1];

  const std::vector<std::string> known = known_flags(command);
  if (known.empty()) return usage();
  // Every flag takes a value; a flag the command does not read is an error,
  // not a silently ignored typo.
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; i += 2) {
    const std::string name = std::strncmp(argv[i], "--", 2) == 0 ? argv[i] + 2 : "";
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      std::cerr << "error: unknown flag " << argv[i] << " for command '"
                << command << "'\n";
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
    const Hierarchy h = Hierarchy::parse(flag("hierarchy", "2:2:4"));
    if (command == "rank") {
      const Order order = parse_order(flag("order", "0-1-2"));
      const std::int64_t rank = std::stoll(flag("rank", "0"));
      std::cout << reorder_rank(h, rank, order) << "\n";
    } else if (command == "rankfile") {
      const Order order = parse_order(flag("order", "0-1-2"));
      std::cout << ReorderPlan(h, order).rankfile();
    } else if (command == "map_cpu") {
      const Order order = parse_order(flag("order", "0-1-2"));
      const std::int64_t n = std::stoll(flag("nprocs", "1"));
      std::cout << "--cpu-bind=" << map_cpu_string(select_cores(h, order, n))
                << "\n";
    } else if (command == "orders") {
      // h! overflows 64 bits past depth 20, and a shard of more than 9!
      // lines is a runaway listing rather than a query: refuse both before
      // anything is listed.
      constexpr int kMaxDepth = 20;
      constexpr long long kMaxLines = 362880;  // 9!
      if (h.depth() > kMaxDepth) {
        std::cerr << "error: --hierarchy " << flag("hierarchy", "")
                  << " has " << h.depth() << " levels; " << h.depth()
                  << "! orders overflow 64 bits (at most " << kMaxDepth
                  << " levels)\n";
        return 2;
      }
      const std::int64_t comm_size =
          std::stoll(flag("comm-size", std::to_string(h.total()).c_str()));
      const MetricsImpl impl = parse_metrics_impl(flag("metrics", "fast"));
      const auto [shard, nshards] = parse_shard(flag("shard", "0/1"));
      const long long orders = factorial(h.depth());
      const long long lines =
          shard >= orders ? 0 : (orders - shard - 1) / nshards + 1;
      if (lines > kMaxLines) {
        std::cerr << "error: --hierarchy " << flag("hierarchy", "") << " has "
                  << orders << " orders (" << h.depth() << "!); shard " << shard
                  << "/" << nshards << " would list " << lines
                  << " of them, above the limit of " << kMaxLines
                  << " (9!) lines per shard; split the listing with --shard "
                     "i/n, n >= "
                  << (orders + kMaxLines - 1) / kMaxLines << "\n";
        return 2;
      }
      // Unrank each of this shard's lexicographic positions directly — a
      // shard never materialises (or even iterates) the other n-1 shards,
      // so n workers splitting an h! enumeration each do 1/n of the work.
      for (long long idx = shard; idx < orders; idx += nshards) {
        const Order order = nth_order_lexicographic(h.depth(), idx);
        const auto ch = characterize_order(h, order, comm_size, impl);
        const auto dist = slurm::equivalent_distribution(h, order);
        std::cout << ch.to_string() << "  distribution="
                  << (dist ? dist->to_string() : "-") << "\n";
      }
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
