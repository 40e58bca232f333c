// Enumeration-kernel scaling: the screening phase of a deep-hierarchy
// enumeration (classify all h! orders, then characterize every order) run
// with the closed-form fast kernels and with the brute-force reference
// kernels, serially and over the shared pool.
//
// The reference path pays O(s^2) per order for the pair scan and a
// map-of-placements for classification; the fast path is O(h^2) per order
// plus a hashed two-pass grouping. On the depth-7/8 machines below the
// difference is the gap between "screen in milliseconds" and "screen in
// tens of seconds". The bench verifies that all four combinations
// {fast, reference} x {serial, threaded} render byte-identical class
// lists, representatives and per-order characters, spot-checks
// nth_order_lexicographic against the materialised order list, and writes
// BENCH_enum.json so the speedup is tracked across PRs. Pass --quick for
// CI-sized comm sizes.
//
// A second section times the listing path of `mrenum_cli orders` on a
// depth-7 hierarchy (unrank -> characterize -> Slurm equivalent -> one
// line per order) and checks its text byte-identical against a full-scan
// oracle that materialises every placement and candidate task map.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "mixradix/mr/decompose.hpp"
#include "mixradix/mr/equivalence.hpp"
#include "mixradix/slurm/distribution.hpp"

namespace {

struct MachineCase {
  std::string name;
  mr::Hierarchy hierarchy;
  std::int64_t comm_size;
};

struct EnumRun {
  std::string csv;
  double classify_seconds = 0.0;
  double characterize_seconds = 0.0;
  mr::ClassifyStats stats;

  double total_seconds() const { return classify_seconds + characterize_seconds; }
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

// One full screening pass: classify the order space at the benchmarking
// granularity, then characterize every order, and render both to a
// deterministic CSV (the byte-identity witness).
EnumRun run_enumeration(const MachineCase& mc, const std::vector<mr::Order>& orders,
                        mr::MetricsImpl impl, int threads) {
  EnumRun run;

  const auto classify_start = std::chrono::steady_clock::now();
  const auto classes =
      mr::classify_orders(mc.hierarchy, mc.comm_size,
                          mr::Equivalence::SameSetsAndInternal, threads, impl,
                          &run.stats);
  run.classify_seconds = seconds_since(classify_start);

  const auto characterize_start = std::chrono::steady_clock::now();
  const auto characters =
      mr::characterize_orders(mc.hierarchy, orders, mc.comm_size, threads, impl);
  run.characterize_seconds = seconds_since(characterize_start);

  std::ostringstream csv;
  csv << "class;representative;members\n";
  for (std::size_t i = 0; i < classes.size(); ++i) {
    csv << i << ";" << classes[i].representative.to_string() << ";";
    for (std::size_t m = 0; m < classes[i].members.size(); ++m) {
      csv << (m ? " " : "") << mr::order_to_string(classes[i].members[m]);
    }
    csv << "\n";
  }
  csv << "character\n";
  for (const auto& character : characters) {
    csv << character.to_string() << "\n";
  }
  run.csv = csv.str();
  return run;
}

// Spot-check the shardable unranking against the materialised list: a
// handful of evenly spaced indices plus the two endpoints.
bool unranking_matches(int depth, const std::vector<mr::Order>& orders) {
  const long long total = mr::factorial(depth);
  const long long step = total > 8 ? total / 8 : 1;
  for (long long index = 0; index < total; index += step) {
    if (mr::nth_order_lexicographic(depth, index) !=
        orders[static_cast<std::size_t>(index)]) {
      return false;
    }
  }
  return mr::nth_order_lexicographic(depth, total - 1) == orders.back();
}

using DistributionFn = std::function<std::optional<mr::slurm::Distribution>(
    const mr::Hierarchy&, const mr::Order&)>;

// What `mrenum_cli orders` prints for every order of `h` (comm size =
// the whole machine), with the Slurm equivalent found by `distribution`.
std::string render_listing(const mr::Hierarchy& h,
                           const DistributionFn& distribution) {
  std::string text;
  for (long long idx = 0; idx < mr::factorial(h.depth()); ++idx) {
    const mr::Order order = mr::nth_order_lexicographic(h.depth(), idx);
    const auto ch =
        mr::characterize_order(h, order, h.total(), mr::MetricsImpl::Fast);
    const auto dist = distribution(h, order);
    text += ch.to_string();
    text += "  distribution=";
    text += dist ? dist->to_string() : "-";
    text += '\n';
  }
  return text;
}

// Full-scan oracle from public definitions only: the order's placement
// inverted from reorder_all_ranks, compared whole against the task map of
// every candidate distribution.
std::optional<mr::slurm::Distribution> full_scan_distribution(
    const mr::Hierarchy& h, const mr::Order& order) {
  const auto forward = mr::reorder_all_ranks(h, order);
  std::vector<std::int64_t> placement(forward.size());
  for (std::size_t old_rank = 0; old_rank < forward.size(); ++old_rank) {
    placement[static_cast<std::size_t>(forward[old_rank])] =
        static_cast<std::int64_t>(old_rank);
  }
  const auto view = mr::slurm::MachineView::from_hierarchy(h);
  for (const auto& d : mr::slurm::candidate_distributions(view)) {
    if (mr::slurm::task_map(view, d) == placement) return d;
  }
  return std::nullopt;
}

struct ListingRun {
  std::string hierarchy;
  long long orders = 0;
  double seconds = 0.0;         ///< median of kListingReps listings.
  double oracle_seconds = 0.0;  ///< one full-scan listing.
  bool identical = false;

  double orders_per_s() const { return seconds > 0 ? orders / seconds : 0.0; }
};

ListingRun run_listing(const mr::Hierarchy& h) {
  constexpr int kListingReps = 5;
  ListingRun run;
  run.hierarchy = h.to_string();
  run.orders = mr::factorial(h.depth());
  std::string text;
  std::vector<double> seconds;
  for (int rep = 0; rep < kListingReps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    text = render_listing(h, mr::slurm::equivalent_distribution);
    seconds.push_back(seconds_since(start));
  }
  std::sort(seconds.begin(), seconds.end());
  run.seconds = seconds[seconds.size() / 2];
  const auto start = std::chrono::steady_clock::now();
  const std::string oracle = render_listing(h, full_scan_distribution);
  run.oracle_seconds = seconds_since(start);
  run.identical = text == oracle;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::vector<std::string> args(argv + 1, argv + argc);
  std::erase_if(args, [&](const std::string& arg) {
    if (arg == "--quick") quick = true;
    return arg == "--quick";
  });
  bench::Options opts;
  try {
    opts = bench::Options::parse_args(args);
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << " (enum_scaling also accepts --quick)\n";
    return 2;
  }
  const int threads = opts.resolved_threads();

  // Depth 7 and 8: past the deepest paper machine (lumi, h=5), where the
  // reference kernels stop being viable as a screening step. --quick
  // shrinks the communicators (and with them the O(s^2) reference cost)
  // to CI scale; the identity checks are equally strict either way.
  const std::vector<MachineCase> cases = {
      {"deep7", mr::Hierarchy{4, 2, 2, 2, 2, 2, 8}, quick ? 64 : 128},
      {"deep8", mr::Hierarchy{2, 2, 2, 2, 2, 2, 2, 2}, quick ? 32 : 64},
  };

  bool all_identical = true;
  bool all_unranked = true;
  double min_speedup = 0.0;
  std::ostringstream machines_json;

  for (std::size_t ci = 0; ci < cases.size(); ++ci) {
    const MachineCase& mc = cases[ci];
    const auto orders = mr::all_orders_lexicographic(mc.hierarchy.depth());
    std::cout << "enum_scaling[" << mc.name << "]: hierarchy "
              << mc.hierarchy.to_string() << ", " << orders.size()
              << " orders, subcommunicators of " << mc.comm_size << "\n";

    const EnumRun ref_serial =
        run_enumeration(mc, orders, mr::MetricsImpl::Reference, 1);
    const EnumRun ref_threaded =
        run_enumeration(mc, orders, mr::MetricsImpl::Reference, threads);
    const EnumRun fast_serial =
        run_enumeration(mc, orders, mr::MetricsImpl::Fast, 1);
    const EnumRun fast_threaded =
        run_enumeration(mc, orders, mr::MetricsImpl::Fast, threads);

    const auto report = [](const char* label, const EnumRun& run) {
      std::cout << "  " << label << ": " << run.total_seconds()
                << " s (classify " << run.classify_seconds << " + characterize "
                << run.characterize_seconds << ")\n";
    };
    report("reference serial  ", ref_serial);
    report("reference threaded", ref_threaded);
    report("fast serial       ", fast_serial);
    report("fast threaded     ", fast_threaded);
    bench::print_kernel_counters(std::cout, mc.name + "-fast",
                                 fast_threaded.stats,
                                 fast_threaded.classify_seconds);

    const double speedup_serial =
        fast_serial.total_seconds() > 0
            ? ref_serial.total_seconds() / fast_serial.total_seconds()
            : 0.0;
    const double speedup_threaded =
        fast_threaded.total_seconds() > 0
            ? ref_threaded.total_seconds() / fast_threaded.total_seconds()
            : 0.0;
    const bool identical = ref_serial.csv == ref_threaded.csv &&
                           ref_serial.csv == fast_serial.csv &&
                           ref_serial.csv == fast_threaded.csv;
    const bool unranked = unranking_matches(mc.hierarchy.depth(), orders);
    std::cout << "  closed-form speedup: " << speedup_serial << "x serial, "
              << speedup_threaded << "x threaded\n"
              << "  output identical across {fast,reference} x {1," << threads
              << "} threads: "
              << (identical ? "yes" : "NO — KERNEL MISMATCH") << "\n"
              << "  unranking spot-check: " << (unranked ? "ok" : "MISMATCH")
              << "\n";

    all_identical = all_identical && identical;
    all_unranked = all_unranked && unranked;
    min_speedup =
        ci == 0 ? speedup_serial : std::min(min_speedup, speedup_serial);

    machines_json << "    {\n"
                  << "      \"name\": \"" << mc.name << "\",\n"
                  << "      \"orders\": " << orders.size() << ",\n"
                  << "      \"comm_size\": " << mc.comm_size << ",\n"
                  << "      \"classes\": " << fast_threaded.stats.classes
                  << ",\n"
                  << "      \"signatures_hashed\": "
                  << fast_threaded.stats.signatures_hashed << ",\n"
                  << "      \"hash_collisions\": "
                  << fast_threaded.stats.hash_collisions << ",\n"
                  << "      \"reference_serial_seconds\": "
                  << ref_serial.total_seconds() << ",\n"
                  << "      \"reference_threaded_seconds\": "
                  << ref_threaded.total_seconds() << ",\n"
                  << "      \"fast_serial_seconds\": "
                  << fast_serial.total_seconds() << ",\n"
                  << "      \"fast_threaded_seconds\": "
                  << fast_threaded.total_seconds() << ",\n"
                  << "      \"speedup_serial\": " << speedup_serial << ",\n"
                  << "      \"speedup_threaded\": " << speedup_threaded << "\n"
                  << "    }" << (ci + 1 < cases.size() ? "," : "") << "\n";

    if (!opts.csv_path.empty() && ci == 0) {
      std::ofstream csv(opts.csv_path);
      csv << fast_threaded.csv;
      std::cout << "  csv written to " << opts.csv_path << "\n";
    }
    std::cout << "\n";
  }

  // Depth 7, 256 cores: the listing `mrenum_cli orders` prints, as timed
  // by the perfbench enumerate workload.
  const ListingRun listing = run_listing(mr::Hierarchy{2, 2, 2, 2, 2, 2, 4});
  std::cout << "enum_scaling[listing]: hierarchy " << listing.hierarchy << ", "
            << listing.orders << " orders\n"
            << "  listing: " << listing.seconds << " s median ("
            << listing.orders_per_s() << " orders/s); full-scan oracle "
            << listing.oracle_seconds << " s\n"
            << "  listing identical to the full-scan oracle: "
            << (listing.identical ? "yes" : "NO — MATCHER MISMATCH") << "\n\n";

  std::ofstream json("BENCH_enum.json");
  json << "{\n"
       << "  \"bench\": \"enum_scaling\",\n"
       << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
       << "  \"threads\": " << threads << ",\n"
       << "  \"machines\": [\n"
       << machines_json.str() << "  ],\n"
       << "  \"min_speedup\": " << min_speedup << ",\n"
       << "  \"listing\": {\n"
       << "    \"hierarchy\": \"" << listing.hierarchy << "\",\n"
       << "    \"orders\": " << listing.orders << ",\n"
       << "    \"listing_seconds\": " << listing.seconds << ",\n"
       << "    \"listing_orders_per_s\": " << listing.orders_per_s() << ",\n"
       << "    \"oracle_seconds\": " << listing.oracle_seconds << "\n"
       << "  },\n"
       << "  \"listing_identical\": "
       << (listing.identical ? "true" : "false") << ",\n"
       << "  \"identical_output\": "
       << (all_identical && all_unranked && listing.identical ? "true"
                                                              : "false")
       << "\n"
       << "}\n";
  std::cout << "json written to BENCH_enum.json\n";

  return all_identical && all_unranked && listing.identical ? 0 : 1;
}
