// Bit-identity goldens for the binding analyzer's lower bound.
//
// tests/data/binding_bound_goldens.tsv holds the exact bits of
// lower_bound, critical_path and channel_serialization that analyze_jobs
// returned, before the per-plan visit order replaced the event worklist,
// over the matrix
//   registry x {testbox, hydra:4, lumi:2} x {reps 1, 3}
//     x {packed, spread, shared-core} x {one job at 0, two staggered jobs}
//     x {64, 2048, 65536} doubles
// (shared-core pairs ranks on one core, so self messages stay latency-only;
// the counts put message payloads on both sides of the 16 KiB eager
// threshold). Every DP step is a max, a min, a `+` of fixed operands or an
// exact int64 sum, so any topological visit order must reproduce these
// bits; a changed bit means the analysis itself changed.
//
// On any mismatch the test writes the table it computed to
// binding_bound_goldens.got.tsv in the working directory; regenerating the
// goldens (only when the analysis is meant to change) is copying that file
// over tests/data/binding_bound_goldens.tsv.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "mixradix/simmpi/plan.hpp"
#include "mixradix/simmpi/registry.hpp"
#include "mixradix/topo/presets.hpp"
#include "mixradix/verify/binding.hpp"

namespace mr::verify::binding {
namespace {

std::int32_t golden_p(const simmpi::AlgorithmInfo& info, std::int64_t ncores) {
  for (const std::int32_t p : {8, 4, 16, 6, 2}) {
    if (p <= ncores && info.supported(p)) return p;
  }
  return -1;
}

std::vector<std::int64_t> golden_cores(const std::string& mapping,
                                       std::int32_t p, std::int64_t ncores,
                                       std::int64_t shift) {
  std::vector<std::int64_t> cores(static_cast<std::size_t>(p));
  for (std::int32_t r = 0; r < p; ++r) {
    std::int64_t core = r;
    if (mapping == "spread") core = r * (ncores / p);
    if (mapping == "shared") core = r / 2;
    cores[static_cast<std::size_t>(r)] = (core + shift) % ncores;
  }
  return cores;
}

std::string hex_bits(double v) {
  char buf[24];
  const auto bits = std::bit_cast<std::uint64_t>(v);
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(bits));
  return buf;
}

/// One line per matrix point: the case key, clean flag, then the three
/// bound fields as hex bit patterns.
std::vector<std::string> golden_lines() {
  const topo::Machine machines[] = {topo::testbox(), topo::hydra(4),
                                    topo::lumi(2)};
  std::vector<std::string> lines;
  for (const auto& machine : machines) {
    const std::int64_t ncores = machine.cores();
    for (const auto& info : simmpi::algorithm_registry()) {
      const std::int32_t p = golden_p(info, ncores);
      for (const std::int64_t count : {64, 2048, 65536}) {
        for (const int reps : {1, 3}) {
          const simmpi::Plan plan =
              simmpi::compile_plan(info.name, p, count, 0, reps);
          for (const std::string mapping : {"packed", "spread", "shared"}) {
            for (const bool staggered : {false, true}) {
              const auto cores0 = golden_cores(mapping, p, ncores, 0);
              const auto cores1 = golden_cores(mapping, p, ncores, ncores / 2);
              std::vector<JobBinding> jobs = {
                  {&plan.schedule, &plan.exec, plan.repetitions, &cores0, 0.0}};
              if (staggered) {
                jobs.push_back({&plan.schedule, &plan.exec, plan.repetitions,
                                &cores1, 2.5e-6});
              }
              const Result r = analyze_jobs(machine, jobs);
              std::ostringstream os;
              os << machine.name() << '\t' << info.name << '\t' << p << '\t'
                 << count << '\t' << reps << '\t' << mapping << '\t'
                 << (staggered ? "staggered" : "start0") << '\t'
                 << (r.clean() ? "clean" : "unclean") << '\t'
                 << hex_bits(r.bound.lower_bound) << '\t'
                 << hex_bits(r.bound.critical_path) << '\t'
                 << hex_bits(r.bound.channel_serialization);
              lines.push_back(os.str());
            }
          }
        }
      }
    }
  }
  return lines;
}

TEST(BindingGoldens, BoundBitsMatchRecordedAnalysis) {
  std::ifstream in(std::string(MIXRADIX_TEST_DATA_DIR) +
                   "/binding_bound_goldens.tsv");
  std::vector<std::string> want;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line.front() != '#') want.push_back(line);
  }
  const std::vector<std::string> got = golden_lines();
  if (got != want) {
    std::ofstream out("binding_bound_goldens.got.tsv");
    out << "# machine\talgorithm\tp\tcount\treps\tmapping\tjobs\tclean"
           "\tlower_bound\tcritical_path\tchannel_serialization\n";
    for (const std::string& line : got) out << line << '\n';
  }
  ASSERT_FALSE(want.empty()) << "missing golden file";
  ASSERT_EQ(got.size(), want.size());
  int mismatches = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] != want[i] && ++mismatches <= 10) {
      ADD_FAILURE() << "golden " << i << "\n  want " << want[i] << "\n  got  "
                    << got[i];
    }
  }
  EXPECT_EQ(mismatches, 0);
}

}  // namespace
}  // namespace mr::verify::binding
