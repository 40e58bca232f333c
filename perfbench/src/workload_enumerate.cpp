// Workload `enumerate`: the paper's enumeration step, where mr and slurm do
// the work and nothing is simulated or bounded. A seeded alternation of
// two query kinds:
//  * listing — what `mrenum_cli orders` does: for every order of a depth-7
//    hierarchy, nth_order_lexicographic -> characterize_order (Fast) ->
//    slurm::equivalent_distribution -> render the line;
//  * classification — classify_orders over all three granularities x two
//    comm sizes on [2, 2, 2, 2, 2, 2, 2, 2].
// A deck holds the whole catalog — the seven depth-7 listings (the 4-way
// level at each position) and seven classification comm-size pairs —
// alternating listing and classification, each kind in seeded order.
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "mixradix/engine/engine.hpp"
#include "mixradix/mr/equivalence.hpp"
#include "mixradix/mr/metrics.hpp"
#include "mixradix/mr/permutation.hpp"
#include "mixradix/slurm/distribution.hpp"
#include "mixradix/util/prng.hpp"

namespace perfbench {
namespace {

constexpr mr::Equivalence kGranularities[] = {
    mr::Equivalence::ExactPlacement, mr::Equivalence::SameSetsAndInternal,
    mr::Equivalence::SameSetsOnly};
/// Classification comm-size pairs (divisors of 2^8).
constexpr std::int64_t kClassifyPairs[][2] = {
    {4, 8}, {8, 16}, {16, 32}, {32, 64}, {4, 16}, {8, 32}, {16, 64}};

struct EnumQuery {
  bool listing = true;
  std::vector<int> radices;            ///< listing hierarchy.
  std::int64_t sizes[2] = {0, 0};      ///< classification comm sizes.
};

class EnumerateWorkload final : public Workload {
 public:
  explicit EnumerateWorkload(std::uint64_t seed)
      : classify_h_({2, 2, 2, 2, 2, 2, 2, 2}) {
    generate(seed);
    warm_.listing = true;
    warm_.radices = {2, 2, 2, 2, 2, 2, 4};
  }

  std::size_t size() const override { return queries_.size(); }
  std::size_t deck() const override { return kDeck; }

  QueryOutcome run(std::size_t index, unsigned width, Trace* trace) override {
    return run_query(queries_[index], width, trace);
  }
  QueryOutcome warm_up(unsigned width) override {
    return run_query(warm_, width, nullptr);
  }
  void engine_counters(Trace&) const override {}

 private:
  static constexpr std::size_t kListings = 7;
  static constexpr std::size_t kDeck = 2 * kListings;
  static constexpr std::size_t kDecks = 10;

  void generate(std::uint64_t seed) {
    mr::util::Xoshiro256 rng(seed);
    const auto shuffled = [&rng] {
      std::vector<std::size_t> order(kListings);
      for (std::size_t i = 0; i < kListings; ++i) order[i] = i;
      for (std::size_t i = kListings; i > 1; --i) {
        std::swap(order[i - 1], order[rng.next_below(i)]);
      }
      return order;
    };
    for (std::size_t d = 0; d < kDecks; ++d) {
      const auto listings = shuffled();
      const auto pairs = shuffled();
      for (std::size_t i = 0; i < kListings; ++i) {
        // Depth 7, 512 cores: six binary levels and one 4-way level.
        EnumQuery listing;
        listing.radices.assign(kListings, 2);
        listing.radices[listings[i]] = 4;
        queries_.push_back(std::move(listing));
        EnumQuery classify;
        classify.listing = false;
        classify.sizes[0] = kClassifyPairs[pairs[i]][0];
        classify.sizes[1] = kClassifyPairs[pairs[i]][1];
        queries_.push_back(std::move(classify));
      }
    }
  }

  QueryOutcome run_query(const EnumQuery& q, unsigned width, Trace* trace) {
    return q.listing ? listing(mr::Hierarchy(q.radices), trace)
                     : classification(q, width, trace);
  }

  static QueryOutcome listing(const mr::Hierarchy& h, Trace* trace) {
    QueryOutcome out;
    out.key = "listing/" + h.to_string();
    const std::int64_t norders = mr::factorial(h.depth());
    std::string text;
    std::int64_t lines = 0;
    std::int64_t found = 0;
    for (std::int64_t idx = 0; idx < norders; ++idx) {
      mr::Order order;
      {
        Trace::Span span(trace, "mr.unrank");
        order = mr::nth_order_lexicographic(h.depth(), idx);
      }
      mr::OrderCharacter ch;
      {
        Trace::Span span(trace, "mr.characterize");
        ch = mr::characterize_order(h, order, h.total(), mr::MetricsImpl::Fast);
      }
      std::optional<mr::slurm::Distribution> dist;
      {
        Trace::Span span(trace, "slurm.equivalent");
        dist = mr::slurm::equivalent_distribution(h, order);
      }
      found += dist.has_value() ? 1 : 0;
      text += ch.to_string();
      text += "  distribution=";
      text += dist ? dist->to_string() : "-";
      text += '\n';
      ++lines;
    }
    count(trace, "slurm.equivalent.found", static_cast<double>(found));
    out.digest = fnv1a(text);
    if (lines != norders) {
      out.error = "listing has " + std::to_string(lines) + " lines for " +
                  std::to_string(norders) + " orders";
    }
    return out;
  }

  QueryOutcome classification(const EnumQuery& q, unsigned width,
                              Trace* trace) {
    QueryOutcome out;
    out.key = "classify/" + classify_h_.to_string() + "/" +
              std::to_string(q.sizes[0]) + "," + std::to_string(q.sizes[1]);
    const std::int64_t norders = mr::factorial(classify_h_.depth());
    std::string partition;
    for (const std::int64_t s : q.sizes) {
      for (const mr::Equivalence g : kGranularities) {
        mr::ClassifyStats stats;
        std::vector<mr::OrderClass> classes;
        {
          Trace::Span span(trace, "mr.classify");
          classes = mr::classify_orders(engine_, classify_h_, s, g,
                                        static_cast<int>(width),
                                        mr::MetricsImpl::Fast, &stats);
        }
        count(trace, "mr.classify.orders", static_cast<double>(stats.orders));
        count(trace, "mr.classify.hash_collisions",
              static_cast<double>(stats.hash_collisions));
        // The classes must partition the h! orders: every lexicographic
        // rank exactly once.
        std::vector<char> seen(static_cast<std::size_t>(norders), 0);
        std::int64_t members = 0;
        for (const auto& c : classes) {
          partition += '|';
          for (const mr::Order& o : c.members) {
            const long long rank = mr::order_index_lexicographic(o);
            partition += std::to_string(rank) + ',';
            if (seen[static_cast<std::size_t>(rank)]++ != 0) {
              out.error = "order " + mr::order_to_string(o) +
                          " sits in two classes";
            }
            ++members;
          }
        }
        partition += '\n';
        if (members != norders && out.error.empty()) {
          out.error = "classes hold " + std::to_string(members) + " of " +
                      std::to_string(norders) + " orders";
        }
      }
    }
    out.digest = fnv1a(partition);
    return out;
  }

  mr::Engine engine_;
  mr::Hierarchy classify_h_;
  std::vector<EnumQuery> queries_;
  EnumQuery warm_;
};

}  // namespace

std::unique_ptr<Workload> make_enumerate(std::uint64_t seed) {
  return std::make_unique<EnumerateWorkload>(seed);
}

}  // namespace perfbench
