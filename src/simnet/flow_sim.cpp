#include "mixradix/simnet/flow_sim.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "mixradix/util/expect.hpp"

namespace mr::simnet {
namespace {
// Tolerated backwards clock jitter in advance_to.
constexpr double kTimeEpsilon = 1e-15;
constexpr double kInf = std::numeric_limits<double>::infinity();

// Min-heap order over HeapEntry deadlines for the std heap algorithms.
constexpr auto heap_later = [](const auto& a, const auto& b) {
  return a.deadline > b.deadline;
};
}  // namespace

FlowSim::FlowSim(std::vector<double> capacities, double completion_slack) {
  reset(capacities, completion_slack);
}

void FlowSim::reset(const std::vector<double>& capacities,
                    double completion_slack, bool incremental) {
  for (double c : capacities) {
    MR_EXPECT(c > 0, "channel capacity must be positive");
  }
  MR_EXPECT(completion_slack >= 0 && completion_slack < 0.5,
            "completion slack must be in [0, 0.5)");
  capacities_.assign(capacities.begin(), capacities.end());
  completion_slack_ = completion_slack;
  incremental_ = incremental;

  const std::size_t nc = capacities_.size();
  residual_.resize(nc);
  load_.assign(nc, 0);
  used_.assign(nc, 0.0);
  nflows_.assign(nc, 0);
  freed_.assign(nc, 0.0);
  // Keep the per-channel lists (and their heap blocks) alive across runs;
  // only their contents reset.
  if (by_channel_.size() > nc) by_channel_.resize(nc);
  for (auto& list : by_channel_) list.clear();
  by_channel_.resize(nc);

  remaining_.clear();
  rate_.clear();
  deadline_.clear();
  user_.clear();
  ext_id_.clear();
  chans_.clear();
  heap_key_.clear();
  ext_index_.clear();
  ext_rate_.clear();
  heap_.clear();
  heap_live_ = false;
  batch_.clear();

  now_ = 0;
  rates_dirty_ = true;
  batches_since_full_ = 0;
  stats_ = Stats{};
}

double FlowSim::current_remaining(std::size_t index) const {
  const double r = rate_[index];
  if (r == 0) return remaining_[index];  // never allocated: nothing drained
  if (std::isinf(r)) return 0.0;
  return std::max(0.0, r * (deadline_[index] - now_));
}

void FlowSim::assign_rate(std::size_t index, double rate) {
  remaining_[index] = current_remaining(index);
  rate_[index] = rate;
  deadline_[index] =
      std::isinf(rate) ? now_ : now_ + remaining_[index] / rate;
  // A later deadline (every steal victim's) keeps the flow's earlier heap
  // entry: it is still a lower bound, re-keyed when it surfaces.
  if (incremental_ && (!heap_live_ || deadline_[index] < heap_key_[index])) {
    heap_push(index);
  }
}

void FlowSim::heap_push(std::size_t index) {
  // In the scan regime the heap is not consulted: skip the push and mark
  // the index stale so the first push back in the many-flow regime
  // rebuilds it over the live flows.
  if (remaining_.size() <= kScanFlows) {
    heap_live_ = false;
    return;
  }
  // Stale entries (flows gone, deadlines superseded) accumulate until they
  // dominate, then one rebuild over the live flows resets the heap.
  if (!heap_live_ || heap_.size() > 4 * remaining_.size() + 64) {
    heap_.clear();
    for (std::size_t i = 0; i < remaining_.size(); ++i) {
      heap_key_[i] = deadline_[i];
      if (deadline_[i] < kInf) heap_.push_back({deadline_[i], ext_id_[i]});
    }
    std::make_heap(heap_.begin(), heap_.end(), heap_later);
    heap_live_ = true;
    return;  // `index` is live, so the rebuild already indexed it
  }
  heap_insert(index);
}

void FlowSim::heap_insert(std::size_t index) {
  heap_key_[index] = deadline_[index];
  heap_.push_back({deadline_[index], ext_id_[index]});
  std::push_heap(heap_.begin(), heap_.end(), heap_later);
}

void FlowSim::heap_pop() {
  std::pop_heap(heap_.begin(), heap_.end(), heap_later);
  heap_.pop_back();
}

void FlowSim::heap_rekey(std::size_t index, double popped) {
  // Only the flow's key entry moves to its deadline; an older entry above
  // the key is stale and simply dropped.
  if (heap_key_[index] == popped) heap_insert(index);
}

std::int64_t FlowSim::add_flow(std::vector<ChannelId> channels, double bytes,
                               std::int64_t user) {
  std::sort(channels.begin(), channels.end());
  channels.erase(std::unique(channels.begin(), channels.end()), channels.end());
  MR_EXPECT(channels.size() <= static_cast<std::size_t>(kMaxChannelsPerFlow),
            "flow crosses more channels than supported");
  ChanSet set;
  for (ChannelId c : channels) {
    MR_EXPECT(c >= 0 && static_cast<std::size_t>(c) < capacities_.size(),
              "channel id out of range");
    set.ids[static_cast<std::size_t>(set.count++)] = c;
  }
  return add_flow(set, bytes, user);
}

std::int64_t FlowSim::add_interned(const ChanSet& channels, double bytes,
                                   std::int64_t user) {
  MR_EXPECT(bytes >= 0, "flow size must be non-negative");
  MR_ASSERT_INTERNAL(channels.count >= 0 &&
                     channels.count <= simnet::kMaxChannelsPerFlow);
  const auto ext = static_cast<std::int64_t>(ext_index_.size());
  ext_index_.push_back(static_cast<std::int64_t>(remaining_.size()) + 1);
  ext_rate_.push_back(0.0);
  remaining_.push_back(bytes);
  rate_.push_back(0.0);
  deadline_.push_back(kInf);
  user_.push_back(user);
  ext_id_.push_back(ext);
  chans_.push_back(channels);
  heap_key_.push_back(kInf);
  stats_.peak_active_flows =
      std::max(stats_.peak_active_flows,
               static_cast<std::int64_t>(remaining_.size()));
  for (std::int32_t k = 0; k < channels.count; ++k) {
    const auto ci =
        static_cast<std::size_t>(channels.ids[static_cast<std::size_t>(k)]);
    MR_ASSERT_INTERNAL(ci < capacities_.size());
    ++nflows_[ci];
    auto& list = by_channel_[ci];
    // Lazy compaction: purge completed entries once they dominate.
    if (list.size() > 8 && list.size() > 4 * static_cast<std::size_t>(nflows_[ci])) {
      std::erase_if(list, [&](std::int64_t e) {
        return ext_index_[static_cast<std::size_t>(e)] == 0;
      });
    }
    list.push_back(ext);
  }
  if (!try_defer_allocation(remaining_.size() - 1)) {
    rates_dirty_ = true;
  }
  return ext;
}

// Deferred allocation: in steady-state traffic (rings, pipelines) each
// completed flow frees exactly the headroom its successor needs, so a full
// max-min recompute per event is wasted work. When completion slack is
// enabled, a new flow may simply grab the available headroom on its path —
// provided that headroom is within 10% of its estimated fair share, so a
// congestion shift still forces the exact recomputation. Deferred rates
// are always feasible (never exceed residual capacity); periodic full
// recomputes (every kMaxDeferredBatches pop batches) restore exact
// max-min fairness.
bool FlowSim::try_defer_allocation(std::size_t index) {
  if (completion_slack_ <= 0 || rates_dirty_) return false;
  const ChanSet& set = chans_[index];
  if (set.count == 0) {
    assign_rate(index, kInf);
    return true;
  }
  double headroom = kInf;
  double fair = kInf;
  for (std::int32_t k = 0; k < set.count; ++k) {
    const auto ci = static_cast<std::size_t>(set.ids[static_cast<std::size_t>(k)]);
    headroom = std::min(headroom, capacities_[ci] - used_[ci]);
    fair = std::min(fair, capacities_[ci] / nflows_[ci]);
  }
  if (!(headroom >= 0.9 * fair) || headroom <= 0) {
    if (steal_allocation(index, fair)) return true;
    ++stats_.deferred_rejections;
    return false;
  }
  ++stats_.deferred_allocations;
  assign_rate(index, headroom);
  for (std::int32_t k = 0; k < set.count; ++k) {
    const auto ci = static_cast<std::size_t>(set.ids[static_cast<std::size_t>(k)]);
    used_[ci] += headroom;
    freed_[ci] = std::max(0.0, freed_[ci] - headroom);
  }
  return true;
}

// Steal fallback for deferred allocation: when the freed headroom is not
// enough (consecutive pipeline rounds overlap in flight), give the new
// flow its estimated fair share and proportionally scale down the victims
// on each oversubscribed channel. Rates stay feasible (to within the 1%
// scale floor that keeps every flow draining), conservative, and the
// periodic exact recomputation erases the approximation. Refuses when a
// channel has too many victims — then the exact pass is worth its cost.
bool FlowSim::steal_allocation(std::size_t index, double fair) {
  const ChanSet& set = chans_[index];
  for (std::int32_t k = 0; k < set.count; ++k) {
    const auto ci = static_cast<std::size_t>(set.ids[static_cast<std::size_t>(k)]);
    if (used_[ci] + fair > capacities_[ci] && nflows_[ci] > 64) return false;
  }
  for (std::int32_t k = 0; k < set.count; ++k) {
    const auto ci = static_cast<std::size_t>(set.ids[static_cast<std::size_t>(k)]);
    const double over = used_[ci] + fair - capacities_[ci];
    if (over <= 0 || used_[ci] <= 0) continue;
    const double scale =
        std::max(0.01, (capacities_[ci] - fair) / used_[ci]);
    if (scale >= 1) continue;
    for (std::int64_t ext : by_channel_[ci]) {
      const std::int64_t slot = ext_index_[static_cast<std::size_t>(ext)];
      if (slot == 0) continue;  // completed
      const auto f = static_cast<std::size_t>(slot - 1);
      if (f == index || std::isinf(rate_[f])) continue;
      const double delta = rate_[f] * (1 - scale);
      if (delta <= 0) continue;
      assign_rate(f, rate_[f] - delta);
      const ChanSet& vs = chans_[f];
      for (std::int32_t j = 0; j < vs.count; ++j) {
        const auto cj = static_cast<std::size_t>(vs.ids[static_cast<std::size_t>(j)]);
        used_[cj] = std::max(0.0, used_[cj] - delta);
      }
    }
  }
  assign_rate(index, fair);
  for (std::int32_t k = 0; k < set.count; ++k) {
    const auto ci = static_cast<std::size_t>(set.ids[static_cast<std::size_t>(k)]);
    used_[ci] += fair;
    freed_[ci] = std::max(0.0, freed_[ci] - fair);
  }
  ++stats_.steals;
  return true;
}

void FlowSim::recompute_rates() {
  if (!rates_dirty_) return;
  ++stats_.full_recomputes;
  rates_dirty_ = false;
  const std::size_t n = remaining_.size();

  // Touched channels in first-touch order over the active slots (the order
  // decides, under the slack bound, which channels freeze at each level),
  // each loaded with its active flow count.
  touched_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const ChanSet& set = chans_[i];
    for (std::int32_t k = 0; k < set.count; ++k) {
      const auto ci = static_cast<std::size_t>(set.ids[static_cast<std::size_t>(k)]);
      if (load_[ci] == 0) {
        touched_.push_back(set.ids[static_cast<std::size_t>(k)]);
        load_[ci] = nflows_[ci];
        residual_[ci] = capacities_[ci];
      }
    }
  }

  // New rates build up in scratch so that a flow whose fair share did NOT
  // change keeps its remaining/deadline state untouched (no re-projection,
  // no rounding drift, no heap churn).
  newrate_.resize(n);
  std::size_t unfrozen = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (chans_[i].count == 0) {
      newrate_[i] = kInf;
    } else {
      newrate_[i] = -1.0;  // marker: not yet frozen
      ++unfrozen;
    }
  }

  // Progressive filling, level by level. Each pass finds the global
  // minimum fair share s and freezes the flows of EVERY channel tied at s:
  // freezing the flows of one bottleneck only ever raises the share of the
  // others ((R - s)/(n - 1) >= R/n when s is the global minimum), so ties
  // stay ties and strictly-larger channels stay above s. The number of
  // passes equals the number of distinct bottleneck levels, which for
  // collective traffic is small (one per congestion class), keeping the
  // whole recompute at O(levels * touched + flow-channel incidences).
  // `alive` is the compacted working set of channels still carrying
  // unfrozen flows; saturated channels are swap-removed so later passes
  // scan progressively fewer entries.
  std::vector<ChannelId>& alive = touched_scan_;
  alive = touched_;
  while (unfrozen > 0) {
    double s = kInf;
    for (std::size_t w = 0; w < alive.size();) {
      const auto ci = static_cast<std::size_t>(alive[w]);
      if (load_[ci] == 0) {
        alive[w] = alive.back();
        alive.pop_back();
        continue;
      }
      s = std::min(s, residual_[ci] / load_[ci]);
      ++w;
    }
    MR_ASSERT_INTERNAL(std::isfinite(s));
    const double bound = s * (1 + std::max(1e-12, completion_slack_));
    for (ChannelId c : alive) {
      const auto ci = static_cast<std::size_t>(c);
      if (load_[ci] == 0 || residual_[ci] / load_[ci] > bound) continue;
      // Every flow frozen in this pass gets the same s, so the order of
      // the channel's list does not matter.
      for (std::int64_t ext : by_channel_[ci]) {
        const std::int64_t slot = ext_index_[static_cast<std::size_t>(ext)];
        if (slot == 0) continue;  // completed
        const auto f = static_cast<std::size_t>(slot - 1);
        if (newrate_[f] >= 0) continue;  // already frozen
        newrate_[f] = s;
        --unfrozen;
        const ChanSet& set = chans_[f];
        for (std::int32_t k = 0; k < set.count; ++k) {
          const auto c2i =
              static_cast<std::size_t>(set.ids[static_cast<std::size_t>(k)]);
          residual_[c2i] = std::max(0.0, residual_[c2i] - s);
          --load_[c2i];
        }
        if (load_[ci] == 0) break;  // the rest are frozen or completed
      }
    }
  }

  // Apply only the rates that actually changed — everything else keeps its
  // projected deadline, which is what keeps the completion heap lazy.
  for (std::size_t i = 0; i < n; ++i) {
    if (newrate_[i] != rate_[i]) assign_rate(i, newrate_[i]);
  }

  // Rebuild the incremental headroom bookkeeping used by deferred
  // allocation, and reset the load scratch. The filling loop already
  // maintained residual = capacity - allocated per channel, so the used
  // capacity falls out of it — no second pass over the flow-channel
  // incidences.
  for (ChannelId c : touched_) {
    const auto ci = static_cast<std::size_t>(c);
    load_[ci] = 0;
    used_[ci] = capacities_[ci] - residual_[ci];
    freed_[ci] = 0;
  }
}

std::optional<double> FlowSim::next_completion_time() {
  if (remaining_.empty()) return std::nullopt;
  recompute_rates();
  if (!incremental_ || remaining_.size() <= kScanFlows || !heap_live_) {
    // Reference mode and the few-flow regime: O(active flows) scan. min()
    // over doubles is exact, so the scan and the heap below yield the
    // same double.
    double best = kInf;
    const std::size_t n = remaining_.size();
    for (std::size_t i = 0; i < n; ++i) {
      MR_ASSERT_INTERNAL(rate_[i] > 0);  // recompute allocated every flow
      best = std::min(best, deadline_[i]);
    }
    return std::max(now_, best);
  }
  while (!heap_.empty()) {
    const HeapEntry top = heap_.front();
    const std::int64_t slot = ext_index_[static_cast<std::size_t>(top.ext)];
    if (slot != 0 &&
        deadline_[static_cast<std::size_t>(slot - 1)] == top.deadline) {
      return std::max(now_, top.deadline);
    }
    heap_pop();
    if (slot != 0) heap_rekey(static_cast<std::size_t>(slot - 1), top.deadline);
  }
  MR_ASSERT_INTERNAL(false);  // every active flow has a live heap entry
  return std::nullopt;
}

void FlowSim::advance_to(double t) {
  MR_EXPECT(t >= now_ - kTimeEpsilon, "cannot advance backwards");
  recompute_rates();
  // The drain is implicit: every allocated flow carries its absolute
  // deadline, so moving the clock is all that is needed.
  now_ = std::max(now_, t);
}

void FlowSim::remove_active(std::size_t index) {
  const ChanSet& set = chans_[index];
  if (!std::isinf(rate_[index])) {
    for (std::int32_t k = 0; k < set.count; ++k) {
      const auto ci = static_cast<std::size_t>(set.ids[static_cast<std::size_t>(k)]);
      used_[ci] = std::max(0.0, used_[ci] - rate_[index]);
      --nflows_[ci];
      // Freed capacity that no successor grabs must eventually be handed
      // to the surviving flows: once a quarter of a channel sits idle,
      // force the exact recomputation.
      freed_[ci] += rate_[index];
      // Only surviving flows can profit from the freed share; an empty
      // channel needs no redistribution.
      if (nflows_[ci] > 0 && freed_[ci] > 0.4 * capacities_[ci]) {
        rates_dirty_ = true;
      }
    }
  } else {
    for (std::int32_t k = 0; k < set.count; ++k) {
      --nflows_[static_cast<std::size_t>(set.ids[static_cast<std::size_t>(k)])];
    }
  }
  const std::size_t last = remaining_.size() - 1;
  ext_rate_[static_cast<std::size_t>(ext_id_[index])] = rate_[index];
  ext_index_[static_cast<std::size_t>(ext_id_[index])] = 0;
  if (index != last) {
    remaining_[index] = remaining_[last];
    rate_[index] = rate_[last];
    deadline_[index] = deadline_[last];
    user_[index] = user_[last];
    ext_id_[index] = ext_id_[last];
    chans_[index] = chans_[last];
    heap_key_[index] = heap_key_[last];
    ext_index_[static_cast<std::size_t>(ext_id_[index])] =
        static_cast<std::int64_t>(index) + 1;
  }
  remaining_.pop_back();
  rate_.pop_back();
  deadline_.pop_back();
  user_.pop_back();
  ext_id_.pop_back();
  chans_.pop_back();
  heap_key_.pop_back();
}

std::vector<Completion> FlowSim::advance_and_pop() {
  ++stats_.pop_batches;
  std::vector<Completion> done;
  const auto t = next_completion_time();
  MR_EXPECT(t.has_value(), "no active flows to advance to");
  const double before = now_;
  advance_to(*t);
  // Completion-slack batching: flows whose residual transfer time is within
  // slack * elapsed-horizon finish in this batch, slightly early.
  const double merge_window = completion_slack_ * (now_ - before);
  const double threshold = now_ + merge_window;
  batch_.clear();
  if (!incremental_ || remaining_.size() <= kScanFlows || !heap_live_) {
    // Reference mode and the few-flow regime: backwards scan, exactly the
    // swap-removal-safe order.
    for (std::size_t i = remaining_.size(); i-- > 0;) {
      if (deadline_[i] <= threshold) batch_.push_back(i);
    }
  } else {
    // Every flow due by `threshold` has an entry keyed at or below it, so
    // it surfaces here; a key entry whose flow is not due yet is re-keyed
    // to the flow's deadline, above the threshold.
    while (!heap_.empty() && heap_.front().deadline <= threshold) {
      const HeapEntry top = heap_.front();
      heap_pop();
      const std::int64_t slot = ext_index_[static_cast<std::size_t>(top.ext)];
      if (slot == 0) continue;  // completed
      const auto f = static_cast<std::size_t>(slot - 1);
      if (deadline_[f] <= threshold) {
        batch_.push_back(f);
      } else {
        heap_rekey(f, top.deadline);
      }
    }
    // Match the reference scan bit for bit: complete in descending slot
    // order (this is also what makes the interleaved swap-removal safe),
    // one completion per flow even if it surfaced through several entries.
    std::sort(batch_.begin(), batch_.end(), std::greater<>{});
    batch_.erase(std::unique(batch_.begin(), batch_.end()), batch_.end());
  }
  for (std::size_t i : batch_) {
    done.push_back(Completion{ext_id_[i], user_[i], now_});
    remove_active(i);
  }
  MR_ASSERT_INTERNAL(!done.empty());
  if (completion_slack_ <= 0 || ++batches_since_full_ >= kMaxDeferredBatches) {
    batches_since_full_ = 0;
    rates_dirty_ = true;
  }
  return done;
}

double FlowSim::flow_rate(std::int64_t flow) {
  MR_EXPECT(flow >= 0 && static_cast<std::size_t>(flow) < ext_index_.size(),
            "unknown flow");
  recompute_rates();
  const std::int64_t idx = ext_index_[static_cast<std::size_t>(flow)];
  if (idx == 0) return ext_rate_[static_cast<std::size_t>(flow)];
  return rate_[static_cast<std::size_t>(idx - 1)];
}

}  // namespace mr::simnet
