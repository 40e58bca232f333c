#include "mixradix/verify/binding.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <sstream>
#include <type_traits>
#include <utility>
#include <vector>

#include "mixradix/simnet/path.hpp"
#include "mixradix/util/expect.hpp"

namespace mr::verify::binding {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Diagnostic accumulator that prefixes "job k:" when several jobs are
/// analyzed, mirroring the run_timed job indexing. A quiet sink (null
/// report) formats nothing and only records that a finding occurred: the
/// workspace fast path uses one and re-runs the full analysis for text.
class Sink {
 public:
  Sink(Report* report, bool multi_job) : report_(report), multi_(multi_job) {}

  void job(int j) { job_ = j; }
  bool flagged() const { return flagged_; }

  template <typename... Parts>
  void error(std::int32_t rank, int round, std::int32_t msg, Parts&&... parts) {
    add(Severity::Error, rank, round, msg, std::forward<Parts>(parts)...);
  }
  template <typename... Parts>
  void warn(std::int32_t rank, int round, std::int32_t msg, Parts&&... parts) {
    add(Severity::Warning, rank, round, msg, std::forward<Parts>(parts)...);
  }

 private:
  template <typename... Parts>
  void add(Severity severity, std::int32_t rank, int round, std::int32_t msg,
           Parts&&... parts) {
    flagged_ = true;
    if (report_ == nullptr) {
      return;
    }
    std::ostringstream os;
    if (multi_ && job_ >= 0) {
      os << "job " << job_ << ": ";
    }
    (os << ... << parts);
    report_->diagnostics.push_back(
        {severity, Check::Binding, rank, round, msg, os.str()});
  }

  Report* report_ = nullptr;
  bool multi_ = false;
  int job_ = 0;
  bool flagged_ = false;
};

/// The route facts the check and the bound read. A message's route is fixed
/// by its divergence level fd, the outermost level where its endpoints'
/// components differ (fd == depth for a self-message): it climbs every
/// level in [fd, depth) on both sides and reads both endpoints' memory
/// controllers, once where they are shared (levels above fd). So these
/// facts form one small table indexed by fd. Unlike the simulator's
/// RouteTable, which asserts on malformed routes, defects are recorded so
/// the caller can surface a located diagnostic instead of aborting.
struct LevelRoute {
  double latency = 0;
  double cap_min = kInf;  ///< min capacity over channels; inf for self.
  int raw_size = 0;       ///< deduped channel count, even when too deep.
  bool too_deep = false;  ///< route exceeds kMaxChannelsPerFlow.
};

double round_cpu_time(const simmpi::PlanExec& exec,
                      const topo::MessagingCosts& costs, std::int64_t round) {
  const auto i = static_cast<std::size_t>(round);
  double cpu = exec.round_compute[i];
  cpu += costs.send_overhead *
         static_cast<double>(exec.send_begin[i + 1] - exec.send_begin[i]);
  cpu += costs.recv_overhead *
         static_cast<double>(exec.recv_begin[i + 1] - exec.recv_begin[i]);
  cpu += static_cast<double>(exec.round_copy_doubles[i]) * 8.0 *
         costs.reduce_seconds_per_byte;
  return cpu;
}

/// The earliest channel entry and the total bytes of a set of messages:
/// combined by min and exact int64 sum, so in any grouping or order.
struct Traffic {
  double entry = kInf;
  std::int64_t bytes = 0;

  void add(const Traffic& other) {
    entry = std::min(entry, other.entry);
    bytes += other.bytes;
  }
};

/// One critical-path DP and its channel inputs, shared by every job with
/// the same plan, repetitions, start time and per-message fd sequence: the
/// DP reads only those, so AllComms jobs, which are translates of one
/// another, run it once. The channel inputs are kept per (rank, level) as
/// prefixes over fd: cell (r, k) holds the earliest entry and the total
/// bytes of rank r's sends (receives) whose fd is <= k, i.e. exactly the
/// messages that cross r's egress (ingress) channel at level k.
struct Shape {
  const simmpi::Schedule* schedule = nullptr;
  const simmpi::PlanExec* exec = nullptr;
  int repetitions = 1;
  double start_time = 0;
  std::size_t fd_begin = 0;  ///< the first such job's fds in msg_fd.
  double critical_path = 0;
  std::vector<Traffic> send;  ///< [rank * depth + level].
  std::vector<Traffic> recv;
  std::vector<std::uint8_t> send_lo;  ///< per rank: lowest fd sent, or depth.
  std::vector<std::uint8_t> recv_lo;  ///< per rank: lowest fd received.
};

}  // namespace

/// Everything an analysis allocates, kept across calls: the machine's
/// per-level tables, channel capacities and every flat buffer of the
/// checks and the kernel.
struct Workspace::Impl {
  explicit Impl(const topo::Machine& m) : machine(&m), depth(m.depth()) {
    const auto d = static_cast<std::size_t>(depth);
    radix.resize(d);
    chan_base.resize(d);
    double mem_cap = kInf;
    for (int k = 0; k < depth; ++k) {
      radix[static_cast<std::size_t>(k)] = m.hierarchy().radix(k);
      chan_base[static_cast<std::size_t>(k)] = 3 * m.component_id(k, 0);
      if (m.level(k).mem_bandwidth > 0) {
        mem_levels.push_back(k);
        mem_cap = std::min(mem_cap, m.level(k).mem_bandwidth);
      }
    }
    // Each fd's route extends fd + 1's by level fd's two link sides. Every
    // memory controller caps every route; one above fd is shared by both
    // endpoints and counted once (FlowSim's dedupe), one at or below fd
    // twice.
    route.resize(d + 1);
    route[d].latency = m.costs().base_latency;
    double lat_suffix = 0;
    double link_cap = kInf;
    int mem_below = 0;  ///< memory levels at or below k.
    for (int k = depth - 1; k >= 0; --k) {
      lat_suffix += 2.0 * m.level(k).link_latency;
      link_cap = std::min(link_cap, m.level(k).link_bandwidth);
      mem_below += m.level(k).mem_bandwidth > 0 ? 1 : 0;
      LevelRoute& rf = route[static_cast<std::size_t>(k)];
      rf.latency = m.costs().base_latency + lat_suffix;
      rf.cap_min = std::min(link_cap, mem_cap);
      rf.raw_size = 2 * (depth - k) +
                    static_cast<int>(mem_levels.size()) + mem_below;
      rf.too_deep = rf.raw_size > simnet::kMaxChannelsPerFlow;
    }
  }

  /// Per-level components of `core` (core / leaves-below), one small-radix
  /// division per level: the leaf component IS the core, and each outer
  /// component is the inner one divided by the inner level's radix.
  void components(std::int64_t core, std::int64_t* out) const {
    out[depth - 1] = core;
    for (int k = depth - 2; k >= 0; --k) {
      out[k] = out[k + 1] / radix[static_cast<std::size_t>(k) + 1];
    }
  }

  /// Calls f(channel) for each channel of the route between cores with
  /// components `src` and `dst` diverging at fd: the simnet::flow_channels
  /// set, deduplicated.
  template <typename F>
  void for_each_channel(const std::int64_t* src, const std::int64_t* dst,
                        int fd, F&& f) const {
    for (int k = fd; k < depth; ++k) {
      const std::int64_t base = chan_base[static_cast<std::size_t>(k)];
      f(static_cast<simnet::ChannelId>(base + 3 * src[k]));
      f(static_cast<simnet::ChannelId>(base + 3 * dst[k] + 1));
    }
    for (const int k : mem_levels) {
      const std::int64_t base = chan_base[static_cast<std::size_t>(k)];
      f(static_cast<simnet::ChannelId>(base + 3 * src[k] + 2));
      if (k >= fd) {
        f(static_cast<simnet::ChannelId>(base + 3 * dst[k] + 2));
      }
    }
  }

  const topo::Machine* machine;
  int depth;
  std::vector<std::int64_t> radix;      ///< per-level radix.
  std::vector<std::int64_t> chan_base;  ///< 3 * component_id(level, 0).
  std::vector<int> mem_levels;          ///< levels with a memory model.
  std::vector<LevelRoute> route;        ///< route facts by fd, [0, depth].
  std::vector<double> capacities;  ///< simnet::channel_capacities, lazily.

  // Check phase, all jobs back to back: each rank's per-level components
  // (job j's from comp_base[j]) and each message's fd (from msg_base[j]).
  std::vector<std::int64_t> comp;
  std::vector<std::size_t> comp_base;
  std::vector<std::uint8_t> msg_fd;
  std::vector<std::size_t> msg_base;
  std::vector<std::int64_t> sorted_cores;  ///< duplicate-core scratch.

  // Kernel, per plan: each round's CPU cost and its DP predecessor —
  // gi - 1 inside a rank, or -1 - (the rank's last round) for a rank's
  // first round (its predecessor is the previous repetition's last round).
  std::vector<double> round_cpu;
  std::vector<std::int64_t> round_link;
  // Kernel, per shape: transfer floor per message, the DP values of one
  // repetition and each round's repetition-0 READY time.
  std::vector<double> floor;
  std::vector<double> finish;
  std::vector<double> inbound;
  std::vector<double> ready0;
  // The shapes of the current analysis; the first `nshapes` are live, the
  // rest keep their buffers for the next call.
  std::vector<Shape> shapes;
  std::size_t nshapes = 0;
  // Channel-serialization inputs over all jobs; only touched entries are
  // ever non-default, and they are reset after each analysis.
  std::vector<Traffic> chan;
  std::vector<simnet::ChannelId> chan_touched;

  void ensure_channels() {
    if (capacities.empty()) {
      capacities = simnet::channel_capacities(*machine);
      chan.assign(capacities.size(), Traffic{});
    }
  }
};

namespace {

/// Validate one job's binding and resolve its ranks' components into
/// w.comp and its messages' divergence levels into w.msg_fd; returns false
/// when later phases must not trust its
/// indices. The plan's own CSR checks (message rounds, malformed ops) were
/// made once by simmpi::derive_exec; only their verdicts are read here.
bool check_job(Workspace::Impl& w, const JobBinding& job, Sink& sink) {
  const topo::Machine& machine = *w.machine;
  if (job.schedule == nullptr || job.exec == nullptr ||
      job.core_of_rank == nullptr) {
    sink.error(-1, -1, -1, "job is missing its ",
               job.schedule == nullptr  ? "schedule"
               : job.exec == nullptr    ? "execution structure"
                                        : "core_of_rank binding");
    return false;
  }
  const simmpi::Schedule& sched = *job.schedule;
  const simmpi::PlanExec& exec = *job.exec;
  const std::vector<std::int64_t>& cores = *job.core_of_rank;
  bool ok = true;

  if (job.repetitions < 1) {
    sink.error(-1, -1, -1, "repetitions must be >= 1, got ", job.repetitions);
    ok = false;
  }
  if (!std::isfinite(job.start_time) || job.start_time < 0) {
    sink.error(-1, -1, -1, "start_time must be finite and >= 0, got ",
               job.start_time);
    ok = false;
  }
  if (cores.size() != static_cast<std::size_t>(sched.nranks)) {
    sink.error(-1, -1, -1, "core_of_rank has ", cores.size(),
               " entries for ", sched.nranks, " ranks");
    return false;
  }
  for (std::int32_t r = 0; r < sched.nranks; ++r) {
    const std::int64_t core = cores[static_cast<std::size_t>(r)];
    if (core < 0 || core >= machine.cores()) {
      sink.error(r, -1, -1, "rank ", r, " is bound to core ", core,
                 " outside machine '", machine.name(), "' with ",
                 machine.cores(), " cores");
      ok = false;
    }
  }
  if (!ok) {
    return false;
  }
  {
    // Two ranks sharing a core is legal (latency-only self routes) but is
    // almost always a mapping-generator bug worth surfacing.
    w.sorted_cores.assign(cores.begin(), cores.end());
    std::sort(w.sorted_cores.begin(), w.sorted_cores.end());
    const auto dup =
        std::adjacent_find(w.sorted_cores.begin(), w.sorted_cores.end());
    if (dup != w.sorted_cores.end()) {
      sink.warn(-1, -1, -1, "two ranks share core ", *dup,
                "; their traffic is modelled latency-only");
    }
  }
  // The TimedExecutor shifts message ids by rep * messages_per_rep in
  // int32 arithmetic; overflow would alias messages across repetitions.
  const auto msgs_per_rep = static_cast<std::int64_t>(sched.messages.size());
  if (msgs_per_rep * job.repetitions >
      static_cast<std::int64_t>(std::numeric_limits<std::int32_t>::max())) {
    sink.error(-1, -1, -1, "repetitions * messages (", job.repetitions, " * ",
               msgs_per_rep, ") overflows the 32-bit message id space");
    return false;
  }
  if (exec.msg_bytes.size() != sched.messages.size() ||
      exec.msg_send_round.size() != sched.messages.size() ||
      exec.rank_rounds_begin.size() !=
          static_cast<std::size_t>(sched.nranks) + 1) {
    sink.error(-1, -1, -1,
               "execution structure does not match the schedule (",
               exec.msg_bytes.size(), " vs ", sched.messages.size(),
               " messages, ", exec.rank_rounds_begin.size(), " vs ",
               sched.nranks + 1, " rank offsets); was it derived from a "
               "different plan?");
    return false;
  }
  if (exec.malformed_ops > 0) {
    sink.error(-1, -1, -1, "execution structure has ", exec.malformed_ops,
               " ops naming a message outside [0, ", sched.messages.size(),
               ") or sending/receiving a message twice");
    return false;
  }

  // Every rank's per-level components, then every message's fd: the
  // outermost level where its endpoints' components differ.
  const auto depth = static_cast<std::size_t>(w.depth);
  const std::size_t comp0 = w.comp.size();
  w.comp.resize(comp0 + cores.size() * depth);
  for (std::size_t r = 0; r < cores.size(); ++r) {
    w.components(cores[r], w.comp.data() + comp0 + r * depth);
  }
  const std::int64_t* comp = w.comp.data() + comp0;
  for (std::size_t m = 0; m < sched.messages.size(); ++m) {
    const simmpi::MsgInfo& info = sched.messages[m];
    const auto msg_id = static_cast<std::int32_t>(m);
    const std::int64_t send_gi = exec.msg_send_round[m];
    const std::int64_t recv_gi = exec.msg_recv_round[m];
    if (send_gi < 0 || recv_gi < 0) {
      sink.error(info.src, -1, msg_id, "message ", m,
                 " is never ", send_gi < 0 ? "sent" : "received",
                 " in the execution structure");
      ok = false;
      w.msg_fd.push_back(0);
      continue;
    }
    const std::int64_t* src = comp + static_cast<std::size_t>(info.src) * depth;
    const std::int64_t* dst = comp + static_cast<std::size_t>(info.dst) * depth;
    std::size_t fd = 0;
    while (fd < depth && src[fd] == dst[fd]) {
      ++fd;
    }
    w.msg_fd.push_back(static_cast<std::uint8_t>(fd));
    const LevelRoute& rf = w.route[fd];
    if (!rf.too_deep && rf.cap_min > 0) {
      continue;
    }
    // The simulator's RouteTable asserts (aborts) on these; report them as
    // analysis findings instead so a too-deep machine fails gracefully.
    const int send_round = static_cast<int>(
        send_gi - exec.rank_rounds_begin[static_cast<std::size_t>(info.src)]);
    if (rf.too_deep) {
      sink.error(info.src, send_round, msg_id, "route crosses ", rf.raw_size,
                 " channels, above the simulator limit of ",
                 simnet::kMaxChannelsPerFlow);
    } else {
      sink.error(info.src, send_round, msg_id,
                 "route bottleneck capacity is ", rf.cap_min,
                 "; transfers would never complete");
    }
    ok = false;
  }
  return ok;
}

/// One (channel, round, bytes) contribution; bucketed by channel with a
/// counting sort to aggregate without per-channel hash maps or a
/// comparison sort on the analyzer hot path.
struct ChannelTouch {
  simnet::ChannelId channel = -1;
  std::int32_t round = 0;
  std::int64_t bytes = 0;
};

void build_load_report(Workspace::Impl& w, const std::vector<JobBinding>& jobs,
                       int top_k, LoadReport& load) {
  const topo::Machine& machine = *w.machine;
  w.ensure_channels();
  const std::vector<double>& capacities = w.capacities;
  std::vector<ChannelTouch> touches;
  std::vector<double> round_straggler;  ///< slowest uncontended msg per round.
  // Per-channel totals over all jobs and repetitions, kept sparse via the
  // touched list so the flat arrays are only ever scanned where traffic is.
  std::vector<std::int64_t> chan_bytes(capacities.size(), 0);
  std::vector<std::int64_t> chan_flows(capacities.size(), 0);
  std::vector<simnet::ChannelId> touched;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const JobBinding& job = jobs[j];
    const simmpi::Schedule& sched = *job.schedule;
    const simmpi::PlanExec& exec = *job.exec;
    const auto reps = static_cast<std::int64_t>(job.repetitions);
    const auto depth = static_cast<std::size_t>(w.depth);
    const std::int64_t* comp = w.comp.data() + w.comp_base[j];
    for (std::size_t m = 0; m < sched.messages.size(); ++m) {
      const int fd = w.msg_fd[w.msg_base[j] + m];
      const LevelRoute& rf = w.route[static_cast<std::size_t>(fd)];
      const std::int64_t bytes = sched.messages[m].bytes();
      if (rf.raw_size == 0) {
        load.self_bytes += bytes * reps;
        continue;
      }
      load.total_bytes += bytes * reps;
      load.total_flows += reps;
      // Report rounds by the sender's local round index within one
      // repetition — the axis schedules are written along.
      const std::int64_t round =
          exec.msg_send_round[m] -
          exec.rank_rounds_begin[static_cast<std::size_t>(
              sched.messages[m].src)];
      if (round >= static_cast<std::int64_t>(load.rounds.size())) {
        load.rounds.resize(static_cast<std::size_t>(round) + 1);
        round_straggler.resize(static_cast<std::size_t>(round) + 1, 0.0);
      }
      RoundLoad& rl = load.rounds[static_cast<std::size_t>(round)];
      rl.bytes += bytes;
      rl.flows += 1;
      round_straggler[static_cast<std::size_t>(round)] =
          std::max(round_straggler[static_cast<std::size_t>(round)],
                   static_cast<double>(bytes) / rf.cap_min);
      const simmpi::MsgInfo& info = sched.messages[m];
      w.for_each_channel(
          comp + static_cast<std::size_t>(info.src) * depth,
          comp + static_cast<std::size_t>(info.dst) * depth, fd,
          [&](simnet::ChannelId c) {
            if (chan_flows[static_cast<std::size_t>(c)] == 0) {
              touched.push_back(c);
            }
            chan_bytes[static_cast<std::size_t>(c)] += bytes * reps;
            chan_flows[static_cast<std::size_t>(c)] += reps;
            touches.push_back({c, static_cast<std::int32_t>(round), bytes});
          });
    }
  }
  for (std::size_t r = 0; r < load.rounds.size(); ++r) {
    load.rounds[r].round = static_cast<std::int64_t>(r);
  }

  // Counting sort by channel: occurrence counts -> bucket offsets ->
  // scatter. O(touches + touched channels), no comparisons.
  std::sort(touched.begin(), touched.end());
  std::vector<std::int32_t> bucket_begin(touched.size() + 1, 0);
  std::vector<std::int32_t> bucket_of_channel(capacities.size(), -1);
  for (std::size_t t = 0; t < touched.size(); ++t) {
    bucket_of_channel[static_cast<std::size_t>(touched[t])] =
        static_cast<std::int32_t>(t);
  }
  for (const ChannelTouch& t : touches) {
    ++bucket_begin[static_cast<std::size_t>(
                       bucket_of_channel[static_cast<std::size_t>(t.channel)]) +
                   1];
  }
  for (std::size_t t = 1; t <= touched.size(); ++t) {
    bucket_begin[t] += bucket_begin[t - 1];
  }
  std::vector<ChannelTouch> bucketed(touches.size());
  {
    std::vector<std::int32_t> cursor(bucket_begin.begin(),
                                     bucket_begin.end() - 1);
    for (const ChannelTouch& t : touches) {
      const auto b = static_cast<std::size_t>(
          bucket_of_channel[static_cast<std::size_t>(t.channel)]);
      bucketed[static_cast<std::size_t>(cursor[b]++)] = t;
    }
  }

  // Per-round scratch, reset via the seen list after each channel.
  std::vector<std::int64_t> round_sum(load.rounds.size(), 0);
  std::vector<std::int32_t> rounds_seen;
  std::vector<ChannelLoad> ranked;
  ranked.reserve(touched.size());
  for (std::size_t t = 0; t < touched.size(); ++t) {
    const simnet::ChannelId id = touched[t];
    ChannelLoad cl;
    cl.channel = id;
    cl.bytes = chan_bytes[static_cast<std::size_t>(id)];
    cl.flows = chan_flows[static_cast<std::size_t>(id)];
    const double cap = capacities[static_cast<std::size_t>(id)];
    cl.serialization_seconds = static_cast<double>(cl.bytes) / cap;
    rounds_seen.clear();
    for (std::int32_t e = bucket_begin[t]; e < bucket_begin[t + 1]; ++e) {
      const ChannelTouch& touch = bucketed[static_cast<std::size_t>(e)];
      const auto r = static_cast<std::size_t>(touch.round);
      if (round_sum[r] == 0 && touch.bytes != 0) {
        rounds_seen.push_back(touch.round);
      }
      round_sum[r] += touch.bytes;
    }
    for (const std::int32_t round : rounds_seen) {
      const auto r = static_cast<std::size_t>(round);
      const std::int64_t bytes = round_sum[r];
      round_sum[r] = 0;
      const double straggler = round_straggler[r];
      if (straggler <= 0) {
        continue;
      }
      const double over = static_cast<double>(bytes) / cap / straggler;
      cl.oversubscription = std::max(cl.oversubscription, over);
      RoundLoad& rl = load.rounds[r];
      if (over > rl.max_oversubscription) {
        rl.max_oversubscription = over;
        rl.hottest = id;
      }
    }
    ranked.push_back(std::move(cl));
  }
  for (RoundLoad& rl : load.rounds) {
    if (rl.hottest >= 0) {
      rl.hottest_name = channel_name(machine, rl.hottest);
    }
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const ChannelLoad& a, const ChannelLoad& b) {
              if (a.serialization_seconds != b.serialization_seconds) {
                return a.serialization_seconds > b.serialization_seconds;
              }
              return a.channel < b.channel;
            });
  if (static_cast<int>(ranked.size()) > top_k) {
    ranked.resize(static_cast<std::size_t>(top_k));
  }
  // Names are built only for the channels that survived the cut.
  for (ChannelLoad& cl : ranked) {
    cl.name = channel_name(machine, cl.channel);
  }
  load.top_channels = std::move(ranked);
}

/// Per-plan kernel inputs: each round's CPU cost and DP predecessor link.
void prepare_plan(Workspace::Impl& w, const simmpi::PlanExec& exec) {
  const topo::MessagingCosts& costs = w.machine->costs();
  const auto nrounds = static_cast<std::size_t>(exec.rank_rounds_begin.back());
  w.round_cpu.resize(nrounds);
  w.round_link.resize(nrounds);
  for (std::size_t r = 0; r + 1 < exec.rank_rounds_begin.size(); ++r) {
    const std::int64_t first = exec.rank_rounds_begin[r];
    const std::int64_t end = exec.rank_rounds_begin[r + 1];
    for (std::int64_t gi = first; gi < end; ++gi) {
      w.round_link[static_cast<std::size_t>(gi)] =
          gi == first ? -1 - (end - 1) : gi - 1;
      w.round_cpu[static_cast<std::size_t>(gi)] =
          round_cpu_time(exec, costs, gi);
    }
  }
}

/// The critical-path DP over one job's (rank, virtual round) nodes, whose
/// messages diverge at levels `fd`: sets shape.critical_path and leaves
/// each round's repetition-0 READY time in w.ready0. Requires
/// prepare_plan(w, *job.exec) and an acyclic visit order.
///
/// Each node splits into a READY event (previous round finished + this
/// round's CPU cost) and a FINISH event (all posted ops complete). A
/// message constrains the receiver's FINISH by the sender's READY — not
/// its FINISH — which is what lets the ubiquitous same-round exchange
/// (a<->b sendrecv) stay acyclic: posts are non-blocking, only the
/// waitall orders rounds. Events are visited in the plan's
/// PlanExec::visit_order, once per repetition; one repetition of DP values
/// lives in flat per-round buffers (a round's inbound term is cleared when
/// its FINISH consumes it).
void critical_path_dp(Workspace::Impl& w, const JobBinding& job,
                      const std::uint8_t* fd, Shape& shape) {
  const simmpi::PlanExec& exec = *job.exec;
  const std::int64_t eager_threshold = w.machine->costs().eager_threshold;
  const std::int64_t nrounds = exec.rank_rounds_begin.back();
  const std::size_t nmsgs = exec.msg_bytes.size();
  w.floor.resize(nmsgs);
  for (std::size_t m = 0; m < nmsgs; ++m) {
    const LevelRoute& rf = w.route[fd[m]];
    w.floor[m] =
        rf.latency + static_cast<double>(exec.msg_bytes[m]) / rf.cap_min;
  }
  w.finish.resize(static_cast<std::size_t>(nrounds));
  w.inbound.assign(static_cast<std::size_t>(nrounds), 0.0);
  w.ready0.resize(static_cast<std::size_t>(nrounds));
  double* finish = w.finish.data();
  double* inbound = w.inbound.data();
  double* ready0 = w.ready0.data();
  const double* floor = w.floor.data();
  const std::int64_t* link = w.round_link.data();
  const std::int64_t reps = job.repetitions;
  double cp = 0.0;

  for (std::int64_t rep = 0; rep < reps; ++rep) {
    for (const std::int64_t event : exec.visit_order) {
      const auto gi = static_cast<std::size_t>(event / 2);
      const std::int64_t prev = link[gi];
      const double post = prev >= 0 ? finish[prev]
                          : rep == 0 ? job.start_time
                                     : finish[-1 - prev];
      if (event % 2 == 1) {
        // FINISH: all prerequisites delivered. NOT clamped to this round's
        // own ready: the engine completes an in-flight receive at transfer
        // time without waiting out the receiver's CPU serialisation, so a
        // recv-only round can finish before its own ready. The ready term
        // was merged into `inbound` at READY time exactly when the engine
        // guarantees it (eager sends complete at ready; op-less rounds
        // advance at ready).
        finish[gi] = std::max(post, inbound[gi]);
        inbound[gi] = 0.0;
        const bool last_round =
            gi + 1 == static_cast<std::size_t>(nrounds) || link[gi + 1] < 0;
        if (last_round && rep == reps - 1) {
          cp = std::max(cp, finish[gi]);
        }
        continue;
      }

      // READY: the previous round's FINISH (or the job start) is known.
      const double ready = post + w.round_cpu[gi];
      if (rep == 0) {
        ready0[gi] = ready;
      }
      bool has_eager_send = false;
      for (std::int64_t k = exec.send_begin[gi]; k < exec.send_begin[gi + 1];
           ++k) {
        const auto m = static_cast<std::size_t>(
            exec.send_msg[static_cast<std::size_t>(k)]);
        // The receiver's FINISH of the same repetition waits at least the
        // transfer floor past this READY.
        const double arrival = ready + floor[m];
        const auto ri = static_cast<std::size_t>(exec.msg_recv_round[m]);
        inbound[ri] = std::max(inbound[ri], arrival);
        if (exec.msg_bytes[m] <= eager_threshold) {
          has_eager_send = true;
        } else {
          // Rendezvous sends complete no earlier than their own transfer
          // floor (the receiver-ready term is dropped to keep the DP
          // acyclic — still a valid lower bound).
          inbound[gi] = std::max(inbound[gi], arrival);
        }
      }
      for (std::int64_t k = exec.recv_begin[gi]; k < exec.recv_begin[gi + 1];
           ++k) {
        const auto m = static_cast<std::size_t>(
            exec.recv_msg[static_cast<std::size_t>(k)]);
        if (exec.msg_bytes[m] > eager_threshold) {
          // Rendezvous transfers start only after the receiver posts.
          inbound[gi] = std::max(inbound[gi], ready + floor[m]);
        }
      }
      // The engine only guarantees finish >= ready when an eager send
      // completes at ready, or when the round has no network ops and
      // advances at ready. A recv-only round's in-flight receives complete
      // at raw transfer time, possibly before its own ready.
      const bool has_sends = exec.send_begin[gi + 1] > exec.send_begin[gi];
      const bool has_recvs = exec.recv_begin[gi + 1] > exec.recv_begin[gi];
      if (has_eager_send || (!has_sends && !has_recvs)) {
        inbound[gi] = std::max(inbound[gi], ready);
      }
    }
  }
  shape.critical_path = cp;
}

/// The shape's per-(rank, level) channel inputs from w.ready0. A message
/// enters its channels at its sender's repetition-0 READY plus its path
/// latency (ready is non-decreasing across repetitions, so repetition 0
/// holds each channel's earliest possible entry) and carries its bytes in
/// every repetition. Each message lands in its sender's and its receiver's
/// cell at its fd; prefix sums over levels then give cell (r, k) every
/// message with fd <= k.
void channel_inputs(Workspace::Impl& w, const JobBinding& job,
                    const std::uint8_t* fd, Shape& shape) {
  const simmpi::Schedule& sched = *job.schedule;
  const simmpi::PlanExec& exec = *job.exec;
  const auto depth = static_cast<std::size_t>(w.depth);
  const auto cells = static_cast<std::size_t>(sched.nranks) * depth;
  shape.send.assign(cells, Traffic{});
  shape.recv.assign(cells, Traffic{});
  shape.send_lo.assign(static_cast<std::size_t>(sched.nranks),
                       static_cast<std::uint8_t>(depth));
  shape.recv_lo.assign(static_cast<std::size_t>(sched.nranks),
                       static_cast<std::uint8_t>(depth));
  const std::int64_t reps = job.repetitions;
  for (std::size_t m = 0; m < sched.messages.size(); ++m) {
    const std::uint8_t f = fd[m];
    if (f == depth) {
      continue;  // self-message: latency-only, no channel.
    }
    const Traffic traffic{
        w.ready0[static_cast<std::size_t>(exec.msg_send_round[m])] +
            w.route[f].latency,
        exec.msg_bytes[m] * reps};
    const auto src = static_cast<std::size_t>(sched.messages[m].src);
    const auto dst = static_cast<std::size_t>(sched.messages[m].dst);
    shape.send[src * depth + f].add(traffic);
    shape.recv[dst * depth + f].add(traffic);
    shape.send_lo[src] = std::min(shape.send_lo[src], f);
    shape.recv_lo[dst] = std::min(shape.recv_lo[dst], f);
  }
  for (std::size_t row = 0; row < cells; row += depth) {
    for (std::size_t k = row + 1; k < row + depth; ++k) {
      shape.send[k].add(shape.send[k - 1]);
      shape.recv[k].add(shape.recv[k - 1]);
    }
  }
}

/// The shape job j runs: an earlier job's when plan, repetitions, start
/// time (bit for bit) and fd sequence all match, else a new one with its DP
/// and channel inputs computed.
const Shape& shape_of(Workspace::Impl& w, const JobBinding& job,
                      std::size_t j, const simmpi::PlanExec*& prepared) {
  const std::uint8_t* fd = w.msg_fd.data() + w.msg_base[j];
  const std::size_t nmsgs = w.msg_base[j + 1] - w.msg_base[j];
  const auto start_bits = std::bit_cast<std::uint64_t>(job.start_time);
  for (std::size_t i = 0; i < w.nshapes; ++i) {
    const Shape& s = w.shapes[i];
    if (s.exec == job.exec && s.schedule == job.schedule &&
        s.repetitions == job.repetitions &&
        std::bit_cast<std::uint64_t>(s.start_time) == start_bits &&
        std::equal(fd, fd + nmsgs, w.msg_fd.data() + s.fd_begin)) {
      return s;
    }
  }
  if (w.nshapes == w.shapes.size()) {
    w.shapes.emplace_back();
  }
  Shape& s = w.shapes[w.nshapes++];
  s.schedule = job.schedule;
  s.exec = job.exec;
  s.repetitions = job.repetitions;
  s.start_time = job.start_time;
  s.fd_begin = w.msg_base[j];
  if (job.exec != prepared) {
    prepare_plan(w, *job.exec);
    prepared = job.exec;
  }
  critical_path_dp(w, job, fd, s);
  channel_inputs(w, job, fd, s);
  return s;
}

/// Adds one job's traffic to the channel-serialization inputs: each rank's
/// prefix cell at level k goes to its component's egress (ingress) channel
/// at k, from its lowest fd inward; its memory channels take every send
/// and the receives whose fd is at or above the controller's level.
void fold_channels(Workspace::Impl& w, const Shape& shape,
                   const std::int64_t* comp, std::size_t nranks) {
  const int depth = w.depth;
  const auto touch = [&w](std::int64_t id, const Traffic& t) {
    Traffic& chan = w.chan[static_cast<std::size_t>(id)];
    if (chan.entry == kInf) {
      w.chan_touched.push_back(static_cast<simnet::ChannelId>(id));
    }
    chan.add(t);
  };
  for (std::size_t r = 0; r < nranks; ++r) {
    const std::size_t row = r * static_cast<std::size_t>(depth);
    const std::int64_t* c = comp + row;
    const Traffic* send = shape.send.data() + row;
    const Traffic* recv = shape.recv.data() + row;
    const int send_lo = shape.send_lo[r];
    const int recv_lo = shape.recv_lo[r];
    for (int k = send_lo; k < depth; ++k) {
      touch(w.chan_base[static_cast<std::size_t>(k)] + 3 * c[k], send[k]);
    }
    for (int k = recv_lo; k < depth; ++k) {
      touch(w.chan_base[static_cast<std::size_t>(k)] + 3 * c[k] + 1, recv[k]);
    }
    for (const int k : w.mem_levels) {
      const std::int64_t mem =
          w.chan_base[static_cast<std::size_t>(k)] + 3 * c[k] + 2;
      if (send_lo < depth) {
        touch(mem, send[depth - 1]);
      }
      if (k >= recv_lo) {
        touch(mem, recv[k]);
      }
    }
  }
}

/// The bound kernel: the critical-path DP once per job shape, plus the
/// per-channel serialization bound folded from each job's per-rank cells.
/// Requires every job to have passed check_job. A short visit order means
/// a genuine happens-before cycle: diagnosed, and the bound stays 0
/// (trivially sound).
void bound_kernel(Workspace::Impl& w, const std::vector<JobBinding>& jobs,
                  Sink& sink, Bound& bound) {
  w.ensure_channels();
  w.nshapes = 0;
  const simmpi::PlanExec* prepared = nullptr;
  bool acyclic = true;
  double cp = 0.0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const JobBinding& job = jobs[j];
    const std::int64_t nrounds = job.exec->rank_rounds_begin.back();
    const std::vector<std::int64_t>& order = job.exec->visit_order;
    if (static_cast<std::int64_t>(order.size()) != 2 * nrounds) {
      const auto finished = std::count_if(
          order.begin(), order.end(), [](std::int64_t e) { return e % 2; });
      sink.job(static_cast<int>(j));
      sink.error(-1, -1, -1,
                 "happens-before graph has a cycle through ",
                 nrounds - finished, " of ", nrounds,
                 " rounds; the schedule deadlocks on this binding and no "
                 "finite lower bound exists");
      acyclic = false;
      continue;
    }
    const Shape& shape = shape_of(w, job, j, prepared);
    cp = std::max(cp, shape.critical_path);
    fold_channels(w, shape, w.comp.data() + w.comp_base[j],
                  static_cast<std::size_t>(job.schedule->nranks));
  }
  sink.job(-1);

  double agg = 0.0;
  for (const simnet::ChannelId id : w.chan_touched) {
    const auto c = static_cast<std::size_t>(id);
    agg = std::max(agg, w.chan[c].entry + static_cast<double>(w.chan[c].bytes) /
                                              w.capacities[c]);
  }
  // A channel can be listed twice (an infinite entry never marks it), so
  // reset only after the whole list has been read.
  for (const simnet::ChannelId id : w.chan_touched) {
    w.chan[static_cast<std::size_t>(id)] = Traffic{};
  }
  w.chan_touched.clear();
  if (!acyclic) {
    return;
  }
  bound.critical_path = cp;
  bound.channel_serialization = agg;
  bound.lower_bound = std::max(cp, agg);
}

/// The whole analysis of `jobs` in workspace `w`, diagnostics into `sink`.
void analyze_into(Workspace::Impl& w, const std::vector<JobBinding>& jobs,
                  const Options& options, Sink& sink, Result& result) {
  result.machine = w.machine->name();
  if (jobs.empty()) {
    return;
  }
  w.comp.clear();
  w.comp_base.assign(1, 0);
  w.msg_fd.clear();
  w.msg_base.assign(1, 0);
  bool ok = true;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    sink.job(static_cast<int>(j));
    ok = check_job(w, jobs[j], sink) && ok;
    w.comp_base.push_back(w.comp.size());
    w.msg_base.push_back(w.msg_fd.size());
  }
  if (!ok) {
    return;
  }
  sink.job(-1);
  if (options.load_report) {
    build_load_report(w, jobs, options.top_k, result.load);
  }
  if (options.lower_bound) {
    bound_kernel(w, jobs, sink, result.bound);
  }
}

}  // namespace

std::string channel_name(const topo::Machine& machine, simnet::ChannelId id) {
  static constexpr const char* kKind[3] = {"egress", "ingress", "mem"};
  const std::int64_t dense = id / 3;
  std::ostringstream os;
  if (id < 0 || dense >= machine.total_components()) {
    os << "channel[" << id << "]";
    return os.str();
  }
  int level = 0;
  for (int k = machine.depth() - 1; k >= 0; --k) {
    if (machine.component_id(k, 0) <= dense) {
      level = k;
      break;
    }
  }
  os << machine.level(level).name << '[' << dense - machine.component_id(level, 0)
     << "]." << kKind[id % 3];
  return os.str();
}

std::string Result::to_string() const {
  std::ostringstream os;
  os << "binding analysis of machine '" << machine << "': "
     << report.summary() << '\n';
  for (const Diagnostic& d : report.diagnostics) {
    os << "  " << d.to_string() << '\n';
  }
  if (!report.clean()) {
    return os.str();
  }
  os << "traffic: " << load.total_bytes << " bytes in " << load.total_flows
     << " flows over " << load.rounds.size() << " rounds ("
     << load.self_bytes << " self bytes)\n";
  for (const RoundLoad& r : load.rounds) {
    os << "  round " << r.round << ": " << r.bytes << " bytes, " << r.flows
       << " flows";
    if (r.hottest >= 0) {
      os << ", max oversubscription " << r.max_oversubscription << " on "
         << r.hottest_name;
    }
    os << '\n';
  }
  if (!load.top_channels.empty()) {
    os << "hottest channels:\n";
    for (const ChannelLoad& c : load.top_channels) {
      os << "  " << c.name << ": " << c.bytes << " bytes in " << c.flows
         << " flows, " << c.serialization_seconds
         << " s serialization, oversubscription " << c.oversubscription
         << '\n';
    }
  }
  os << "lower bound: " << bound.lower_bound << " s (critical path "
     << bound.critical_path << " s, channel serialization "
     << bound.channel_serialization << " s)\n";
  return os.str();
}

Workspace::Workspace(const topo::Machine& machine)
    : impl_(std::make_unique<Impl>(machine)) {}
Workspace::~Workspace() = default;
Workspace::Workspace(Workspace&&) noexcept = default;
Workspace& Workspace::operator=(Workspace&&) noexcept = default;

const topo::Machine& Workspace::machine() const { return *impl_->machine; }

Result analyze_jobs(const topo::Machine& machine,
                    const std::vector<JobBinding>& jobs,
                    const Options& options) {
  Result result;
  Workspace::Impl workspace(machine);
  Sink sink(&result.report, jobs.size() > 1);
  analyze_into(workspace, jobs, options, sink, result);
  return result;
}

Result analyze_jobs(Workspace& workspace, const std::vector<JobBinding>& jobs) {
  Options options;
  options.load_report = false;
  Result result;
  Sink quiet(nullptr, false);
  analyze_into(*workspace.impl_, jobs, options, quiet, result);
  if (quiet.flagged()) {
    // Any finding: redo the analysis with located, formatted diagnostics.
    result = Result{};
    Sink sink(&result.report, jobs.size() > 1);
    analyze_into(*workspace.impl_, jobs, options, sink, result);
  }
  return result;
}

Result analyze(const simmpi::Plan& plan, const topo::Machine& machine,
               const std::vector<std::int64_t>& core_of_rank,
               const Options& options) {
  JobBinding job;
  job.schedule = &plan.schedule;
  job.exec = &plan.exec;
  job.repetitions = plan.repetitions;
  job.core_of_rank = &core_of_rank;
  return analyze_jobs(machine, {job}, options);
}

// ---- BoundStructure -------------------------------------------------------

/// A deep copy of the jobs' payload-invariant arrays (JobBinding is
/// non-owning, and the plans behind it may be evicted from the PlanCache
/// between build and a later compatible/evaluate).
struct BoundStructure::Impl {
  struct JobStruct {
    std::int32_t nranks = 0;
    int repetitions = 1;
    double start_time = 0;
    std::vector<std::int64_t> cores;
    std::vector<std::int32_t> msg_src;  ///< per message; bytes NOT kept.
    std::vector<std::int32_t> msg_dst;
    std::vector<std::int64_t> rank_rounds_begin;
    std::vector<std::int64_t> send_begin;
    std::vector<std::int64_t> recv_begin;
    std::vector<std::int32_t> send_msg;
    std::vector<std::int32_t> recv_msg;
  };

  std::string fingerprint;  ///< topo::machine_fingerprint at build time.
  std::string machine_name;
  Report report;  ///< payload-invariant diagnostics, verbatim.
  bool clean_ok = false;
  std::vector<JobStruct> jobs;
};

BoundStructure::BoundStructure() = default;
BoundStructure::~BoundStructure() = default;
BoundStructure::BoundStructure(BoundStructure&&) noexcept = default;
BoundStructure& BoundStructure::operator=(BoundStructure&&) noexcept = default;

bool BoundStructure::clean() const {
  return impl_ != nullptr && impl_->clean_ok;
}

BoundStructure BoundStructure::build(const topo::Machine& machine,
                                     const std::vector<JobBinding>& jobs,
                                     Result& fresh) {
  BoundStructure s;
  s.impl_ = std::make_unique<Impl>();
  Impl& im = *s.impl_;
  im.fingerprint = topo::machine_fingerprint(machine);
  im.machine_name = machine.name();
  Options options;
  options.load_report = false;
  fresh = analyze_jobs(machine, jobs, options);
  im.report = fresh.report;
  im.clean_ok = !jobs.empty() && fresh.clean();
  if (!im.clean_ok) {
    return s;  // defective bindings are analyzed fresh every time.
  }
  im.jobs.resize(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const simmpi::Schedule& sched = *jobs[j].schedule;
    const simmpi::PlanExec& exec = *jobs[j].exec;
    Impl::JobStruct& js = im.jobs[j];
    js.nranks = sched.nranks;
    js.repetitions = jobs[j].repetitions;
    js.start_time = jobs[j].start_time;
    js.cores = *jobs[j].core_of_rank;
    js.msg_src.reserve(sched.messages.size());
    js.msg_dst.reserve(sched.messages.size());
    for (const simmpi::MsgInfo& info : sched.messages) {
      js.msg_src.push_back(info.src);
      js.msg_dst.push_back(info.dst);
    }
    js.rank_rounds_begin = exec.rank_rounds_begin;
    js.send_begin = exec.send_begin;
    js.recv_begin = exec.recv_begin;
    js.send_msg = exec.send_msg;
    js.recv_msg = exec.recv_msg;
  }
  return s;
}

bool BoundStructure::compatible(const topo::Machine& machine,
                                const std::vector<JobBinding>& jobs) const {
  // Unclean structures keep no structural snapshot; they never match.
  if (impl_ == nullptr || !impl_->clean_ok) {
    return false;
  }
  const Impl& im = *impl_;
  if (jobs.size() != im.jobs.size() ||
      topo::machine_fingerprint(machine) != im.fingerprint) {
    return false;
  }
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const JobBinding& job = jobs[j];
    const Impl::JobStruct& js = im.jobs[j];
    if (job.schedule == nullptr || job.exec == nullptr ||
        job.core_of_rank == nullptr) {
      return false;
    }
    const simmpi::Schedule& sched = *job.schedule;
    const simmpi::PlanExec& exec = *job.exec;
    // start_time compares bit-exactly: any difference shifts every DP
    // value, so only the identical double may reuse the recorded report.
    if (sched.nranks != js.nranks || job.repetitions != js.repetitions ||
        job.start_time != js.start_time || *job.core_of_rank != js.cores) {
      return false;
    }
    if (sched.messages.size() != js.msg_src.size()) {
      return false;
    }
    for (std::size_t m = 0; m < sched.messages.size(); ++m) {
      if (sched.messages[m].src != js.msg_src[m] ||
          sched.messages[m].dst != js.msg_dst[m]) {
        return false;
      }
    }
    if (exec.rank_rounds_begin != js.rank_rounds_begin ||
        exec.send_begin != js.send_begin ||
        exec.recv_begin != js.recv_begin || exec.send_msg != js.send_msg ||
        exec.recv_msg != js.recv_msg) {
      return false;
    }
    // The payload-dependent arrays may hold any values, but the kernel
    // indexes them, so their extents must cover the structure.
    const std::int64_t total_rounds = exec.rank_rounds_begin.back();
    if (exec.msg_bytes.size() != sched.messages.size() ||
        exec.round_compute.size() < static_cast<std::size_t>(total_rounds) ||
        exec.round_copy_doubles.size() <
            static_cast<std::size_t>(total_rounds)) {
      return false;
    }
  }
  return true;
}

Result BoundStructure::evaluate(const topo::Machine& machine,
                                const std::vector<JobBinding>& jobs) const {
  MR_EXPECT(clean(), "evaluate() requires a clean BoundStructure");
  Workspace workspace(machine);
  Result result = analyze_jobs(workspace, jobs);
  result.machine = impl_->machine_name;
  result.report = impl_->report;  // payload-invariant, verbatim.
  return result;
}

// ---- structure_key --------------------------------------------------------

namespace {

/// One word-at-a-time hash step (multiply-xorshift; not cryptographic).
std::uint64_t mix(std::uint64_t h, std::uint64_t word) {
  h = (h ^ word) * 0x9e3779b97f4a7c15ull;
  return h ^ (h >> 29);
}

std::uint64_t hash_bytes(std::uint64_t h, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes + i, 8);
    h = mix(h, word);
  }
  if (i < size) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes + i, size - i);
    h = mix(h, word);
  }
  // Fold in the length so adjacent arrays can't alias across boundaries.
  return mix(h, static_cast<std::uint64_t>(size));
}

template <typename T>
std::uint64_t hash_vec(std::uint64_t h, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  return hash_bytes(h, v.data(), v.size() * sizeof(T));
}

/// Hash of one plan's payload-invariant structure: message endpoints and
/// the execution CSR.
std::uint64_t plan_key(const simmpi::Schedule& sched,
                       const simmpi::PlanExec& exec) {
  std::uint64_t h = static_cast<std::uint64_t>(sched.nranks);
  for (const simmpi::MsgInfo& info : sched.messages) {
    h = mix(h, (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                    info.src))
                << 32) |
                   static_cast<std::uint32_t>(info.dst));
  }
  h = hash_vec(h, exec.rank_rounds_begin);
  h = hash_vec(h, exec.send_begin);
  h = hash_vec(h, exec.recv_begin);
  h = hash_vec(h, exec.send_msg);
  return hash_vec(h, exec.recv_msg);
}

}  // namespace

std::uint64_t structure_key(const topo::Machine& machine,
                            const std::vector<JobBinding>& jobs) {
  const std::string fp = topo::machine_fingerprint(machine);
  std::uint64_t h = hash_bytes(0x6d69787261646978ull, fp.data(), fp.size());
  // Jobs of one point share their plan, so each distinct (schedule, exec)
  // pair is hashed once.
  const simmpi::Schedule* last_schedule = nullptr;
  const simmpi::PlanExec* last_exec = nullptr;
  std::uint64_t last_plan = 0;
  for (const JobBinding& job : jobs) {
    if (job.schedule == nullptr || job.exec == nullptr ||
        job.core_of_rank == nullptr) {
      // Defective bindings never match; any stable value works.
      h = mix(h, 0x6e756c6cull);
      continue;
    }
    if (job.schedule != last_schedule || job.exec != last_exec) {
      last_schedule = job.schedule;
      last_exec = job.exec;
      last_plan = plan_key(*job.schedule, *job.exec);
    }
    h = mix(h, last_plan);
    h = mix(h, static_cast<std::uint64_t>(job.repetitions));
    h = mix(h, std::bit_cast<std::uint64_t>(job.start_time));
    h = hash_vec(h, *job.core_of_rank);
  }
  return h;
}

}  // namespace mr::verify::binding
