#include "ledger.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "check/invariants.hpp"
#include "checks.hpp"
#include "core/fairness.hpp"
#include "core/scheduler.hpp"
#include "core/sparcle_assigner.hpp"
#include "obs/obs.hpp"
#include "service/scheduler_service.hpp"
#include "workload/arrivals.hpp"
#include "workload/task_graphs.hpp"

namespace ledger {

using namespace sparcle;
using Clock = std::chrono::steady_clock;

namespace {

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// The process's own peak resident set, in MiB.  Linux carries
/// getrusage's ru_maxrss across execve, so a child of a larger parent
/// reads the parent's peak; VmHWM in /proc/self/status is this process's
/// alone.  ru_maxrss is the fallback where that file is missing.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // the value is in kB
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Nearest-rank percentile (p in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Reads per state poll: a lone read is dominated by whether the last
/// write left it a cold cache, so each poll reads back to back.
constexpr int kReadsPerPoll = 8;

/// The benchmark's own span around a call into the program, recorded only
/// while a trace collector is installed.
class Span {
 public:
  explicit Span(const char* name)
      : trace_(obs::trace_collector()), name_(name) {
    if (trace_ != nullptr) start_ = Clock::now();
  }
  ~Span() {
    if (trace_ == nullptr) return;
    trace_->record_complete(name_, trace_->to_origin_us(start_),
                            us_between(start_, Clock::now()));
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  obs::ChromeTraceCollector* trace_;
  const char* name_;
  Clock::time_point start_{};
};

// ---------------------------------------------------------------------------
// Inputs

/// A soak site with failure probabilities and, optionally, one-way uplinks.
struct Site {
  Network net;
  std::vector<NcpId> sink_hosts;        ///< NCPs a sink may be pinned to
  std::vector<LinkId> uplink;           ///< per NCP; kInvalidId for hubs
};

/// workload::soak_site copied element by element, every element failing
/// with probability 0.25%; exactly `one_way_share` of the leaves (a seeded
/// choice) keep only a directed leaf → hub uplink.  Sinks are never pinned
/// behind a one-way uplink (results could not leave the site towards
/// them).  Capacities are drawn within ±10% of a common value and backbone
/// links carry four times soak_site's, so the many leaves, not a handful
/// of ring links, bound the rates.  Sites of different seeds are alike
/// enough that the spread between seeds stays below the benchmark's bounds.
Site build_site(std::size_t regions, std::size_t per_region,
                double one_way_share, Rng& rng) {
  constexpr double kFailProb = 0.0025;
  workload::NetRanges ranges;
  ranges.ncp_min = 36.0;
  ranges.ncp_max = 44.0;
  ranges.bw_min = 18.0;
  ranges.bw_max = 22.0;
  const Network base = workload::soak_site(regions, per_region, rng, ranges);
  Site site;
  site.uplink.assign(base.ncp_count(), kInvalidId);
  std::vector<LinkId> leaf_links;
  for (LinkId l = 0; l < static_cast<LinkId>(base.link_count()); ++l)
    if (base.link(l).name.rfind("bb", 0) != 0) leaf_links.push_back(l);
  std::shuffle(leaf_links.begin(), leaf_links.end(), rng.engine());
  leaf_links.resize(static_cast<std::size_t>(
      std::llround(one_way_share * static_cast<double>(leaf_links.size()))));
  const std::set<LinkId> one_way_links(leaf_links.begin(), leaf_links.end());

  for (NcpId j = 0; j < static_cast<NcpId>(base.ncp_count()); ++j) {
    const Ncp& n = base.ncp(j);
    site.net.add_ncp(n.name, n.capacity, kFailProb, n.region);
  }
  std::vector<char> one_way(base.ncp_count(), 0);
  for (LinkId l = 0; l < static_cast<LinkId>(base.link_count()); ++l) {
    const Link& k = base.link(l);
    if (k.name.rfind("bb", 0) == 0) {
      site.net.add_link(k.name, k.a, k.b, 4.0 * k.bandwidth, kFailProb);
      continue;
    }
    // A leaf link: hub a, leaf b.
    if (one_way_links.contains(l)) {
      site.net.add_directed_link(k.name, k.b, k.a, k.bandwidth, kFailProb);
      one_way[static_cast<std::size_t>(k.b)] = 1;
    } else {
      site.net.add_link(k.name, k.a, k.b, k.bandwidth, kFailProb);
    }
    site.uplink[static_cast<std::size_t>(k.b)] = l;
  }
  for (NcpId j = 0; j < static_cast<NcpId>(base.ncp_count()); ++j)
    if (!one_way[static_cast<std::size_t>(j)]) site.sink_hosts.push_back(j);
  return site;
}

/// The failure a repair probe or failure event injects: the uplink of a
/// leaf that hosts a computation CT of some placed path, picked by `pick`
/// in [0, 1) among the leaves that host no pinned endpoint of any placed
/// app (or, where pins cover every such leaf, among them all).  Every such
/// failure cuts at least one path, so each one sheds and re-provisions:
/// failing an arbitrary element often touches nothing, and a latency
/// median over a mix of no-op and real repairs swings with the mix.
/// nullopt when no leaf hosts a computation CT.
std::optional<ElementKey> compute_uplink(const Scheduler& s, const Site& site,
                                         double pick) {
  std::set<NcpId> pinned, hosts;
  for (const PlacedApp& pa : s.placed()) {
    for (const auto& [ct, ncp] : pa.app.pinned) pinned.insert(ncp);
    for (const PathInfo& path : pa.paths)
      for (CtId i = 0; i < static_cast<CtId>(pa.app.graph->ct_count()); ++i)
        if (!pa.app.pinned.contains(i)) hosts.insert(path.placement.ct_host(i));
  }
  std::vector<LinkId> free_leaves, all_leaves;
  for (NcpId j : hosts) {
    const LinkId l = site.uplink[static_cast<std::size_t>(j)];
    if (l == kInvalidId) continue;
    all_leaves.push_back(l);
    if (!pinned.contains(j)) free_leaves.push_back(l);
  }
  const auto& links = free_leaves.empty() ? all_leaves : free_leaves;
  if (links.empty()) return std::nullopt;
  const auto i = static_cast<std::size_t>(pick * static_cast<double>(links.size()));
  return ElementKey::link(links[std::min(i, links.size() - 1)]);
}

/// The shape of an arrival stream.
struct StreamSpec {
  std::size_t gr_every{0};    ///< every n-th arrival is GR (0 = none)
  bool availability{false};   ///< draw availability targets (eq. (7) work)
};

/// Deterministic arrivals over a site.  Task graphs come from a fixed
/// catalogue of eight applications (chains and layered DAGs, the same for
/// every seed) visited round-robin, and BE priorities cycle through a
/// fixed ladder, as do availability targets and GR rates, so every run
/// sees the same mix.  Sources and sinks are dealt from seeded
/// permutations of the eligible NCPs, so every NCP hosts its share of
/// endpoints and no seed piles apps onto a few leaves; the seed decides
/// which endpoints meet.
class Stream {
 public:
  Stream(const Site& site, StreamSpec spec, std::uint64_t seed)
      : spec_(spec), rng_(seed) {
    for (NcpId j = 0; j < static_cast<NcpId>(site.net.ncp_count()); ++j)
      sources_.push_back(j);
    sinks_ = site.sink_hosts;
    std::shuffle(sources_.begin(), sources_.end(), rng_.engine());
    std::shuffle(sinks_.begin(), sinks_.end(), rng_.engine());
    Rng catalogue(0xca7a109ULL);
    const workload::TaskRanges ranges;
    for (std::size_t g = 0; g < 8; ++g) {
      if (g % 2 == 0)
        pool_.push_back(workload::linear_task_graph(1 + (g / 2) % 4,
                                                    catalogue, ranges));
      else
        pool_.push_back(workload::random_layered_task_graph(
            catalogue, ranges, 1 + (g / 2) % 3, /*max_width=*/2,
            /*edge_prob=*/0.35));
    }
  }

  Application next() {
    const std::size_t i = n_++;
    Application app;
    app.name = "a";
    app.name += std::to_string(i);
    app.graph = pool_[i % pool_.size()];
    const bool gr = spec_.gr_every > 0 && i % spec_.gr_every == spec_.gr_every - 1;
    // Contract ladders, cycled with periods co-prime to the catalogue's.
    static constexpr double kPriorities[] = {0.5, 1.0, 2.0, 4.0};
    static constexpr double kTargets[] = {0.85, 0.9, 0.95};
    static constexpr double kMinRates[] = {0.05, 0.1, 0.2, 0.3};
    const double target = spec_.availability ? kTargets[i % 3] : 0.0;
    app.qoe = gr ? QoeSpec::guaranteed_rate(kMinRates[(i / 10) % 4], target)
                 : QoeSpec::best_effort(kPriorities[(i / 8) % 4], target);
    // Each round of the source deal shifts it by one and the sink deal by
    // two, so an NCP meets a different catalogue app and partner every
    // round.
    const std::size_t round = src_ / sources_.size();
    for (CtId s : app.graph->sources())
      app.pinned[s] = sources_[(src_++ + round) % sources_.size()];
    for (CtId s : app.graph->sinks())
      app.pinned[s] = sinks_[(snk_++ + 2 * round) % sinks_.size()];
    return app;
  }

 private:
  StreamSpec spec_;
  Rng rng_;
  std::vector<std::shared_ptr<const TaskGraph>> pool_;
  std::vector<NcpId> sources_, sinks_;  ///< seeded deal orders
  std::size_t n_{0}, src_{0}, snk_{0};
};

// ---------------------------------------------------------------------------
// Layer measurement

/// Times every call into the assignment layer from outside: wraps
/// SparcleAssigner and is handed to Scheduler's public constructor.
class TimedAssigner : public Assigner {
 public:
  std::string name() const override { return inner_.name(); }
  AssignmentResult assign(const AssignmentProblem& problem) const override {
    const Span span("ledger.assign");
    const auto t0 = Clock::now();
    AssignmentResult r = inner_.assign(problem);
    const double us = us_between(t0, Clock::now());
    samples_.push_back(us);
    total_us_ += us;
    return r;
  }
  void reset() const {
    samples_.clear();
    total_us_ = 0.0;
  }
  const std::vector<double>& samples() const { return samples_; }
  double total_us() const { return total_us_; }

 private:
  SparcleAssigner inner_{SchedulerOptions{}.assigner_options};
  // The Scheduler calls assign() from its own (single) thread only.
  mutable std::vector<double> samples_;
  mutable double total_us_{0.0};
};

double hist_sum(const obs::MetricsSnapshot& s, const std::string& name) {
  const auto it = s.histograms.find(name);
  return it == s.histograms.end() ? 0.0 : it->second.sum;
}
std::uint64_t hist_count(const obs::MetricsSnapshot& s, const std::string& name) {
  const auto it = s.histograms.find(name);
  return it == s.histograms.end() ? 0 : it->second.count;
}
double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void put(Result& r, const std::string& name, double v, const char* unit) {
  r.metrics[name] = Metric{v, unit};
}

/// The installed obs sinks of a traced phase.
struct Tracing {
  obs::MetricsRegistry registry;
  obs::ChromeTraceCollector collector;
};

/// Per-layer metrics read from the program's existing counters, and the
/// exact work counts among them.
void add_program_counters(const obs::MetricsSnapshot& s, Result& r) {
  auto c = [&](const char* name) {
    return static_cast<double>(s.counter_or(name));
  };
  put(r, "assign.widest_path_calls", c("assigner.widest_path_calls"), "count");
  put(r, "assign.gamma_evals", c("assigner.gamma_evals"), "count");
  put(r, "assign.ranking_rounds", c("assigner.ranking_rounds"), "count");
  put(r, "assign.memo_hit_ratio",
      ratio(c("assigner.memo.hits"),
            c("assigner.memo.hits") + c("assigner.memo.misses")),
      "ratio");
  const double solves = c("scheduler.be_resolves");
  const double iters = hist_sum(s, "scheduler.solver.newton_iters");
  put(r, "pf.solves", solves, "count");
  put(r, "pf.time_s", hist_sum(s, "scheduler.be_resolve.us") * 1e-6, "s");
  put(r, "pf.newton_iters_per_solve",
      ratio(iters, static_cast<double>(
                       hist_count(s, "scheduler.solver.newton_iters"))),
      "count");
  put(r, "pf.warm_hit_ratio", ratio(c("scheduler.solver.warm_start_hits"), solves),
      "ratio");
  put(r, "pf.warm_fallbacks", c("scheduler.solver.warm_start_fallbacks"),
      "count");
  put(r, "scheduler.gr_subset_sum_evals", c("scheduler.gr_subset_sum_evals"),
      "count");
  put(r, "repair.apps_touched", c("scheduler.repair.apps_touched"), "count");
  put(r, "repair.paths_added", c("scheduler.repair.paths_added"), "count");
  put(r, "repair.fallbacks", c("scheduler.repair.fallbacks"), "count");
  r.work["assign.widest_path_calls"] = s.counter_or("assigner.widest_path_calls");
  r.work["assign.gamma_evals"] = s.counter_or("assigner.gamma_evals");
  r.work["pf.solves"] = s.counter_or("scheduler.be_resolves");
  r.work["pf.newton_iters"] = static_cast<std::uint64_t>(std::llround(iters));
}

/// Rebuilds problem (4) from a placement state (residual capacity after
/// the GR reservations, one variable per alive BE path) and times a cold
/// solve_weighted_pf on it; the median of three solves, in µs.
double cold_pf_solve_us(const StateView& state) {
  const Network& net = *state.net;
  std::vector<double> ncp_cap(net.ncp_count()), link_cap(net.link_count());
  for (NcpId j = 0; j < static_cast<NcpId>(net.ncp_count()); ++j)
    ncp_cap[static_cast<std::size_t>(j)] = net.ncp(j).capacity[0];
  for (LinkId l = 0; l < static_cast<LinkId>(net.link_count()); ++l)
    link_cap[static_cast<std::size_t>(l)] = net.link(l).bandwidth;
  // Per-unit loads of a path, recomputed from its placement.
  auto loads = [&](const PlacedApp& pa, const PathInfo& path) {
    std::map<ElementKey, double> load;
    const TaskGraph& g = *pa.app.graph;
    for (CtId i = 0; i < static_cast<CtId>(g.ct_count()); ++i)
      load[ElementKey::ncp(path.placement.ct_host(i))] += g.ct(i).requirement[0];
    for (TtId t = 0; t < static_cast<TtId>(g.tt_count()); ++t)
      for (LinkId l : path.placement.tt_route(t))
        load[ElementKey::link(l)] += g.tt(t).bits_per_unit;
    return load;
  };
  for (const PlacedApp& pa : state.placed) {
    if (pa.app.qoe.cls != QoeClass::kGuaranteedRate) continue;
    for (std::size_t k = 0; k < pa.paths.size(); ++k)
      for (const auto& [e, a] : loads(pa, pa.paths[k]))
        (e.kind == ElementKey::Kind::kNcp ? ncp_cap : link_cap)
            [static_cast<std::size_t>(e.index)] -= a * pa.path_rates[k];
  }
  auto cap = [&](const ElementKey& e) {
    return (e.kind == ElementKey::Kind::kNcp ? ncp_cap : link_cap)
        [static_cast<std::size_t>(e.index)];
  };
  PfProblem problem;
  std::map<ElementKey, std::size_t> row;
  for (const PlacedApp& pa : state.placed) {
    if (pa.app.qoe.cls == QoeClass::kGuaranteedRate) continue;
    bool any = false;
    for (const PathInfo& path : pa.paths) {
      const auto load = loads(pa, path);
      // Like the scheduler, drop paths over failed or exhausted elements.
      if (std::any_of(load.begin(), load.end(), [&](const auto& el) {
            return state.failed.contains(el.first) ||
                   (el.second > 0 && cap(el.first) <= 0);
          }))
        continue;
      PfProblem::Column col;
      for (const auto& [e, a] : load) {
        if (a <= 0) continue;
        auto [it, fresh] = row.try_emplace(e, problem.capacity.size());
        if (fresh) problem.capacity.push_back(cap(e));
        col.entries.emplace_back(it->second, a);
      }
      problem.columns.push_back(std::move(col));
      problem.var_app.push_back(problem.app_priority.size());
      any = true;
    }
    if (any) problem.app_priority.push_back(pa.app.qoe.priority);
  }
  if (problem.app_priority.empty()) return 0.0;
  std::vector<double> times;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    (void)solve_weighted_pf(problem);
    times.push_back(us_between(t0, Clock::now()));
  }
  return percentile(times, 0.5);
}

/// Runs the independent checks and the program's own invariant battery
/// on a final scheduler state.
void check_final(const Scheduler& s, Result& r) {
  for (std::string& v : check_state(view_of(s)))
    r.violations.push_back(std::move(v));
  const check::CheckReport report = check::check_scheduler_state(s);
  if (!report.ok())
    r.violations.push_back("check_scheduler_state:\n" + report.to_string());
}

// ---------------------------------------------------------------------------
// Direct workloads: single-threaded calls into Scheduler

struct DirectConfig {
  std::size_t regions{16}, per_region{32};
  double one_way_share{0.0};
  StreamSpec stream;
  /// Every app leaves just before the arrival `session` places later, so
  /// `session` apps are placed at a time.  Set-up admits the first
  /// `session` arrivals in one batch; each timed operation is then the
  /// due departure(s) followed by one submit.
  std::size_t session{24};
  std::size_t setup_reps{5};
};

DirectConfig direct_config(const Options& o) {
  DirectConfig c;
  if (o.workload == "site_scale") {
    c.regions = 16;
    c.per_region = 16;  // 256 NCPs
    c.one_way_share = 0.25;
    c.stream = StreamSpec{10, true};
    c.session = 24;
  } else {
    c.regions = 4;
    c.per_region = 16;  // 64 NCPs
    c.stream = StreamSpec{0, false};
    c.session = 80;
  }
  if (o.tiny) {
    c.regions = 4;
    c.per_region = 6;
    c.session = 6;
    c.setup_reps = 2;
  }
  return c;
}

/// One set-up of a direct workload.
struct DirectState {
  std::unique_ptr<Site> site;
  std::unique_ptr<Stream> stream;
  const TimedAssigner* assigner{nullptr};  // owned by `sched`
  std::unique_ptr<Scheduler> sched;
  /// Placed apps in admission order with the arrival count they leave at.
  std::deque<std::pair<std::size_t, std::string>> live;
  std::size_t arrivals{0};  ///< arrivals submitted so far
};

DirectState direct_setup(const DirectConfig& c, std::uint64_t seed) {
  DirectState st;
  Rng rng(seed);
  st.site = std::make_unique<Site>(
      build_site(c.regions, c.per_region, c.one_way_share, rng));
  st.stream = std::make_unique<Stream>(*st.site, c.stream, seed ^ 0x5eedULL);
  auto assigner = std::make_unique<TimedAssigner>();
  st.assigner = assigner.get();
  st.sched = std::make_unique<Scheduler>(st.site->net, std::move(assigner));
  st.sched->begin_batch();
  for (std::size_t i = 0; i < c.session; ++i) {
    const Application app = st.stream->next();
    ++st.arrivals;
    if (st.sched->submit(app).admitted)
      st.live.emplace_back(st.arrivals + c.session, app.name);
  }
  st.sched->end_batch();
  return st;
}

/// What one timed phase measured.
struct PhaseStats {
  std::vector<double> admit_us, depart_us, query_us, carried;
  std::vector<double> self_us;  ///< submit minus assign and PF time (traced)
  std::size_t submits{0}, admitted{0};
  double elapsed_s{0.0}, cpu_s{0.0};
};

/// A read of the placement state an operator would poll, shaped like the
/// service's published snapshot: one view per placed app plus the carried
/// totals and the BE utility.
double read_state(const Scheduler& s) {
  std::vector<service::AppView> views;
  views.reserve(s.placed().size());
  for (const PlacedApp& pa : s.placed()) {
    const bool gr = pa.app.qoe.cls == QoeClass::kGuaranteedRate;
    views.push_back(service::AppView{pa.app.name, gr, pa.allocated_rate,
                                     pa.paths.size(),
                                     gr ? 0.0 : pa.app.qoe.priority,
                                     gr ? pa.app.qoe.min_rate : 0.0});
  }
  return static_cast<double>(views.size()) + s.total_gr_rate() +
         s.total_be_rate() + s.be_utility();
}

double pf_us_so_far(const obs::MetricsRegistry* traced) {
  const obs::Histogram* h =
      traced ? traced->find_histogram("scheduler.be_resolve.us") : nullptr;
  return h ? h->sum() : 0.0;
}

PhaseStats direct_phase(const DirectConfig& c, DirectState& st,
                        const Options& o, Result& r,
                        const obs::MetricsRegistry* traced) {
  PhaseStats ps;
  Scheduler& s = *st.sched;
  const auto t0 = Clock::now();
  const double cpu0 = cpu_seconds();
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(o.seconds));
  volatile double sink = 0.0;  // keeps the timed reads from being elided
  for (std::size_t op = 0;; ++op) {
    if (o.ops > 0 ? op >= o.ops : Clock::now() >= deadline) break;
    while (!st.live.empty() && st.live.front().first <= st.arrivals + 1) {
      const std::string name = std::move(st.live.front().second);
      st.live.pop_front();
      OpCount& k = r.ops["remove"];
      ++k.attempted;
      const auto a = Clock::now();
      bool ok = false;
      try {
        const Span span("ledger.remove");
        ok = s.remove(name);
      } catch (const std::exception&) {
      }
      ps.depart_us.push_back(us_between(a, Clock::now()));
      if (!ok) ++k.failed;
    }
    const Application app = st.stream->next();
    ++st.arrivals;
    OpCount& k = r.ops["submit"];
    ++k.attempted;
    const double assign_before = st.assigner->total_us();
    const double pf_before = pf_us_so_far(traced);
    const auto a = Clock::now();
    try {
      AdmissionResult res;
      {
        const Span span("ledger.submit");
        res = s.submit(app);
      }
      const double us = us_between(a, Clock::now());
      ps.admit_us.push_back(us);
      ++ps.submits;
      if (res.admitted) {
        ++ps.admitted;
        st.live.emplace_back(st.arrivals + c.session, app.name);
      } else {
        ++k.rejected;
      }
      if (traced != nullptr)
        ps.self_us.push_back(us - (st.assigner->total_us() - assign_before) -
                             (pf_us_so_far(traced) - pf_before));
    } catch (const std::exception&) {
      ++k.failed;
    }
    for (int q = 0; q < kReadsPerPoll; ++q) {
      ++r.ops["query"].attempted;
      const auto qa = Clock::now();
      sink = sink + read_state(s);
      ps.query_us.push_back(us_between(qa, Clock::now()));
    }
    ps.carried.push_back(s.total_gr_rate() + s.total_be_rate());
  }
  ps.elapsed_s = us_between(t0, Clock::now()) * 1e-6;
  ps.cpu_s = cpu_seconds() - cpu0;
  return ps;
}

/// Zeroed per-layer metrics of the layers a workload does not cross (the
/// service layer, the load generator and failure repair on the direct
/// workloads; the timing wrapper, which SchedulerService cannot take, on
/// service_mix).
void put_absent_layers(Result& r, bool service) {
  if (!service) {
    for (const char* n : {"service.queue_p50_us", "service.queue_p90_us",
                          "service.apply_p50_us", "service.solve_p50_us",
                          "service.reply_p50_us", "loadgen.late_p90_us",
                          "repair.p50_us"})
      put(r, n, 0.0, "us");
    put(r, "service.batch_size_mean", 0.0, "count");
    put(r, "service.resolves_saved", 0.0, "count");
  } else {
    for (const char* n : {"assign.p50_us", "scheduler.self_p50_us"})
      put(r, n, 0.0, "us");
    put(r, "assign.calls", 0.0, "count");
    put(r, "assign.time_s", 0.0, "s");
  }
}

Result run_direct(const Options& o) {
  const DirectConfig c = direct_config(o);
  Result r;
  std::vector<double> setups;
  DirectState st;
  for (std::size_t rep = 0; rep < c.setup_reps; ++rep) {
    st = DirectState{};  // the previous set-up is torn down untimed
    const auto t0 = Clock::now();
    st = direct_setup(c, o.seed);
    setups.push_back(us_between(t0, Clock::now()) * 1e-6);
  }
  const PhaseStats ps = direct_phase(c, st, o, r, nullptr);

  if (!o.trace) {
    put(r, "setup_s", percentile(setups, 0.5), "s");
    put(r, "admissions_per_s",
        ratio(static_cast<double>(ps.submits), ps.elapsed_s), "1/s");
    put(r, "admission_p50_us", percentile(ps.admit_us, 0.5), "us");
    put(r, "admission_p90_us", percentile(ps.admit_us, 0.9), "us");
    put(r, "query_p50_us", percentile(ps.query_us, 0.5), "us");
    put(r, "carried_rate", mean(ps.carried), "units/s");
    put(r, "admitted", static_cast<double>(ps.admitted), "count");
    put(r, "peak_rss_mb", peak_rss_mb(), "MB");
    check_final(*st.sched, r);
    return r;
  }

  // The traced phase continues the same stream with the obs sinks
  // installed.
  auto tracing = std::make_unique<Tracing>();
  st.assigner->reset();
  PhaseStats tps;
  {
    const obs::ScopedInstall install(
        obs::Observability{&tracing->registry, &tracing->collector, nullptr});
    tps = direct_phase(c, st, o, r, &tracing->registry);
  }
  const obs::MetricsSnapshot snap = tracing->registry.snapshot();
  add_program_counters(snap, r);
  const auto& calls = st.assigner->samples();
  put(r, "assign.calls", static_cast<double>(calls.size()), "count");
  put(r, "assign.time_s", st.assigner->total_us() * 1e-6, "s");
  put(r, "assign.p50_us", percentile(calls, 0.5), "us");
  r.work["assign.calls"] = calls.size();
  put(r, "scheduler.self_p50_us", percentile(tps.self_us, 0.5), "us");
  put(r, "scheduler.departure_mean_us", mean(tps.depart_us), "us");
  put(r, "pf.cold_solve_us", cold_pf_solve_us(view_of(*st.sched)), "us");
  put(r, "proc.cpu_s", ps.cpu_s, "s");
  const double aps = ratio(static_cast<double>(ps.submits), ps.elapsed_s);
  const double taps = ratio(static_cast<double>(tps.submits), tps.elapsed_s);
  put(r, "trace.overhead_pct", taps > 0 ? (aps / taps - 1.0) * 100.0 : 0.0,
      "%");
  put_absent_layers(r, /*service=*/false);
  r.work["submits"] = tps.submits;
  r.work["admitted"] = tps.admitted;
  if (!o.trace_out.empty()) {
    std::ofstream out(o.trace_out);
    tracing->collector.write_json(out);
  }
  check_final(*st.sched, r);
  return r;
}

// ---------------------------------------------------------------------------
// service_mix: an open loop against service::SchedulerService

struct ServiceConfig {
  std::size_t regions{8}, per_region{16};
  StreamSpec stream{10, true};
  /// Apps placed at set-up; each submit is preceded by the removal of the
  /// app submitted `population` arrivals earlier, so the placed count
  /// holds steady (a Poisson-many placed apps would swing carried_rate).
  std::size_t population{24};
  double arrival_rate{8.0};     ///< submits per second
  double query_rate{50.0};      ///< polls of eight snapshot() reads per second
  double failure_rate{2.0};     ///< compute-uplink failures per second
  double recover_after{0.25};   ///< seconds until a failed uplink recovers
  std::size_t setup_reps{5};
};

ServiceConfig service_config(const Options& o) {
  ServiceConfig c;
  if (o.tiny) {
    c.regions = 4;
    c.per_region = 6;
    c.population = 6;
    c.arrival_rate = 10.0;
    c.query_rate = 20.0;
    c.setup_reps = 2;
  }
  return c;
}

/// One scheduled operation of the open loop.
struct Event {
  enum class Kind { kSubmit, kRemove, kQuery, kFail, kRecover } kind;
  double due_s{0.0};     ///< offset from the phase start
  std::size_t app{0};    ///< submit/remove: index into the app list
  std::size_t slot{0};   ///< fail/recover: which failure
  double pick{0.0};      ///< fail: compute_uplink() choice
};

/// A request's terminal reply, written by the service's completion
/// callback on the scheduling thread.
struct Reply {
  std::atomic<int> count{0};
  /// 0 pending, 1 admitted, 2 other terminal status; release-stored after
  /// the fields below are written.
  std::atomic<int> state{0};
  service::ServiceResult::Status status{};
  Clock::time_point done{};
  service::RequestTimeline timeline{};
};

/// Sorted uniform offsets in [from, to): a Poisson process conditioned on
/// its event count, so every run offers exactly the same number.
std::vector<double> poisson_times(Rng& rng, double rate, double from,
                                  double to) {
  if (!(to > from)) return {};
  const auto n = static_cast<std::size_t>(std::llround(rate * (to - from)));
  std::vector<double> t(n);
  for (double& x : t) x = rng.uniform(from, to);
  std::sort(t.begin(), t.end());
  return t;
}

struct ServicePhase {
  std::vector<double> admit_us, depart_us, query_us, repair_us, late_us;
  std::vector<double> carried;
  std::vector<service::RequestTimeline> timelines;
  std::size_t decisions{0}, admitted{0};
  double elapsed_s{0.0}, cpu_s{0.0};
};

class ServiceRun {
 public:
  ServiceRun(const ServiceConfig& c, const Options& o, Result& r)
      : c_(c), o_(o), r_(r) {}

  double setup() {
    svc_.reset();
    apps_.clear();
    const auto t0 = Clock::now();
    Rng rng(o_.seed);
    site_ = std::make_unique<Site>(
        build_site(c_.regions, c_.per_region, /*one_way_share=*/0.0, rng));
    stream_ = std::make_unique<Stream>(*site_, c_.stream, o_.seed ^ 0x5eedULL);
    svc_ = std::make_unique<service::SchedulerService>(site_->net);
    std::vector<std::future<service::ServiceResult>> futures;
    for (std::size_t i = 0; i < c_.population; ++i) {
      apps_.push_back(stream_->next());
      futures.push_back(svc_->submit(apps_.back()));
    }
    prepop_admitted_.clear();
    for (std::size_t i = 0; i < futures.size(); ++i)
      if (futures[i].get().status == service::ServiceResult::Status::kAdmitted)
        prepop_admitted_.push_back(i);
    return us_between(t0, Clock::now()) * 1e-6;
  }

  /// Draws the whole open-loop schedule for `phases` timed phases.
  void plan(std::size_t phases) {
    Rng rng(o_.seed ^ 0x10adULL);
    const double span = phase_len() * static_cast<double>(phases);
    for (double t : poisson_times(rng, c_.arrival_rate, 0.0, span)) {
      const std::size_t i = apps_.size();
      apps_.push_back(stream_->next());
      events_.push_back({Event::Kind::kRemove, t, i - c_.population});
      events_.push_back({Event::Kind::kSubmit, t, i});
    }
    for (double t : poisson_times(rng, c_.query_rate, 0.0, span))
      events_.push_back({Event::Kind::kQuery, t});
    // Failures, each recovered `recover_after` later and before the
    // schedule ends.  The failed uplink is chosen on the scheduling
    // thread from the state the failure meets (compute_uplink()) and kept
    // in its slot for the recovery, which runs on the same thread.
    const auto fails = poisson_times(rng, c_.failure_rate, 0.0,
                                     span - c_.recover_after);
    failed_.assign(fails.size(), std::nullopt);
    for (std::size_t f = 0; f < fails.size(); ++f) {
      events_.push_back({Event::Kind::kFail, fails[f], 0, f, rng.uniform(0, 1)});
      events_.push_back({Event::Kind::kRecover, fails[f] + c_.recover_after, 0, f});
    }
    std::stable_sort(events_.begin(), events_.end(),
                     [](const Event& a, const Event& b) {
                       return a.due_s < b.due_s;
                     });
    replies_ = std::make_unique<Reply[]>(events_.size());
    admitted_ = std::make_unique<std::atomic<int>[]>(apps_.size());
    for (std::size_t i = 0; i < apps_.size(); ++i) admitted_[i] = 0;
    for (std::size_t i : prepop_admitted_) admitted_[i] = 1;

  }

  /// Plays the events due in phase `k`; returns what it measured.
  ServicePhase play(std::size_t k) {
    ServicePhase ps;
    const double from = phase_len() * static_cast<double>(k);
    const double to = from + phase_len();
    const std::size_t first = next_;
    const auto t0 = Clock::now();
    const double cpu0 = cpu_seconds();
    auto due_at = [&](double offset) {
      return t0 + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(offset - from));
    };
    while (next_ < events_.size() && events_[next_].due_s < to) {
      const std::size_t id = next_++;
      const Event& ev = events_[id];
      const auto due = due_at(ev.due_s);
      std::this_thread::sleep_until(due);
      ps.late_us.push_back(us_between(due, Clock::now()));
      send(id, ev, ps);
    }
    svc_->drain();
    ps.cpu_s = cpu_seconds() - cpu0;
    auto last = t0;
    for (std::size_t id = first; id < next_; ++id) collect(id, due_at, ps, last);
    ps.elapsed_s = us_between(t0, last) * 1e-6;
    return ps;
  }

  service::SchedulerService& svc() { return *svc_; }

 private:
  double phase_len() const {
    return o_.ops > 0 ? static_cast<double>(o_.ops) / c_.arrival_rate
                      : o_.seconds;
  }

  service::PlacementService::Completion on_reply(std::size_t id,
                                                 std::size_t app) {
    return [this, id, app](service::ServiceResult res) {
      Reply& rep = replies_[id];
      rep.count.fetch_add(1, std::memory_order_relaxed);
      rep.status = res.status;
      rep.done = Clock::now();
      rep.timeline = res.timeline;
      const bool in = res.status == service::ServiceResult::Status::kAdmitted;
      if (in) admitted_[app].store(1, std::memory_order_release);
      rep.state.store(in ? 1 : 2, std::memory_order_release);
    };
  }

  void send(std::size_t id, const Event& ev, ServicePhase& ps) {
    using K = Event::Kind;
    switch (ev.kind) {
      case K::kSubmit: {
        ++r_.ops["submit"].attempted;
        const Span span("ledger.submit_async");
        svc_->submit_async(apps_[ev.app], on_reply(id, ev.app));
        break;
      }
      case K::kRemove:
        // Only apps known to be admitted depart; a rejected app never
        // placed has nothing to remove.
        if (admitted_[ev.app].load(std::memory_order_acquire) == 1) {
          ++r_.ops["remove"].attempted;
          const Span span("ledger.remove_async");
          svc_->remove_async(apps_[ev.app].name, on_reply(id, ev.app));
        } else {
          replies_[id].state = 3;  // not sent
        }
        break;
      case K::kQuery:
        // A poll of back-to-back reads, each timed, as on the direct
        // workloads.
        for (int q = 0; q < kReadsPerPoll; ++q) {
          ++r_.ops["query"].attempted;
          const auto a = Clock::now();
          std::shared_ptr<const service::ServiceSnapshot> snap;
          {
            const Span span("ledger.snapshot");
            snap = svc_->snapshot();
            // What a client reply carries: a copy of the placed-app views.
            const std::vector<service::AppView> views = snap->apps;
            sink_ = sink_ + static_cast<double>(views.size());
          }
          ps.query_us.push_back(us_between(a, Clock::now()));
          if (q == 0) ps.carried.push_back(snap->total_gr_rate + snap->total_be_rate);
          if (snap->version < last_version_) {
            ++r_.ops["query"].failed;
            r_.violations.push_back("snapshot version went backwards");
          }
          last_version_ = snap->version;
        }
        replies_[id].state = 3;
        break;
      case K::kFail:
      case K::kRecover: {
        const bool fail = ev.kind == K::kFail;
        ++r_.ops[fail ? "repair" : "recover"].attempted;
        std::optional<ElementKey>* slot = &failed_[ev.slot];
        const Site* site = site_.get();
        const double pick = ev.pick;
        const Span span(fail ? "ledger.fail_async" : "ledger.recover_async");
        svc_->apply_async(
            [slot, site, pick, fail](Scheduler& s) {
              if (fail) *slot = compute_uplink(s, *site, pick);
              if (!*slot) return;
              if (fail)
                s.mark_failed(**slot);
              else
                s.mark_recovered(**slot);
              s.repair(**slot);
            },
            on_reply(id, 0));
        break;
      }
    }
  }

  /// Tallies request `id`'s reply; `last` tracks the latest decision.
  template <typename DueAt>
  void collect(std::size_t id, DueAt& due_at, ServicePhase& ps,
               Clock::time_point& last) {
    using K = Event::Kind;
    using S = service::ServiceResult::Status;
    const Event& ev = events_[id];
    Reply& rep = replies_[id];
    if (rep.state.load(std::memory_order_acquire) == 3) return;  // no request
    const char* kind = ev.kind == K::kSubmit   ? "submit"
                       : ev.kind == K::kRemove ? "remove"
                       : ev.kind == K::kFail   ? "repair"
                                               : "recover";
    OpCount& k = r_.ops[kind];
    const int n = rep.count.load(std::memory_order_acquire);
    if (n != 1) {
      ++k.failed;
      r_.violations.push_back(std::string(kind) + " request got " +
                              std::to_string(n) + " replies");
      return;
    }
    const double us = us_between(due_at(ev.due_s), rep.done);
    switch (rep.status) {
      case S::kAdmitted:
      case S::kRejected:
        if (ev.kind != K::kSubmit) {
          ++k.failed;  // a control function threw
          return;
        }
        ps.admit_us.push_back(us);
        ps.timelines.push_back(rep.timeline);
        last = std::max(last, rep.done);
        ++ps.decisions;
        if (rep.status == S::kAdmitted)
          ++ps.admitted;
        else
          ++k.rejected;
        return;
      case S::kRemoved:
        ps.depart_us.push_back(us);
        return;
      case S::kApplied:
        if (ev.kind == K::kFail) ps.repair_us.push_back(us);
        return;
      default:  // not_found, queue_full, deadline_exceeded, shutdown
        ++k.failed;
        return;
    }
  }

  const ServiceConfig& c_;
  const Options& o_;
  Result& r_;
  std::unique_ptr<Site> site_;
  std::unique_ptr<Stream> stream_;
  std::vector<Application> apps_;
  std::vector<std::size_t> prepop_admitted_;
  std::vector<Event> events_;
  /// Per failure, the uplink it took down; written and read only by the
  /// control functions on the service's scheduling thread.
  std::vector<std::optional<ElementKey>> failed_;
  std::unique_ptr<Reply[]> replies_;
  std::unique_ptr<std::atomic<int>[]> admitted_;
  std::size_t next_{0};
  std::uint64_t last_version_{0};
  volatile double sink_{0.0};  ///< keeps the timed reads from being elided
  // Last member: the service's scheduling thread runs the completion
  // callbacks above, so it stops before they are destroyed.
  std::unique_ptr<service::SchedulerService> svc_;
};

/// Final-state checks of the service: the snapshot agrees with the state
/// inspect() sees, and that state passes every output check.
void check_service(ServiceRun& run, Result& r) {
  auto& svc = run.svc();
  svc.drain();
  const auto snap = svc.snapshot();
  bool ran = svc.inspect([&](const Scheduler& s) {
    check_final(s, r);
    const auto& placed = s.placed();
    bool same = snap->apps.size() == placed.size();
    for (std::size_t i = 0; same && i < placed.size(); ++i)
      same = snap->apps[i].name == placed[i].app.name &&
             std::abs(snap->apps[i].allocated_rate - placed[i].allocated_rate) <=
                 1e-9 * std::max(1.0, placed[i].allocated_rate);
    same = same &&
           std::abs(snap->total_gr_rate - s.total_gr_rate()) <=
               1e-9 * std::max(1.0, s.total_gr_rate()) &&
           std::abs(snap->total_be_rate - s.total_be_rate()) <=
               1e-9 * std::max(1.0, s.total_be_rate());
    if (!same)
      r.violations.push_back("final snapshot disagrees with inspect() state");
  });
  if (!ran) r.violations.push_back("inspect() did not run");
}

Result run_service(const Options& o) {
  const ServiceConfig c = service_config(o);
  Result r;
  ServiceRun run(c, o, r);
  std::vector<double> setups;
  for (std::size_t rep = 0; rep < c.setup_reps; ++rep)
    setups.push_back(run.setup());
  run.plan(o.trace ? 2 : 1);
  const ServicePhase ps = run.play(0);
  if (!o.trace) {
    put(r, "setup_s", percentile(setups, 0.5), "s");
    put(r, "admissions_per_s", ratio(static_cast<double>(ps.decisions), ps.elapsed_s),
        "1/s");
    put(r, "admission_p50_us", percentile(ps.admit_us, 0.5), "us");
    put(r, "admission_p90_us", percentile(ps.admit_us, 0.9), "us");
    put(r, "query_p50_us", percentile(ps.query_us, 0.5), "us");
    put(r, "carried_rate", mean(ps.carried), "units/s");
    put(r, "admitted", static_cast<double>(ps.admitted), "count");
    put(r, "peak_rss_mb", peak_rss_mb(), "MB");
    check_service(run, r);
    return r;
  }

  auto tracing = std::make_unique<Tracing>();
  const obs::MetricsSnapshot svc_before = run.svc().registry().snapshot();
  ServicePhase tps;
  {
    const obs::ScopedInstall install(
        obs::Observability{&tracing->registry, &tracing->collector, nullptr});
    tps = run.play(1);
  }
  const obs::MetricsSnapshot svc_after = run.svc().registry().snapshot();
  add_program_counters(tracing->registry.snapshot(), r);
  std::vector<double> queue, apply, solve, reply;
  for (const service::RequestTimeline& t : tps.timelines) {
    queue.push_back(t.queue_us);
    apply.push_back(t.apply_us);
    solve.push_back(t.solve_us);
    reply.push_back(t.reply_us);
  }
  put(r, "service.queue_p50_us", percentile(queue, 0.5), "us");
  put(r, "service.queue_p90_us", percentile(queue, 0.9), "us");
  put(r, "service.apply_p50_us", percentile(apply, 0.5), "us");
  put(r, "service.solve_p50_us", percentile(solve, 0.5), "us");
  put(r, "service.reply_p50_us", percentile(reply, 0.5), "us");
  const double batches = static_cast<double>(
      hist_count(svc_after, "service.batch.size") -
      hist_count(svc_before, "service.batch.size"));
  put(r, "service.batch_size_mean",
      ratio(hist_sum(svc_after, "service.batch.size") -
                hist_sum(svc_before, "service.batch.size"),
            batches),
      "count");
  put(r, "service.resolves_saved",
      static_cast<double>(svc_after.counter_or("service.resolves_saved") -
                          svc_before.counter_or("service.resolves_saved")),
      "count");
  put(r, "loadgen.late_p90_us", percentile(tps.late_us, 0.9), "us");
  put(r, "scheduler.departure_mean_us", mean(tps.depart_us), "us");
  put(r, "repair.p50_us", percentile(tps.repair_us, 0.5), "us");
  double cold = 0.0;
  run.svc().inspect(
      [&](const Scheduler& s) { cold = cold_pf_solve_us(view_of(s)); });
  put(r, "pf.cold_solve_us", cold, "us");
  put(r, "proc.cpu_s", ps.cpu_s, "s");
  const double aps = ratio(static_cast<double>(ps.decisions), ps.elapsed_s);
  const double taps = ratio(static_cast<double>(tps.decisions), tps.elapsed_s);
  put(r, "trace.overhead_pct", taps > 0 ? (aps / taps - 1.0) * 100.0 : 0.0, "%");
  put_absent_layers(r, /*service=*/true);
  if (!o.trace_out.empty()) {
    std::ofstream out(o.trace_out);
    tracing->collector.write_json(out);
  }
  check_service(run, r);
  return r;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"site_scale", "population",
                                              "service_mix"};
  return names;
}

Result run(const Options& o) {
  if (std::find(workload_names().begin(), workload_names().end(),
                o.workload) == workload_names().end())
    throw std::invalid_argument("unknown workload '" + o.workload + "'");
  if (!(o.seconds > 0) && o.ops == 0)
    throw std::invalid_argument("--seconds must be positive");
  return o.workload == "service_mix" ? run_service(o) : run_direct(o);
}

}  // namespace ledger
