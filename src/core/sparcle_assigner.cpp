#include "core/sparcle_assigner.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/greedy_engine.hpp"
#include "core/local_search.hpp"
#include "core/parallel.hpp"
#include "core/widest_path.hpp"
#include "obs/obs.hpp"

namespace sparcle {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Memoized (best host, γ) of one unplaced CT.  `valid` entries are exact:
/// the invalidation rules below dirty every entry a commit could change.
struct CachedBest {
  NcpId host{kInvalidId};
  double gamma{-kInf};
  bool valid{false};
};

/// Memoization counters of one assign() run (see docs/observability.md).
struct AssignCounters {
  std::uint64_t rounds{0};
  std::uint64_t memo_hits{0};
  std::uint64_t memo_misses{0};
  std::uint64_t memo_invalidations{0};
};

/// Flushes the run's counters into the installed registry on every exit
/// path (including the infeasible early return).  No-op when no registry
/// is installed.
class MetricsFlush {
 public:
  MetricsFlush(const GreedyEngine& engine, const AssignCounters& counters)
      : engine_(engine), counters_(counters) {}
  ~MetricsFlush() {
    obs::MetricsRegistry* reg = obs::metrics();
    if (reg == nullptr) return;
    const EngineStats es = engine_.stats();
    reg->counter("assigner.assigns").add(1);
    reg->counter("assigner.ranking_rounds").add(counters_.rounds);
    reg->counter("assigner.memo.hits").add(counters_.memo_hits);
    reg->counter("assigner.memo.misses").add(counters_.memo_misses);
    reg->counter("assigner.memo.invalidations")
        .add(counters_.memo_invalidations);
    reg->counter("assigner.gamma_evals").add(es.gamma_evals);
    reg->counter("assigner.widest_path_calls").add(es.widest_path_calls);
    reg->counter("assigner.bnb_prunes").add(es.bnb_prunes);
  }

 private:
  const GreedyEngine& engine_;
  const AssignCounters& counters_;
};

}  // namespace

AssignmentResult SparcleAssigner::assign(
    const AssignmentProblem& problem) const {
  using Ranking = SparcleAssignerOptions::Ranking;
  // Phase span: in kBestOfBoth mode the two sub-assigns nest their own
  // spans inside this one, so the Chrome trace shows the recursion.
  obs::ScopedTimer span("assigner.assign");
  if (options_.ranking == Ranking::kBestOfBoth) {
    SparcleAssignerOptions a = options_, b = options_;
    a.ranking = Ranking::kMostConstrainedFirst;
    b.ranking = Ranking::kLeastConstrainedFirst;
    a.local_search_rounds = b.local_search_rounds = 0;  // refine once below
    AssignmentResult ra = SparcleAssigner(a).assign(problem);
    AssignmentResult rb = SparcleAssigner(b).assign(problem);
    AssignmentResult best;
    if (!ra.feasible)
      best = std::move(rb);
    else if (!rb.feasible)
      best = std::move(ra);
    else
      best = ra.rate >= rb.rate ? std::move(ra) : std::move(rb);
    if (best.feasible && options_.local_search_rounds > 0)
      best = refine_placement(problem, best,
                              {options_.local_search_rounds});
    return best;
  }
  GreedyEngine engine(problem, options_.probe_with_min_bits_tt);
  engine.commit_pins();  // Alg. 2 lines 3-5
  engine.warm_probe_cache();

  const TaskGraph& graph = engine.graph();
  const std::size_t total = graph.ct_count();

  // Memoized per-CT best-host evaluations (lines 7-14 of each round).
  std::vector<CachedBest> cache(total);
  const unsigned threads = WorkerPool::resolve_threads(options_.eval_threads);
  std::vector<WidestPathWorkspace> workspaces(threads);
  std::unique_ptr<WorkerPool> pool;  // spawned on first parallel round
  std::vector<CtId> stale;
  stale.reserve(total);

  AssignCounters counters;
  const MetricsFlush flush(engine, counters);

  // Recomputes every invalid cache entry of an unplaced CT.  The engine is
  // read-only during evaluation and each item writes only its own slot, so
  // the parallel fan-out is race-free; the (serial) reduction over the
  // cache afterwards makes the outcome bit-identical to a serial run.
  const auto refresh_cache = [&] {
    stale.clear();
    for (CtId i = 0; i < static_cast<CtId>(total); ++i) {
      if (engine.placed(i)) continue;
      if (cache[i].valid)
        ++counters.memo_hits;
      else
        stale.push_back(i);
    }
    counters.memo_misses += stale.size();
    const auto evaluate = [&](std::size_t idx, unsigned worker) {
      const CtId i = stale[idx];
      double gi = -kInf;
      const NcpId ji = engine.best_host(i, workspaces[worker], &gi);
      cache[i] = {ji, gi, true};
    };
    if (threads > 1 && stale.size() > 1) {
      if (!pool) pool = std::make_unique<WorkerPool>(threads);
      pool->run(stale.size(), evaluate);
    } else {
      for (std::size_t idx = 0; idx < stale.size(); ++idx) evaluate(idx, 0);
    }
  };

  // Static-ranking ablation: the CT order is frozen after the first
  // evaluation round; hosts are still chosen against current loads.
  std::vector<CtId> static_order;
  bool order_frozen = false;
  const bool most_constrained =
      options_.ranking == Ranking::kMostConstrainedFirst;
  const policy::SchedulingPolicy& pol = policy::or_default(options_.policy);
  std::vector<policy::CtCandidate> candidates;
  std::vector<NcpId> hosts(total, kInvalidId);

  while (engine.placed_count() < total) {
    ++counters.rounds;
    CtId chosen = kInvalidId;
    NcpId chosen_host = kInvalidId;

    if (options_.dynamic_ranking) {
      // Lines 7-16: evaluate every unplaced CT's best host, then let the
      // policy (decision point 2) pick among the candidates in CT order.
      refresh_cache();
      candidates.clear();
      for (CtId i = 0; i < static_cast<CtId>(total); ++i) {
        if (engine.placed(i))
          hosts[i] = engine.host(i);
        else
          candidates.push_back({i, cache[i].host, cache[i].gamma});
      }
      policy::SelectContext ctx;
      ctx.net = problem.net;
      ctx.graph = problem.graph;
      ctx.most_constrained_pass = most_constrained;
      ctx.ct_host = &hosts;
      const std::size_t pick = pol.select_ct(ctx, candidates);
      if (pick < candidates.size()) {
        chosen = candidates[pick].ct;
        chosen_host = candidates[pick].host;
      }
    } else {
      if (!order_frozen) {
        refresh_cache();
        std::vector<std::pair<double, CtId>> ranked;
        for (CtId i = 0; i < static_cast<CtId>(total); ++i)
          if (!engine.placed(i)) ranked.emplace_back(cache[i].gamma, i);
        std::sort(ranked.begin(), ranked.end());
        if (!most_constrained) std::reverse(ranked.begin(), ranked.end());
        for (const auto& [g, i] : ranked) static_order.push_back(i);
        order_frozen = true;
      }
      for (CtId i : static_order) {
        if (!engine.placed(i)) {
          chosen = i;
          break;
        }
      }
      if (chosen != kInvalidId) chosen_host = engine.best_host(chosen);
    }

    if (chosen == kInvalidId || chosen_host == kInvalidId) {
      AssignmentResult r;
      r.message = "no placeable CT (disconnected network?)";
      return r;
    }
    const CommitEffects effects = engine.commit(chosen, chosen_host);

    // Dirty-tracking: a commit of `chosen` on `chosen_host` can change
    // γ(i, ·) of an unplaced CT i only through (a) a new placed relative
    // (i related to chosen), (b) node load on i's cached best host, or
    // (c) link load anywhere, which matters only to CTs whose γ has link
    // terms — i.e. CTs with at least one placed relative.  Everything
    // else keeps an exact cache entry (see docs/perf.md for the proof
    // sketch and test_assign_equivalence for the property test).
    for (CtId i = 0; i < static_cast<CtId>(total); ++i) {
      if (engine.placed(i) || !cache[i].valid) continue;
      if (!options_.memoize_gamma || graph.related(i, chosen) ||
          cache[i].host == chosen_host ||
          (effects.routed_links && engine.has_placed_relative(i))) {
        cache[i].valid = false;
        ++counters.memo_invalidations;
      }
    }
  }

  AssignmentResult result = std::move(engine).finish();
  if (result.feasible && options_.local_search_rounds > 0)
    result =
        refine_placement(problem, result, {options_.local_search_rounds});
  return result;
}

}  // namespace sparcle
